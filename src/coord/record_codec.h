// Decimal fields of coordination-store records.
//
// Every record the control plane keeps in the store (per-server assignments, the live range
// table, the leader lease and its epoch counter) is ASCII text: decimal integers between
// one-character separators. These helpers are the one number codec those records share:
// std::to_chars / std::from_chars, so no locale, no iostreams and no temporary strings on the
// write path, and a malformed field is reported instead of thrown.

#ifndef SRC_COORD_RECORD_CODEC_H_
#define SRC_COORD_RECORD_CODEC_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace shardman {

// Appends the decimal form of `value` to `out`.
template <typename Int>
void AppendDecimal(std::string& out, Int value) {
  static_assert(std::is_integral_v<Int>);
  char digits[24];  // a 64-bit value takes at most 20 characters
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

// Parses all of `field` as one decimal integer. False when it is empty, holds anything but
// digits (after a leading '-' for a signed `Int`), or does not fit in `Int`; `*out` is then
// left unchanged.
template <typename Int>
bool ParseDecimal(std::string_view field, Int* out) {
  static_assert(std::is_integral_v<Int>);
  const char* end = field.data() + field.size();
  const std::from_chars_result result = std::from_chars(field.data(), end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

// Splits the text before the first `sep` off the front of `*rest` into `*field`, and drops it
// and the separator from `*rest`. False, with both left unchanged, when `*rest` holds no
// `sep`: an unterminated tail is not a field.
inline bool NextField(std::string_view* rest, char sep, std::string_view* field) {
  const size_t pos = rest->find(sep);
  if (pos == std::string_view::npos) {
    return false;
  }
  *field = rest->substr(0, pos);
  rest->remove_prefix(pos + 1);
  return true;
}

}  // namespace shardman

#endif  // SRC_COORD_RECORD_CODEC_H_
