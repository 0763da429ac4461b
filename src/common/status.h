// Status and Result<T>: exception-free error handling used throughout the library.
//
// Library code never throws; fallible operations return Status (no payload) or Result<T>
// (payload or error). Invariant violations abort via the SM_CHECK macros in check.h.

#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace shardman {

// Canonical error space, modeled after the widely used gRPC/absl code set.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kFailedPrecondition,
  kUnavailable,
  kDeadlineExceeded,
  kResourceExhausted,
  kAborted,
  kUnimplemented,
  kInternal,
};

inline constexpr int kStatusCodeCount = static_cast<int>(StatusCode::kInternal) + 1;

// Returns a stable human-readable name for a status code, e.g. "NOT_FOUND".
std::string_view StatusCodeName(StatusCode code);

// One counter per StatusCode: failures counted by reason in fixed space, so counting one
// never allocates.
class StatusCounts {
 public:
  void Add(StatusCode code) { ++counts_[static_cast<size_t>(code)]; }
  void Merge(const StatusCounts& other) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }
  uint64_t count(StatusCode code) const { return counts_[static_cast<size_t>(code)]; }
  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t c : counts_) {
      sum += c;
    }
    return sum;
  }

 private:
  std::array<uint64_t, kStatusCodeCount> counts_{};
};

// A cheap, copyable success-or-error value.
class Status {
 public:
  // Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CODE_NAME>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Convenience constructors mirroring the code names.
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status InvalidArgumentError(std::string message);
Status FailedPreconditionError(std::string message);
Status UnavailableError(std::string message);
Status DeadlineExceededError(std::string message);
Status ResourceExhaustedError(std::string message);
Status AbortedError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);

// A value of type T or an error Status. Accessing value() on an error aborts.
template <typename T>
class Result {
 public:
  // Implicit conversions keep call sites terse: `return value;` / `return SomeError(...)`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    // An OK status with no value would be an unusable Result; normalize to an internal error.
    if (status_.ok()) {
      status_ = Status(StatusCode::kInternal, "Result constructed from OK status without value");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfError();
    return *value_;
  }
  T& value() & {
    AbortIfError();
    return *value_;
  }
  T&& value() && {
    AbortIfError();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value if OK, otherwise the supplied default.
  T value_or(T fallback) const {
    if (ok()) {
      return *value_;
    }
    return fallback;
  }

 private:
  void AbortIfError() const;

  Status status_;
  std::optional<T> value_;
};

namespace result_internal {
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace result_internal

template <typename T>
void Result<T>::AbortIfError() const {
  if (!value_.has_value()) {
    result_internal::DieOnBadResultAccess(status_);
  }
}

}  // namespace shardman

// Propagates a non-OK Status from the current function.
#define SM_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::shardman::Status sm_status_tmp_ = (expr);   \
    if (!sm_status_tmp_.ok()) {                   \
      return sm_status_tmp_;                      \
    }                                             \
  } while (false)

// Assigns the value of a Result expression to `lhs`, or propagates its error.
#define SM_ASSIGN_OR_RETURN(lhs, expr)        \
  SM_ASSIGN_OR_RETURN_IMPL_(                  \
      SM_STATUS_CONCAT_(sm_result_, __LINE__), lhs, expr)

#define SM_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) {                                \
    return tmp.status();                          \
  }                                               \
  lhs = std::move(tmp).value()

#define SM_STATUS_CONCAT_INNER_(a, b) a##b
#define SM_STATUS_CONCAT_(a, b) SM_STATUS_CONCAT_INNER_(a, b)

#endif  // SRC_COMMON_STATUS_H_
