// SmallFn<void(Args...)>: a move-only callable with small-buffer optimization. SmallFunction
// (= SmallFn<void()>) is the simulator's event callback type; ReplyCallback
// (= SmallFn<void(const Reply&)>) is the data plane's reply continuation.
//
// std::function heap-allocates any capture larger than its tiny internal buffer (16 bytes on
// libstdc++), which puts one malloc/free pair on every scheduled event of the hot simulation
// loop, and on every RPC reply whose closure carries a route and a call handle (32 bytes).
// SmallFn stores captures up to kInlineCapacity (48 bytes — sized to fit the dissemination,
// retry and reply closures, see DESIGN.md §9) inline in the object itself and only falls back
// to the heap beyond that. Move-only on purpose: callbacks are consumed exactly once, and
// copyability is what forces std::function to type-erase through an extra indirection.
//
// Most closures on the hot path capture only pointers, ids and handles. A capture that is
// trivially copyable and trivially destructible gets no manager at all: moving it copies the
// inline buffer and destroying it calls nothing, so moving an event through the slab costs a
// fixed-size memcpy instead of an indirect call.

#ifndef SRC_COMMON_SMALL_FUNCTION_H_
#define SRC_COMMON_SMALL_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace shardman {

template <typename Sig>
class SmallFn;

template <typename... Args>
class SmallFn<void(Args...)> {
 public:
  // Captures up to this many bytes (with fundamental alignment) are stored inline.
  static constexpr size_t kInlineCapacity = 48;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    if constexpr (kInlineEligible<Fn>) {
      if constexpr (kTrivial<Fn>) {
        // A trivial capture moves as a copy of the whole buffer: define the bytes it leaves.
        std::memset(storage_, 0, kInlineCapacity);
      } else {
        manage_ = &InlineManage<Fn>;
      }
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &InlineInvoke<Fn>;
    } else {
      *HeapSlot() = new Fn(std::forward<F>(f));
      invoke_ = &HeapInvoke<Fn>;
      manage_ = &HeapManage<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { MoveFrom(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Destroy(); }

  void operator()(Args... args) {
    SM_CHECK(invoke_ != nullptr);
    invoke_(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  // True when the callable lives in the inline buffer (diagnostics / allocation tests).
  bool is_inline() const noexcept { return invoke_ != nullptr && heap_ == false; }

  void reset() noexcept {
    Destroy();
    invoke_ = nullptr;
    manage_ = nullptr;
    heap_ = false;
  }

 private:
  enum class Op { kMoveTo, kDestroy };

  using InvokeFn = void (*)(void*, Args...);
  // kMoveTo: relocate the callable from `self` into `other` (leaving `self` destroyed);
  // kDestroy: destroy the callable in `self`. Null for a trivial inline capture.
  using ManageFn = void (*)(Op, void* self, void* other);

  // Inline storage requires fitting the buffer, fundamental alignment, and a noexcept move so
  // relocation during event-pool growth cannot throw mid-move.
  template <typename Fn>
  static constexpr bool kInlineEligible = sizeof(Fn) <= kInlineCapacity &&
                                          alignof(Fn) <= alignof(std::max_align_t) &&
                                          std::is_nothrow_move_constructible_v<Fn>;
  // An inline capture that may be relocated by copying its bytes and dropped without a call.
  template <typename Fn>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  template <typename Fn>
  static void InlineInvoke(void* s, Args... args) {
    (*std::launder(reinterpret_cast<Fn*>(s)))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void InlineManage(Op op, void* self, void* other) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
    if (op == Op::kMoveTo) {
      ::new (other) Fn(std::move(*fn));
    }
    fn->~Fn();
  }

  template <typename Fn>
  static void HeapInvoke(void* s, Args... args) {
    (**static_cast<Fn**>(s))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void HeapManage(Op op, void* self, void* other) {
    Fn** slot = static_cast<Fn**>(self);
    if (op == Op::kMoveTo) {
      *static_cast<Fn**>(other) = *slot;
    } else {
      delete *slot;
    }
    *slot = nullptr;
  }

  void** HeapSlot() {
    heap_ = true;
    return reinterpret_cast<void**>(storage_);
  }

  void MoveFrom(SmallFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    heap_ = other.heap_;
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMoveTo, other.storage_, storage_);
    } else if (other.invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kInlineCapacity);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
    other.heap_ = false;
  }

  void Destroy() noexcept {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  bool heap_ = false;
};

using SmallFunction = SmallFn<void()>;

}  // namespace shardman

#endif  // SRC_COMMON_SMALL_FUNCTION_H_
