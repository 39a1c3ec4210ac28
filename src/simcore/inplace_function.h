#pragma once
// A fixed-capacity, non-allocating std::function replacement for the event
// loop's hot path. Every simulator event used to pay a std::function heap
// allocation (or at best its SBO management overhead); the kernel schedules
// millions of tiny [this, cpu]-style closures per run, so the callback
// wrapper must be a plain buffer copy. Capacity is a compile-time contract:
// a closure that does not fit is a build error, never a silent allocation.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hpcs::sim {

template <typename Signature, std::size_t Capacity>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  // Construction/move/dispatch run once per scheduled event. The placement
  // news below construct into the inline buffer (no heap), which is exactly
  // what this type exists for.
  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "closure too large for InplaceFunction capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closures must be nothrow-movable (events move across slots)");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* b, Args... args) -> R {
      return (*std::launder(reinterpret_cast<Fn*>(b)))(std::forward<Args>(args)...);
    };
    // Trivially-copyable closures (the common [this, cpu] case) keep
    // manage_ == nullptr: moves become a plain buffer copy and destruction a
    // no-op. The copy takes the whole buffer, so the bytes past the closure
    // are zeroed: a move reads no uninitialized byte.
    if constexpr (std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>) {
      if constexpr (sizeof(Fn) < Capacity) {
        std::memset(buf_ + sizeof(Fn), 0, Capacity - sizeof(Fn));
      }
    } else {
      manage_ = [](void* dst, void* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        if (dst != nullptr) ::new (dst) Fn(std::move(*s));
        s->~Fn();
      };
    }
  }

  InplaceFunction(InplaceFunction&& o) noexcept { move_from(o); }

  InplaceFunction& operator=(InplaceFunction&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  InplaceFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(const_cast<void*>(static_cast<const void*>(buf_)),
                   std::forward<Args>(args)...);
  }

 private:
  void reset() {
    if (manage_ != nullptr) manage_(nullptr, buf_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void move_from(InplaceFunction& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (o.manage_ != nullptr) {
      o.manage_(buf_, o.buf_);  // move-construct + destroy src
    } else if (o.invoke_ != nullptr) {
      std::memcpy(buf_, o.buf_, Capacity);  // trivial closure: bytes are the state
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  using Invoke = R (*)(void*, Args...);
  /// Move-construct `*src` into `dst` (when dst != nullptr), then destroy src.
  using Manage = void (*)(void* dst, void* src);

  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace hpcs::sim
