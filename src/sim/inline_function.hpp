// Fixed-capacity callable for the simulator's event and receive callbacks.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace wsnex::sim {

/// Bytes of capture an InlineFunction holds: the largest closure the
/// simulator schedules, `[this, frame]` — an 8-byte pointer plus the
/// 48-byte Frame of a channel delivery or a coordinator ACK.
inline constexpr std::size_t kInlineClosureBytes = 56;

template <typename Signature>
class InlineFunction;

/// A type-erased callable that never allocates. The callable is
/// placement-new'd into aligned inline storage and reached through one
/// function pointer, so an InlineFunction is itself trivially copyable:
/// copying is a memcpy and destruction is a no-op. That only holds for
/// callables that are trivially copyable themselves (which implies a
/// trivial destructor), no larger than kInlineClosureBytes and invocable
/// as const; the constructor rejects anything else at compile time
/// rather than falling back to the heap. Capture state by pointer or
/// reference: a container or another type-erased function captured by
/// value does not compile.
template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// True when a callable of type F can be stored.
  template <typename F>
  static constexpr bool kFits =
      sizeof(F) <= kInlineClosureBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_trivially_copyable_v<F> &&
      std::is_invocable_r_v<R, const F&, Args...>;

  /// Empty: a free slot's placeholder, never invoked.
  InlineFunction() = default;

  /// Implicit, so a lambda passes straight to schedule() or attach().
  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, InlineFunction> && kFits<Fn>)
  InlineFunction(F&& f) noexcept : invoke_(&invoke<Fn>) {
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
  }

  R operator()(Args... args) const {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  template <typename Fn>
  static R invoke(const std::byte* storage, Args... args) {
    return (*std::launder(reinterpret_cast<const Fn*>(storage)))(
        std::forward<Args>(args)...);
  }

  // Not zeroed: only the bytes a stored callable occupies are ever read
  // as that callable; the rest are copied as bytes and never read.
  alignas(std::max_align_t) std::byte storage_[kInlineClosureBytes];
  R (*invoke_)(const std::byte*, Args...) = nullptr;
};

}  // namespace wsnex::sim
