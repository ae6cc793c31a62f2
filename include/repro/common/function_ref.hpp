// A non-owning reference to a callable: two words, no allocation.
//
// The numeric kernels take their residual and projection callbacks by
// FunctionRef instead of std::function. A std::function stores a
// lambda that captures more than two references on the heap, and the
// solver builds such callbacks on every co-schedule it prices. A
// FunctionRef must not outlive the callable it refers to: take it as a
// parameter, never store it.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace repro {

template <class Signature>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  /// The empty reference; calling it is undefined, test with bool.
  FunctionRef() = default;

  // A callable returning by value cannot stand behind a reference
  // result: the thunk would return a reference to its own temporary.
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...> &&
             (!std::is_reference_v<R> ||
              std::is_reference_v<std::invoke_result_t<F&, Args...>>))
  FunctionRef(F&& f) noexcept  // implicit, like std::function's
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(object),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace repro
