// Non-owning reference to a callable: two pointers, one indirect call, no
// allocation. The storage hot path hands its placement filters across the
// virtual PlacementPolicy interface (so a template parameter cannot carry
// them) about 100M times per year-long grid; std::function's type-erased
// copy and double dispatch cost more than the filters themselves.
//
// The referenced callable must outlive every call through the ref. Passing a
// lambda straight into a function taking a FunctionRef is safe (the
// temporary lives to the end of the full expression); storing a ref to a
// temporary, or returning one from a function, dangles.

#ifndef HARVEST_SRC_UTIL_FUNCTION_REF_H_
#define HARVEST_SRC_UTIL_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace harvest {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  // Implicit, so a lambda converts at the call site as it did to
  // std::function.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& callable) noexcept
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(callable)))),
        call_([](void* object, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(object),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_FUNCTION_REF_H_
