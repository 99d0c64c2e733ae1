// util/error.hpp — error types and contract checks.
//
// Per the C++ Core Guidelines (I.5/I.6, E.2) we state preconditions
// explicitly and throw on violation; `expects()` / `ensures()` are plain
// functions (no macros) that capture the call site via
// std::source_location.
//
// A check whose message needs formatting (an offset, a field name, a
// count) passes a callable instead of a string: it runs only when the
// check fails, so a passing check costs one predictable branch and never
// builds a string.
//
//   expects(pos_ == size, [&] { return "trailing garbage at " + at(); });
#pragma once

#include <concepts>
#include <cstddef>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace linesearch {

/// Base class of all linesearch errors.  what() is the message, followed
/// by " [file:line in function]" when a contract check threw it;
/// message() is the message alone — the text the service puts on the
/// wire, identical in every checkout and build.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), message_size_(what.size()) {}

  /// `message` followed by the " [file:line in function]" suffix.
  Error(std::string_view message, const std::source_location& where);

  /// what() without the source-location suffix.
  [[nodiscard]] std::string_view message() const noexcept {
    return {what(), message_size_};
  }

 private:
  std::size_t message_size_;  ///< prefix of what() that is the message
};

/// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  using Error::Error;
};

/// An internal invariant failed (library bug, not caller error).
class InvariantError : public Error {
 public:
  using Error::Error;
};

/// A numeric routine failed to converge / bracket.
class NumericError : public Error {
 public:
  using Error::Error;
};

/// A callable that builds a check's message on failure.
template <typename F>
concept MessageBuilder = std::invocable<F&> &&
    std::convertible_to<std::invoke_result_t<F&>, std::string_view>;

namespace detail {

[[noreturn]] void throw_precondition(std::string_view message,
                                     const std::source_location& where);
[[noreturn]] void throw_invariant(std::string_view message,
                                  const std::source_location& where);

}  // namespace detail

/// Throw PreconditionError with location info unless `condition` holds.
inline void expects(
    const bool condition, const std::string_view message,
    const std::source_location where = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_precondition(message, where);
}

/// As above; `message()` runs only when `condition` fails.
template <MessageBuilder F>
inline void expects(
    const bool condition, F&& message,
    const std::source_location where = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_precondition(std::forward<F>(message)(), where);
  }
}

/// Throw InvariantError with location info unless `condition` holds.
inline void ensures(
    const bool condition, const std::string_view message,
    const std::source_location where = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_invariant(message, where);
}

/// As above; `message()` runs only when `condition` fails.
template <MessageBuilder F>
inline void ensures(
    const bool condition, F&& message,
    const std::source_location where = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_invariant(std::forward<F>(message)(), where);
  }
}

}  // namespace linesearch
