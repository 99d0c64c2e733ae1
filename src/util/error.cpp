#include "util/error.hpp"

namespace linesearch {
namespace {

std::string describe(const std::string_view message,
                     const std::source_location& where) {
  std::string out;
  out += message;
  out += " [";
  out += where.file_name();
  out += ":";
  out += std::to_string(where.line());
  out += " in ";
  out += where.function_name();
  out += "]";
  return out;
}

}  // namespace

Error::Error(const std::string_view message,
             const std::source_location& where)
    : std::runtime_error(describe(message, where)),
      message_size_(message.size()) {}

namespace detail {

void throw_precondition(const std::string_view message,
                        const std::source_location& where) {
  throw PreconditionError(message, where);
}

void throw_invariant(const std::string_view message,
                     const std::source_location& where) {
  throw InvariantError(message, where);
}

}  // namespace detail

}  // namespace linesearch
