#include "util/cli.hpp"

#include <cstdlib>
#include <sstream>
#include <utility>

namespace linesearch {
namespace {

/// Strict whole-token numeric parse; empty optional on failure is
/// modelled by the `ok` out-param to keep the dependencies minimal.
long long parse_integer(const std::string& token, bool& ok) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const long long parsed = std::strtoll(begin, &end, 10);
  ok = !token.empty() && end != nullptr && *end == '\0';
  return parsed;
}

std::uint64_t parse_unsigned(const std::string& token, bool& ok) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(begin, &end, 10);
  ok = !token.empty() && token.front() != '-' && end != nullptr &&
       *end == '\0';
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

CliParser::CliParser(std::string tool, std::string summary)
    : tool_(std::move(tool)), summary_(std::move(summary)) {}

void CliParser::add_flag(const std::string& name, bool* target,
                         const std::string& help) {
  specs_.push_back({"--" + name, "", help,
                    [target](const std::string&) -> std::string {
                      *target = true;
                      return {};
                    }});
}

void CliParser::add_option(const std::string& name, std::string* target,
                           const std::string& value_name,
                           const std::string& help) {
  specs_.push_back({"--" + name, value_name, help,
                    [target](const std::string& value) -> std::string {
                      *target = value;
                      return {};
                    }});
}

void CliParser::add_option(const std::string& name, int* target,
                           const std::string& value_name,
                           const std::string& help, const int min) {
  const std::string flag = "--" + name;
  specs_.push_back(
      {flag, value_name, help,
       [target, flag, min](const std::string& value) -> std::string {
         bool ok = false;
         const long long parsed = parse_integer(value, ok);
         if (!ok) return flag + " expects an integer, got '" + value + "'";
         if (parsed < min) {
           return flag + " must be >= " + std::to_string(min) + ", got '" +
                  value + "'";
         }
         *target = static_cast<int>(parsed);
         return {};
       }});
}

void CliParser::add_option(const std::string& name, std::uint64_t* target,
                           const std::string& value_name,
                           const std::string& help) {
  const std::string flag = "--" + name;
  specs_.push_back(
      {flag, value_name, help,
       [target, flag](const std::string& value) -> std::string {
         bool ok = false;
         const std::uint64_t parsed = parse_unsigned(value, ok);
         if (!ok) {
           return flag + " expects a non-negative integer, got '" + value +
                  "'";
         }
         *target = parsed;
         return {};
       }});
}

const CliParser::Spec* CliParser::find(const std::string& name) const {
  for (const Spec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string CliParser::known_options() const {
  std::string out;
  for (const Spec& spec : specs_) {
    if (!out.empty()) out += ", ";
    out += spec.name;
  }
  return out;
}

bool CliParser::fail(const std::string& message) {
  error_ = tool_ + ": " + message;
  return false;
}

bool CliParser::parse(const int argc, const char* const* argv) {
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string name = arg;
    std::string inline_value;
    bool has_inline_value = false;
    const std::size_t equals = arg.find('=');
    if (equals != std::string::npos) {
      name = arg.substr(0, equals);
      inline_value = arg.substr(equals + 1);
      has_inline_value = true;
    }

    const Spec* spec = find(name);
    if (spec == nullptr) {
      return fail("unknown argument '" + arg + "' (valid options: " +
                  known_options() + ")");
    }

    const bool is_flag = spec->value_name.empty();
    std::string value;
    if (is_flag) {
      if (has_inline_value) {
        return fail(name + " is a flag and takes no value");
      }
    } else if (has_inline_value) {
      value = inline_value;
    } else {
      if (i + 1 >= argc) {
        return fail(name + " expects a value (" + spec->value_name + ")");
      }
      value = argv[++i];
    }
    const std::string message = spec->apply(value);
    if (!message.empty()) return fail(message);
  }
  return true;
}

std::string CliParser::usage() const {
  std::ostringstream out;
  out << "usage: " << tool_ << " [options]\n" << summary_ << "\n\noptions:\n";
  for (const Spec& spec : specs_) {
    std::string left = "  " + spec.name;
    if (!spec.value_name.empty()) left += " <" + spec.value_name + ">";
    out << left;
    constexpr std::size_t kHelpColumn = 30;
    if (left.size() < kHelpColumn) {
      out << std::string(kHelpColumn - left.size(), ' ');
    } else {
      out << "\n" << std::string(kHelpColumn, ' ');
    }
    out << spec.help << '\n';
  }
  return out.str();
}

}  // namespace linesearch
