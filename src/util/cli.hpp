// util/cli.hpp — shared command-line parsing for the tool binaries.
//
// Every tool binary (fuzz_main, stats_main, serve_main, client_main,
// chaos_proxy, lsbench) parses its argv here, so they share one
// convention.  Both `--name value` and `--name=value` spellings are
// accepted for options, flags take no value, and an unknown argument
// produces an error that NAMES THE TOOL and lists every valid option —
// the difference between a usable CLI and a guessing game.
//
// Numeric options parse strictly (the whole token must be a number) and
// report the offending value in the error.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace linesearch {

/// Declarative argv parser.  Register flags/options, then `parse`; on
/// failure `error()` holds a tool-prefixed message and `usage()` the
/// option list.  Targets are plain pointers written during parse, so the
/// caller's option struct stays a simple aggregate.
class CliParser {
 public:
  /// `tool` names the binary in errors/usage; `summary` is the one-line
  /// description printed at the top of usage().
  CliParser(std::string tool, std::string summary);

  /// Boolean flag: present -> true.  No value accepted.
  void add_flag(const std::string& name, bool* target,
                const std::string& help);

  /// String option (`--name value` or `--name=value`).
  void add_option(const std::string& name, std::string* target,
                  const std::string& value_name, const std::string& help);

  /// Integer option; parse fails (with the bad token in the error) on
  /// non-numeric input or values below `min`.
  void add_option(const std::string& name, int* target,
                  const std::string& value_name, const std::string& help,
                  int min = 0);

  /// Unsigned 64-bit option (seeds).
  void add_option(const std::string& name, std::uint64_t* target,
                  const std::string& value_name, const std::string& help);

  /// Parse argv (argv[0] ignored).  Returns false on the first error;
  /// error() then describes it.  Targets touched before the error keep
  /// their parsed values.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// Tool-prefixed description of the parse failure (empty on success).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Multi-line usage text: summary + one line per registered option.
  [[nodiscard]] std::string usage() const;

 private:
  struct Spec {
    std::string name;        ///< including the leading "--"
    std::string value_name;  ///< empty for flags
    std::string help;
    /// Consume the value (flags receive ""); returns an error message or
    /// empty on success.
    std::function<std::string(const std::string&)> apply;
  };

  [[nodiscard]] const Spec* find(const std::string& name) const;
  [[nodiscard]] std::string known_options() const;
  bool fail(const std::string& message);

  std::string tool_;
  std::string summary_;
  std::vector<Spec> specs_;
  std::string error_;
};

}  // namespace linesearch
