// tools/fuzz_main — run the verify fuzzer from the command line.
//
//   fuzz_main --seed 42                 run one instance
//   fuzz_main --seed 1 --count 100      run a corpus of consecutive seeds
//   fuzz_main --seed 7 --inject cone-escape   corrupt the instance first
//   fuzz_main --kind crash-injected --count 10   only seeds of one kind
//   fuzz_main ... --json out.json       write the (shrunk) repro record
//
// --kind and --inject take their names from verify/fuzz's tables
// (kFleetKinds via kind_name, kInjections via injection_name).  --kind
// filters by generated fleet kind: seeds are scanned upward from --seed
// and only matching instances run, so --count still means "run N
// instances".  Seed->instance mapping is
// untouched — a failure found through the filter replays with the bare
// seed.
//
// Exit status 0 when every instance passes, 1 on any failure (the
// minimal repro JSON is printed to stdout), 2 on usage errors.  A
// failing run is fully reproducible from its seed: generation AND
// shrinking are deterministic, so `fuzz_main --seed S [--inject ...]`
// reconstructs the identical minimal instance.
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "util/cli.hpp"
#include "verify/fuzz.hpp"

namespace {

namespace verify = linesearch::verify;
using verify::FleetKind;
using verify::FuzzInstance;
using verify::FuzzOutcome;
using verify::Injection;

struct CliOptions {
  std::uint64_t seed = 1;
  int count = 1;
  Injection injection = Injection::kNone;
  bool shrink = true;
  std::optional<FleetKind> kind;  ///< nullopt = every kind
  std::string json_path;
};

/// Every name in a fuzz table (kFleetKinds, kInjections),
/// comma-separated, for usage and error text.
template <typename T, std::size_t N>
std::string names(const std::array<T, N>& table,
                  const char* (*name)(T) noexcept) {
  std::string out;
  for (const T value : table) {
    if (!out.empty()) out += ", ";
    out += name(value);
  }
  return out;
}

/// Usage error for a --flag value its table does not name: exit 2.
int unknown(const linesearch::CliParser& parser, const char* flag,
            const std::string& value, const std::string& valid) {
  std::cerr << "fuzz_main: unknown --" << flag << " '" << value
            << "' (valid: " << valid << ")\n"
            << parser.usage();
  return 2;
}

/// Run one seed; on failure print (and optionally shrink) the repro.
bool run_seed(const std::uint64_t seed, const CliOptions& cli) {
  FuzzInstance instance = verify::generate_instance(seed);
  instance.injection = cli.injection;
  FuzzOutcome outcome = verify::run_instance(instance);
  if (outcome.ok()) return true;

  std::cerr << "seed " << seed << " FAILED: " << outcome.primary_failure()
            << '\n'
            << outcome.describe() << '\n';
  if (cli.shrink) {
    const verify::ShrinkResult shrunk = verify::shrink_instance(instance);
    std::cerr << "shrunk in " << shrunk.accepted_moves
              << " steps (preserving '" << shrunk.failure << "')\n";
    instance = shrunk.instance;
    outcome = verify::run_instance(instance);
  }
  const std::string json = verify::instance_to_json(instance, outcome);
  std::cout << json;
  if (!cli.json_path.empty()) {
    std::ofstream out(cli.json_path);
    out << json;
  }
  return false;
}

}  // namespace

int main(const int argc, const char* const* argv) {
  CliOptions cli;
  std::string inject;
  std::string kind;
  bool no_shrink = false;
  const std::string kinds = names(verify::kFleetKinds, verify::kind_name);
  const std::string injections =
      names(verify::kInjections, verify::injection_name);
  linesearch::CliParser parser(
      "fuzz_main", "run the verify fuzzer (deterministic seeds; exit 1 "
                   "prints the minimal repro JSON)");
  parser.add_option("seed", &cli.seed, "S", "first seed (default 1)");
  parser.add_option("count", &cli.count, "N",
                    "number of instances to run (default 1)", 1);
  parser.add_option("inject", &inject, "FAULT",
                    "corrupt each instance first (" + injections + ")");
  parser.add_option("kind", &kind, "NAME",
                    "only run seeds of one fleet kind (" + kinds + ")");
  parser.add_flag("no-shrink", &no_shrink,
                  "print the raw failing instance without shrinking");
  parser.add_option("json", &cli.json_path, "PATH",
                    "also write the repro record here");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n' << parser.usage();
    return 2;
  }
  cli.shrink = !no_shrink;
  if (!inject.empty()) {
    const std::optional<Injection> injection =
        verify::injection_from_name(inject);
    if (!injection) return unknown(parser, "inject", inject, injections);
    cli.injection = *injection;
  }
  if (!kind.empty()) {
    cli.kind = verify::kind_from_name(kind);
    if (!cli.kind) return unknown(parser, "kind", kind, kinds);
  }

  int failures = 0;
  int ran = 0;
  for (std::uint64_t seed = cli.seed; ran < cli.count; ++seed) {
    if (cli.kind && verify::generate_instance(seed).kind != *cli.kind) {
      continue;
    }
    ++ran;
    if (!run_seed(seed, cli)) ++failures;
  }
  if (cli.count > 1) {
    std::cerr << (cli.count - failures) << "/" << cli.count
              << " seeds passed\n";
  }
  return failures == 0 ? 0 : 1;
}
