// util/cli: the shared argv parser behind fuzz_main, stats_main,
// serve_main and the other tools — both option spellings, strict numeric
// parsing, and the unknown-argument error that names the tool and lists
// every valid option.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace linesearch {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

TEST(CliParser, ParsesBothOptionSpellings) {
  std::string socket;
  int threads = 4;
  bool verbose = false;
  CliParser cli("serve_main", "test");
  cli.add_option("socket", &socket, "PATH", "socket path");
  cli.add_option("threads", &threads, "N", "workers", 1);
  cli.add_flag("verbose", &verbose, "chatty");

  const auto argv =
      argv_of({"--socket", "/tmp/x.sock", "--threads=8", "--verbose"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()))
      << cli.error();
  EXPECT_EQ(socket, "/tmp/x.sock");
  EXPECT_EQ(threads, 8);
  EXPECT_TRUE(verbose);
}

TEST(CliParser, UnknownArgumentNamesTheToolAndListsOptions) {
  std::string socket;
  CliParser cli("serve_main", "test");
  cli.add_option("socket", &socket, "PATH", "socket path");
  const auto argv = argv_of({"--sockte", "/tmp/x.sock"});
  ASSERT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(cli.error().find("serve_main"), std::string::npos)
      << cli.error();
  EXPECT_NE(cli.error().find("--sockte"), std::string::npos) << cli.error();
  EXPECT_NE(cli.error().find("--socket"), std::string::npos) << cli.error();
}

TEST(CliParser, NumericOptionsParseStrictly) {
  int threads = 4;
  CliParser cli("stats_main", "test");
  cli.add_option("threads", &threads, "N", "workers", 1);

  const auto junk = argv_of({"--threads", "8x"});
  ASSERT_FALSE(cli.parse(static_cast<int>(junk.size()), junk.data()));
  EXPECT_NE(cli.error().find("8x"), std::string::npos) << cli.error();

  CliParser below("stats_main", "test");
  below.add_option("threads", &threads, "N", "workers", 1);
  const auto zero = argv_of({"--threads", "0"});
  ASSERT_FALSE(below.parse(static_cast<int>(zero.size()), zero.data()));
}

TEST(CliParser, MissingValueIsAnError) {
  std::string socket;
  CliParser cli("serve_main", "test");
  cli.add_option("socket", &socket, "PATH", "socket path");
  const auto argv = argv_of({"--socket"});
  ASSERT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(cli.error().find("--socket"), std::string::npos) << cli.error();
}

TEST(CliParser, Uint64OptionAcceptsLargeSeeds) {
  std::uint64_t seed = 0;
  CliParser cli("fuzz_main", "test");
  cli.add_option("seed", &seed, "S", "corpus seed");
  const auto argv = argv_of({"--seed", "18446744073709551615"});
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()))
      << cli.error();
  EXPECT_EQ(seed, 18446744073709551615ULL);
}

TEST(CliParser, UsageListsEveryOption) {
  std::string socket;
  bool no_cache = false;
  CliParser cli("serve_main", "always-on CR evaluation service");
  cli.add_option("socket", &socket, "PATH", "socket path");
  cli.add_flag("no-cache", &no_cache, "disable the result LRU");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("serve_main"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--socket"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--no-cache"), std::string::npos) << usage;
}

}  // namespace
}  // namespace linesearch
