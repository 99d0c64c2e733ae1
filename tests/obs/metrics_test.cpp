// Registry unit tests.  The Registry API is available in BOTH build
// modes (only the LS_OBS_* macros and inline helpers compile out under
// LINESEARCH_OBS=OFF), so everything here that talks to the registry
// directly runs unconditionally; only macro-mediated behaviour branches
// on obs::kEnabled.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "util/error.hpp"

namespace linesearch::obs {
namespace {

/// The registry is a process-wide singleton shared by every test in this
/// binary, so each test uses its own metric names and resets values (not
/// definitions) up front.
std::optional<MetricSnapshot> find_metric(const std::string& name) {
  for (MetricSnapshot& snap : Registry::instance().snapshot()) {
    if (snap.name == name) return std::move(snap);
  }
  return std::nullopt;
}

TEST(ObsRegistry, CounterAccumulates) {
  Registry& registry = Registry::instance();
  registry.reset();
  const MetricId id = registry.counter("test.metrics.counter");
  registry.add(id);
  registry.add(id, 41);
  const auto snap = find_metric("test.metrics.counter");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->type, MetricType::kCounter);
  EXPECT_TRUE(snap->deterministic);
  EXPECT_EQ(snap->value, 42u);
}

TEST(ObsRegistry, ReRegistrationReturnsSameId) {
  Registry& registry = Registry::instance();
  const MetricId a = registry.counter("test.metrics.rereg");
  const MetricId b = registry.counter("test.metrics.rereg");
  EXPECT_EQ(a, b);
}

TEST(ObsRegistry, ConflictingReRegistrationThrows) {
  Registry& registry = Registry::instance();
  (void)registry.counter("test.metrics.conflict");
  EXPECT_THROW((void)registry.gauge("test.metrics.conflict"), Error);
  EXPECT_THROW((void)registry.counter("test.metrics.conflict",
                                      /*deterministic=*/false),
               Error);
}

TEST(ObsRegistry, EmptyNameThrows) {
  EXPECT_THROW((void)Registry::instance().counter(""), Error);
}

TEST(ObsRegistry, GaugeMergesByMax) {
  Registry& registry = Registry::instance();
  registry.reset();
  const MetricId id = registry.gauge("test.metrics.gauge");
  registry.gauge_to(id, 7);
  registry.gauge_to(id, 3);  // lower: must not shrink the gauge
  const auto snap = find_metric("test.metrics.gauge");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->type, MetricType::kGauge);
  EXPECT_STREQ(metric_type_name(snap->type), "gauge");
  EXPECT_EQ(snap->value, 7u);
}

TEST(ObsRegistry, HistogramBucketEdges) {
  Registry& registry = Registry::instance();
  registry.reset();
  const MetricId id = registry.histogram("test.metrics.hist", {10, 20});
  registry.observe(id, 10);  // == bound 0: first bucket (inclusive)
  registry.observe(id, 11);  // bucket 1
  registry.observe(id, 20);  // == bound 1: bucket 1
  registry.observe(id, 21);  // past the last bound: overflow
  const auto snap = find_metric("test.metrics.hist");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->type, MetricType::kHistogram);
  EXPECT_EQ(snap->bounds, (std::vector<std::uint64_t>{10, 20}));
  EXPECT_EQ(snap->buckets, (std::vector<std::uint64_t>{1, 2, 1}));
  EXPECT_EQ(snap->count, 4u);
  EXPECT_EQ(snap->sum, 62u);
}

TEST(ObsRegistry, HistogramBoundsValidated) {
  Registry& registry = Registry::instance();
  EXPECT_THROW((void)registry.histogram("test.metrics.hist_empty", {}),
               Error);
  EXPECT_THROW(
      (void)registry.histogram("test.metrics.hist_unsorted", {20, 10}),
      Error);
  EXPECT_THROW(
      (void)registry.histogram("test.metrics.hist_dup", {10, 10}),
      Error);
}

TEST(ObsRegistry, SnapshotSortedByName) {
  Registry& registry = Registry::instance();
  (void)registry.counter("test.metrics.zzz");
  (void)registry.counter("test.metrics.aaa");
  const std::vector<MetricSnapshot> snaps = registry.snapshot();
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_LT(snaps[i - 1].name, snaps[i].name);
  }
}

TEST(ObsRegistry, ResetZeroesValuesKeepsDefinitions) {
  Registry& registry = Registry::instance();
  const MetricId id = registry.counter("test.metrics.reset");
  registry.add(id, 5);
  const std::size_t before = registry.size();
  registry.reset();
  EXPECT_EQ(registry.size(), before);
  const auto snap = find_metric("test.metrics.reset");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->value, 0u);
}

TEST(ObsRegistry, AddNamedRegistersOnFirstUse) {
  Registry& registry = Registry::instance();
  registry.reset();
  registry.add_named("test.metrics.named", 3);
  registry.add_named("test.metrics.named", 4);
  const auto snap = find_metric("test.metrics.named");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->value, 7u);
}

TEST(ObsRegistry, DeterministicSubsetDropsWallClockMetrics) {
  Registry& registry = Registry::instance();
  registry.reset();
  registry.add(registry.counter("test.metrics.det"), 1);
  registry.add(
      registry.counter("test.metrics.wall", /*deterministic=*/false), 1);
  const std::vector<MetricSnapshot> det =
      deterministic_subset(registry.snapshot());
  bool saw_det = false;
  for (const MetricSnapshot& snap : det) {
    EXPECT_TRUE(snap.deterministic) << snap.name;
    EXPECT_NE(snap.name, "test.metrics.wall");
    if (snap.name == "test.metrics.det") saw_det = true;
  }
  EXPECT_TRUE(saw_det);
}

TEST(ObsRegistry, SumsAcrossThreadSinks) {
  Registry& registry = Registry::instance();
  registry.reset();
  const MetricId id = registry.counter("test.metrics.threaded");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&registry, id] {
      for (int i = 0; i < 1000; ++i) registry.add(id);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const auto snap = find_metric("test.metrics.threaded");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->value, 4000u);
}

TEST(ObsMacros, CountMacroFollowsBuildMode) {
  Registry::instance().reset();
  LS_OBS_COUNT("test.metrics.macro", 2);
  LS_OBS_COUNT("test.metrics.macro", 3);
  const auto snap = find_metric("test.metrics.macro");
  if constexpr (kEnabled) {
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->value, 5u);
  } else {
    // OBS=OFF: the macro expands to ((void)0) — nothing registered.
    EXPECT_FALSE(snap.has_value());
  }
}

TEST(ObsMacros, ObserveMacroFollowsBuildMode) {
  Registry::instance().reset();
  LS_OBS_OBSERVE("test.metrics.macro_hist", 5, {4, 8});
  const auto snap = find_metric("test.metrics.macro_hist");
  if constexpr (kEnabled) {
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->buckets, (std::vector<std::uint64_t>{0, 1, 0}));
  } else {
    EXPECT_FALSE(snap.has_value());
  }
}

TEST(ObsExport, MetricsToJsonHasSchemaAndFlags) {
  Registry::instance().reset();
  const std::string json = metrics_to_json();
  EXPECT_NE(json.find("\"schema\": \"linesearch-metrics/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find(kEnabled ? "\"enabled\": true" : "\"enabled\": false"),
            std::string::npos);
}

}  // namespace
}  // namespace linesearch::obs
