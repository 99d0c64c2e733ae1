// obs/export.hpp — structured JSON export of the metric registry.
//
// One canonical serialization, shared by the tools/stats_main CLI and
// the golden-counter regression fixtures: metrics sorted by name, each
// as one object.
// Counters/gauges carry "value"; histograms add "count", "sum", "bounds"
// and "buckets" (last bucket = overflow).  Every entry carries its
// "type" and "deterministic" flag so consumers (and the determinism
// tests) can filter wall-clock counters without knowing the catalogue.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/jsonio.hpp"

namespace linesearch::obs {

/// Emit `snapshots` as a JSON array (the writer must be positioned where
/// a value is expected — typically right after a key).
void write_metrics_array(JsonWriter& json,
                         const std::vector<MetricSnapshot>& snapshots);

/// Emit the registry's current snapshot (all metrics, or only the
/// deterministic ones) as a JSON array.
void write_metrics_array(JsonWriter& json, bool deterministic_only = false);

/// Standalone JSON document: {"schema": "linesearch-metrics/1",
/// "enabled": ..., "metrics": [...]}.
[[nodiscard]] std::string metrics_to_json(bool deterministic_only = false);

/// The deterministic subset of a snapshot (drops span nanos etc.) —
/// exactly what must be bit-identical across thread counts.
[[nodiscard]] std::vector<MetricSnapshot> deterministic_subset(
    std::vector<MetricSnapshot> snapshots);

}  // namespace linesearch::obs
