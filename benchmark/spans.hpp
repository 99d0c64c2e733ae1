// spans.hpp — the benchmark's own trace: spans recorded around calls into
// each layer's public functions, from outside the library.
//
// A span is {name, start, end, parent, req}.  Each recording thread owns
// one SpanBuffer whose storage is reserved up front, so recording never
// allocates; the buffers are written out as one JSON file when the run
// ends.  A layer's self time is its span's duration minus the part of
// that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace lsbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds (the span time base).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile, p in [0, 100]; NaN for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same buffer; -1 = root
  std::int64_t req = 0;      ///< request (or sample) the span belongs to
};

/// Fixed-capacity span store for one thread.  Spans past the capacity
/// are dropped and counted, never reallocated.
class SpanBuffer {
 public:
  SpanBuffer(std::string label, std::size_t capacity);

  /// Record a finished span; returns its index, or -1 when full.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t req,
                   std::int32_t parent = -1);

  /// Open a parent span now (its end is set by close); -1 when full.
  std::int32_t open(const char* name, std::int64_t req);
  void close(std::int32_t index);
  void rename(std::int32_t index, const char* name);

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  std::string label_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Median self time in microseconds of the spans named `name` across the
/// buffers; NaN when there is none.
[[nodiscard]] double median_self_us(
    const std::vector<const SpanBuffer*>& buffers, std::string_view name);

/// Write every span as JSON: {"workload", "seed", "buffers": [{"label",
/// "first", "count", "dropped"}, ...], "spans": [{"name", "start_ns",
/// "end_ns", "parent", "req"}, ...]}.  Parents are indices into the
/// written "spans" array; buffer b owns spans [first, first + count).
void write_spans_json(std::ostream& out, std::string_view workload,
                      std::uint64_t seed,
                      const std::vector<const SpanBuffer*>& buffers);

}  // namespace lsbench
