#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace lsbench {
namespace {

/// Self time of every span of one buffer, in nanoseconds.
std::vector<std::int64_t> self_times_ns(const SpanBuffer& buffer) {
  const std::vector<Span>& spans = buffer.spans();
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::size_t child : children[i]) {
      covered.emplace_back(std::max(spans[child].start_ns, spans[i].start_ns),
                           std::min(spans[child].end_ns, spans[i].end_ns));
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : covered) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) {
        covered_ns += end - from;
        reach = end;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered_ns;
  }
  return self;
}

}  // namespace

double percentile(std::vector<double> values, const double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

SpanBuffer::SpanBuffer(std::string label, const std::size_t capacity)
    : label_(std::move(label)), capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::int32_t SpanBuffer::add(const char* name, const std::int64_t start_ns,
                             const std::int64_t end_ns,
                             const std::int64_t req,
                             const std::int32_t parent) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, req});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t SpanBuffer::open(const char* name, const std::int64_t req) {
  const std::int64_t start = now_ns();
  return add(name, start, start, req);
}

void SpanBuffer::close(const std::int32_t index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanBuffer::rename(const std::int32_t index, const char* name) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
}

double median_self_us(const std::vector<const SpanBuffer*>& buffers,
                      const std::string_view name) {
  std::vector<double> self_us;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<std::int64_t> self = self_times_ns(*buffer);
    for (std::size_t i = 0; i < self.size(); ++i) {
      if (name == buffer->spans()[i].name) {
        self_us.push_back(static_cast<double>(self[i]) / 1e3);
      }
    }
  }
  return percentile(std::move(self_us), 50);
}

void write_spans_json(std::ostream& out, const std::string_view workload,
                      const std::uint64_t seed,
                      const std::vector<const SpanBuffer*>& buffers) {
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"buffers\":[";
  std::int64_t base = 0;
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    out << (b == 0 ? "" : ",") << "{\"label\":\"" << buffers[b]->label()
        << "\",\"first\":" << base
        << ",\"count\":" << buffers[b]->spans().size()
        << ",\"dropped\":" << buffers[b]->dropped() << '}';
    base += static_cast<std::int64_t>(buffers[b]->spans().size());
  }
  out << "],\"spans\":[";
  base = 0;
  bool first = true;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":"
          << (span.parent < 0 ? -1 : base + span.parent)
          << ",\"req\":" << span.req << '}';
      first = false;
    }
    base += static_cast<std::int64_t>(buffer->spans().size());
  }
  out << "\n]}\n";
}

}  // namespace lsbench
