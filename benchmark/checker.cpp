#include "checker.hpp"

#include <algorithm>
#include <string_view>

#include "svc/server.hpp"
#include "util/parallel.hpp"

namespace lsbench {
namespace {

/// The reply after its leading `{"id":N` field.
std::string_view reply_body(const std::string_view reply) {
  const std::size_t comma = reply.find(',');
  return comma == std::string_view::npos ? std::string_view{}
                                         : reply.substr(comma);
}

/// True when the reply reports success ("ok":true right after the id).
bool reply_ok(const std::string_view reply) {
  return reply_body(reply).rfind(",\"ok\":true", 0) == 0;
}

}  // namespace

std::string expected_reply(const std::string& request_line) {
  const linesearch::svc::WireRequest request =
      linesearch::svc::parse_request(request_line);
  return linesearch::svc::render_response(
      request.id, linesearch::svc::evaluate_query_direct(
                      linesearch::svc::canonicalize_query(request.query)));
}

ReplyLog::ReplyLog(const std::size_t table_size, const int sample_every,
                   const int sample_offset)
    : first_(table_size),
      sample_every_(sample_every),
      sample_offset_(sample_offset) {}

bool ReplyLog::record(const int key, const std::string& line,
                      const std::string& reply) {
  if (!reply_ok(reply)) return false;
  if (key < 0) {
    if (sample_every_ > 0 && fresh_seen_++ % sample_every_ == sample_offset_) {
      samples_.push_back({line, reply});
    }
    return true;
  }
  Entry& first = first_[static_cast<std::size_t>(key)];
  if (first.line.empty()) {
    first = {line, reply};
    return true;
  }
  return reply_body(reply) == reply_body(first.reply);
}

std::uint64_t check_replies(const std::vector<const ReplyLog*>& logs,
                            const int threads) {
  std::uint64_t wrong = 0;
  std::vector<const ReplyLog::Entry*> to_check;
  for (std::size_t key = 0;
       !logs.empty() && key < logs.front()->first_replies().size(); ++key) {
    const ReplyLog::Entry* first = nullptr;
    for (const ReplyLog* log : logs) {
      const ReplyLog::Entry& entry = log->first_replies()[key];
      if (entry.line.empty()) continue;
      if (first == nullptr) {
        first = &entry;
      } else if (reply_body(entry.reply) != reply_body(first->reply)) {
        ++wrong;
      }
    }
    if (first != nullptr) to_check.push_back(first);
  }
  for (const ReplyLog* log : logs) {
    for (const ReplyLog::Entry& entry : log->samples()) {
      to_check.push_back(&entry);
    }
  }
  const std::vector<char> right = linesearch::parallel_map(
      to_check.size(),
      [&to_check](const std::size_t i) -> char {
        return expected_reply(to_check[i]->line) == to_check[i]->reply;
      },
      threads);
  return wrong + static_cast<std::uint64_t>(
                     std::count(right.begin(), right.end(), char{0}));
}

bool same_result(const linesearch::CrEvalResult& a,
                 const linesearch::CrEvalResult& b) {
  return a.cr == b.cr && a.argmax == b.argmax && a.probes == b.probes &&
         a.cr_positive == b.cr_positive && a.cr_negative == b.cr_negative &&
         a.undetected_probes == b.undetected_probes;
}

bool same_outputs(const BatchOutputs& a, const BatchOutputs& b) {
  const auto same_results = [](const auto& x, const auto& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), same_result);
  };
  return same_results(a.grid, b.grid) && same_results(a.pair, b.pair) &&
         a.profile == b.profile;
}

BatchOutputs reference_outputs(const BatchInputs& inputs) {
  BatchOutputs out;
  for (const linesearch::CrBatchJob& job : inputs.grid_jobs) {
    out.grid.push_back(linesearch::measure_cr(*job.fleet, job.f, job.options));
  }
  for (const linesearch::CrBatchJob& job : inputs.pair_jobs) {
    out.pair.push_back(linesearch::measure_cr(*job.fleet, job.f, job.options));
  }
  out.profile = linesearch::k_profile(inputs.grid_fleet, 4, inputs.positions);
  return out;
}

}  // namespace lsbench
