// checker.hpp — the correctness gate.
//
// A service reply is right when it is byte-equal to what the library's
// reference path answers: render_response(id, evaluate_query_direct(
// canonicalize_query(q))).  Every repeat of a key must also return the
// same bytes.  A batch_sweep result is right when it is bit-equal to the
// serial measure_cr / k_profile answer.  Every wrong answer counts as a
// failed operation, and lsbench exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/cr_eval.hpp"
#include "workloads.hpp"

namespace lsbench {

/// The reply serve_main must send for `request_line`.
[[nodiscard]] std::string expected_reply(const std::string& request_line);

/// The replies one connection received, kept for the gate.  Replies are
/// compared after their leading `{"id":N` field, which differs between
/// requests of one key.
class ReplyLog {
 public:
  /// `table_size` keys of a fixed key table; fresh keys (index -1) are
  /// sampled one in `sample_every`, at `sample_offset`.
  ReplyLog(std::size_t table_size, int sample_every, int sample_offset);

  /// Record one reply.  Returns false when it is wrong on its face: an
  /// {"ok":false} answer to a valid request, or a repeat of a key whose
  /// bytes differ from that key's first reply.
  bool record(int key, const std::string& line, const std::string& reply);

  struct Entry {
    std::string line;   ///< request line; empty when the key was never seen
    std::string reply;
  };
  [[nodiscard]] const std::vector<Entry>& first_replies() const {
    return first_;
  }
  [[nodiscard]] const std::vector<Entry>& samples() const { return samples_; }

 private:
  std::vector<Entry> first_;    ///< by key: the first reply
  std::vector<Entry> samples_;  ///< sampled fresh-key replies
  int sample_every_;
  int sample_offset_;
  long long fresh_seen_ = 0;
};

/// The gate over every connection's log: each key's first reply and each
/// sampled reply must equal expected_reply, and one key's bytes must
/// agree across connections.  Returns the number of wrong replies; the
/// reference answers run on `threads` workers.
[[nodiscard]] std::uint64_t check_replies(
    const std::vector<const ReplyLog*>& logs, int threads);

/// Every field equal (value equality, the kernels' bit-identity contract).
[[nodiscard]] bool same_result(const linesearch::CrEvalResult& a,
                               const linesearch::CrEvalResult& b);
[[nodiscard]] bool same_outputs(const BatchOutputs& a, const BatchOutputs& b);

/// The serial reference of one batch call: plain measure_cr per job and
/// k_profile, with no visit cache and no pool.
[[nodiscard]] BatchOutputs reference_outputs(const BatchInputs& inputs);

}  // namespace lsbench
