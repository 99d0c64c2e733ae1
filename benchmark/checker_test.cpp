// The correctness gate must fail on a wrong answer: a corrupted reply, an
// {"ok":false} reply, a repeat with different bytes, or a batch result
// that differs from the serial reference.
#include <gtest/gtest.h>

#include <string>

#include "checker.hpp"
#include "workloads.hpp"

namespace lsbench {
namespace {

const std::string kRequest =
    R"({"id":7,"op":"cr","n":5,"f":2,"window_hi":256,"interior_samples":4})";

TEST(Checker, AcceptsTheReferenceReply) {
  ReplyLog log(1, 0, 0);
  EXPECT_TRUE(log.record(0, kRequest, expected_reply(kRequest)));
  EXPECT_EQ(check_replies({&log}, 1), 0u);
}

TEST(Checker, RejectsACorruptedReply) {
  std::string corrupted = expected_reply(kRequest);
  const std::size_t digit = corrupted.find_first_of("123456789", 8);
  ASSERT_NE(digit, std::string::npos);
  corrupted[digit] = corrupted[digit] == '9' ? '8' : '9';
  ReplyLog log(1, 0, 0);
  EXPECT_TRUE(log.record(0, kRequest, corrupted));  // well-formed on its face
  EXPECT_EQ(check_replies({&log}, 1), 1u);
}

TEST(Checker, RejectsAnErrorReply) {
  ReplyLog log(1, 0, 0);
  EXPECT_FALSE(log.record(0, kRequest, R"({"id":7,"ok":false,"error":"x"})"));
}

TEST(Checker, RejectsARepeatWithOtherBytes) {
  const std::string reply = expected_reply(kRequest);
  std::string other = reply;
  other.replace(other.find("\"probes\":"), 9, "\"probes\":1");
  ReplyLog log(1, 0, 0);
  EXPECT_TRUE(log.record(0, kRequest, reply));
  EXPECT_FALSE(log.record(0, kRequest, other));
}

TEST(Checker, RejectsConnectionsThatDisagree) {
  const std::string reply = expected_reply(kRequest);
  std::string other = reply;
  other.replace(other.find("\"probes\":"), 9, "\"probes\":1");
  ReplyLog first(1, 0, 0);
  ReplyLog second(1, 0, 0);
  EXPECT_TRUE(first.record(0, kRequest, reply));
  EXPECT_TRUE(second.record(0, kRequest, other));
  EXPECT_EQ(check_replies({&first, &second}, 1), 1u);
}

TEST(Checker, ChecksSampledFreshReplies) {
  std::string corrupted = expected_reply(kRequest);
  corrupted.back() = ']';
  ReplyLog log(0, 2, 1);
  EXPECT_TRUE(log.record(-1, kRequest, corrupted));  // 0: not sampled
  EXPECT_TRUE(log.record(-1, kRequest, corrupted));  // 1: sampled
  ASSERT_EQ(log.samples().size(), 1u);
  EXPECT_EQ(check_replies({&log}, 1), 1u);
}

TEST(Checker, RejectsABatchResultOffTheReference) {
  const BatchInputs inputs(1);
  const BatchOutputs reference = reference_outputs(inputs);
  BatchOutputs pooled = run_batch_call(inputs, kBatchThreads);
  EXPECT_TRUE(same_outputs(pooled, reference));
  pooled.grid[3].argmax = -pooled.grid[3].argmax;
  EXPECT_FALSE(same_outputs(pooled, reference));
}

}  // namespace
}  // namespace lsbench
