// Tests of the benchmark harness itself: the seeded generator, the order
// statistics, the output checker and the cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "checker.hpp"
#include "model.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace clientbench {
namespace {

using fastbft::smr::OpKind;

std::vector<GeneratedOp> draw(const WorkloadSpec& spec, std::uint64_t seed,
                              std::uint32_t session, int count) {
  SessionStream stream(spec, seed, 0, session);
  std::vector<GeneratedOp> ops;
  for (int i = 0; i < count; ++i) ops.push_back(stream.next());
  return ops;
}

bool same(const std::vector<GeneratedOp>& a, const std::vector<GeneratedOp>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].key != b[i].key ||
        a[i].value != b[i].value || a[i].tag != b[i].tag) {
      return false;
    }
  }
  return true;
}

TEST(Generator, SameSeedSameOps) {
  for (const auto& spec : workloads()) {
    EXPECT_TRUE(same(draw(spec, 7, 0, 500), draw(spec, 7, 0, 500))) << spec.name;
    EXPECT_FALSE(same(draw(spec, 7, 0, 500), draw(spec, 8, 0, 500))) << spec.name;
  }
  ArrivalStream a(3000, 7, 0), b(3000, 7, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_gap_ns(), b.next_gap_ns());
}

TEST(Generator, KeysBelongToOneSessionAndValuesCarryTags) {
  const WorkloadSpec& spec = *find_workload("closed-threads");
  for (std::uint32_t s = 0; s < spec.sessions; ++s) {
    for (const auto& op : draw(spec, 3, s, 2000)) {
      EXPECT_EQ(op.key % spec.sessions, s);
      EXPECT_LT(op.key, spec.keys);
      if (op.kind == OpKind::Put) {
        EXPECT_EQ(op.value.size(), spec.value_bytes);
        EXPECT_EQ(value_tag(op.value), op.tag);
      }
    }
  }
  const WorkloadSpec& tcp = *find_workload("closed-tcp");
  for (const auto& op : draw(tcp, 3, 0, 200)) {
    EXPECT_EQ(op.kind, OpKind::Put);
    EXPECT_EQ(op.value.size(), 1024u);
  }
}

TEST(Generator, MixAndArrivalRateMatchTheSpec) {
  const WorkloadSpec& spec = *find_workload("closed-threads");
  int gets = 0;
  for (const auto& op : draw(spec, 11, 1, 100000)) gets += op.kind == OpKind::Get;
  EXPECT_LT(std::abs(gets - 50000), 1000);  // error < 2%
  ArrivalStream arrivals(3000, 11, 0);
  double total_ns = 0;
  for (int i = 0; i < 100000; ++i) total_ns += arrivals.next_gap_ns();
  const double mean_us = total_ns / 100000 / 1000;
  EXPECT_LT(std::abs(mean_us - 333.33), 10.0);  // error < 3%
}

TEST(Stats, NearestRankQuantiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(median({3, 1, 2, 4}), 2.5);
}

TEST(Stats, HighestSupportedQuantileNeedsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_quantile(19), 0.0);
  EXPECT_EQ(highest_supported_quantile(20), 0.5);
  EXPECT_EQ(highest_supported_quantile(100), 0.9);
  EXPECT_EQ(highest_supported_quantile(999), 0.9);
  EXPECT_EQ(highest_supported_quantile(1000), 0.99);
  EXPECT_EQ(highest_supported_quantile(100000), 0.9999);

  const LatencySummary small = summarize(std::vector<double>(500, 1.0));
  EXPECT_EQ(small.count, 500u);
  EXPECT_FALSE(small.p99_supported);
}

TEST(Stats, SummaryOfExponentialSamplesWithinTolerance) {
  // Exponential with mean 100: p50 = 100 ln 2, p99 = 100 ln 100.
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) samples.push_back(-std::log1p(-rng.uniform()) * 100);
  const LatencySummary s = summarize(samples);
  EXPECT_EQ(s.count, 100000u);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_LT(std::abs(s.p50 - 69.31), 2.0);   // error < 3%
  EXPECT_LT(std::abs(s.p99 - 460.5), 25.0);  // error < 6%
  EXPECT_EQ(s.top_q, 0.9999);
}

OpRecord put(std::uint32_t key, std::uint64_t tag, std::int64_t issue,
             std::int64_t complete) {
  OpRecord r;
  r.key = key;
  r.kind = OpKind::Put;
  r.tag = tag;
  r.value_hash = tag * 31;
  r.issue_ns = issue;
  r.complete_ns = complete;
  r.ok = true;
  r.reply_op = OpKind::Put;
  return r;
}

OpRecord get(std::uint32_t key, std::int64_t issue, std::int64_t complete,
             std::uint64_t got_tag) {
  OpRecord r;
  r.key = key;
  r.kind = OpKind::Get;
  r.issue_ns = issue;
  r.complete_ns = complete;
  r.ok = true;
  r.reply_op = OpKind::Get;
  r.found = got_tag != 0;
  r.got_tag = got_tag;
  r.got_hash = got_tag * 31;
  return r;
}

TEST(Checker, AcceptsAValidHistory) {
  std::vector<std::deque<OpRecord>> h(1);
  h[0] = {get(1, 0, 5, 0),         // absent: nothing put yet
          put(1, 10, 6, 20),
          get(1, 15, 25, 10),      // concurrent with the put: either is fine
          put(1, 11, 30, 40),
          get(1, 35, 45, 11),      // concurrent with put 11
          get(1, 50, 60, 11)};
  const CheckResult r = check_history(h);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.checked, 6u);
  EXPECT_EQ(r.failed(), 0u);
}

TEST(Checker, CatchesAPlantedStaleRead) {
  std::vector<std::deque<OpRecord>> h(1);
  h[0] = {put(1, 10, 0, 10), put(1, 11, 20, 30),
          get(1, 40, 50, 10)};  // put 11 completed before the get began
  EXPECT_EQ(check_history(h).violations, 1u);
}

TEST(Checker, CatchesAbsentAfterPutForeignValueAndTwoOwners) {
  std::vector<std::deque<OpRecord>> absent(1);
  absent[0] = {put(2, 10, 0, 10), get(2, 20, 30, 0)};
  EXPECT_EQ(check_history(absent).violations, 1u);

  std::vector<std::deque<OpRecord>> foreign(1);
  foreign[0] = {put(2, 10, 0, 10), put(3, 12, 0, 10), get(2, 20, 30, 12)};
  EXPECT_EQ(check_history(foreign).violations, 1u);

  std::vector<std::deque<OpRecord>> corrupt(1);
  OpRecord bad = get(2, 20, 30, 10);
  bad.got_hash = 1;  // right tag, wrong contents
  corrupt[0] = {put(2, 10, 0, 10), bad};
  EXPECT_EQ(check_history(corrupt).violations, 1u);

  std::vector<std::deque<OpRecord>> owners(2);
  owners[0] = {put(4, 10, 0, 10)};
  owners[1] = {put(4, 11, 20, 30)};
  owners[1][0].session = 1;
  EXPECT_EQ(check_history(owners).violations, 1u);
}

TEST(Checker, CountsTimeoutsAndUndrainedOps) {
  std::vector<std::deque<OpRecord>> h(1);
  OpRecord timed_out = put(5, 10, 0, 10);
  timed_out.timed_out = true;
  OpRecord pending = put(5, 11, 20, -1);
  h[0] = {timed_out, pending};
  const CheckResult r = check_history(h);
  EXPECT_EQ(r.timeouts, 1u);
  EXPECT_EQ(r.undrained, 1u);
  EXPECT_EQ(r.failed(), 2u);
}

TEST(Model, CoverageComesFromTheCountsAndProbesOfOneRun) {
  LayerCounts counts{"run-a", 40, 10, 4};
  LayerProbes probes{"run-a", 1, 0.5, 1.5, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto model = cost_model(counts, probes, 500, 4, 2);
  ASSERT_TRUE(model.has_value());
  // transport 40*1, parse 40*0.5, digest 4*1.5/2, sign 10*2,
  // verify 10*3*3, reply 4*(4+5), batch (6+4*7)/2, apply 4*8, submit 9.
  const double expected = 40 + 20 + 3 + 20 + 90 + 36 + 17 + 32 + 9;
  EXPECT_DOUBLE_EQ(model->cpu_us_per_op, expected);
  EXPECT_DOUBLE_EQ(model->coverage, expected / 500);

  probes.run_id = "run-b";
  EXPECT_FALSE(cost_model(counts, probes, 500, 4, 2).has_value());
  probes.run_id = "run-a";
  EXPECT_FALSE(cost_model(counts, probes, 0, 4, 2).has_value());
}

}  // namespace
}  // namespace clientbench
