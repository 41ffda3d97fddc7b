#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker.hpp"
#include "cluster.hpp"
#include "spans.hpp"
#include "workload.hpp"

/// \file round.hpp
/// One round = one fresh cluster: build it, time the first completed
/// reply (set-up), drive the workload's load for the round's share of the
/// measured seconds, drain, check every output, tear down.

namespace clientbench {

struct RoundResult {
  double setup_s = 0;
  double window_s = 0;
  std::uint64_t attempted = 0;            // every op issued, set-up op too
  std::uint64_t completed_in_window = 0;  // completions inside the window
  std::vector<double> latency_us;  // ops issued in the window, completed Ok
  std::vector<double> late_us;     // open loop: how late each send ran
  std::vector<double> submit_us;   // traced only: time inside put/get
  Counters window;                 // counter deltas over the window
  CheckResult check;
  Agreement replicas;

  std::uint64_t failed() const { return check.failed() + (replicas.agree ? 0 : 1); }
};

/// Runs one round. With `spans` set, every request gets an `op` span and
/// a `session.submit` child span. Without `load`, the window after set-up
/// passes with no client ops (the idle cost of the cluster).
RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      std::uint32_t round, double seconds, SpanLog* spans,
                      bool load = true);

}  // namespace clientbench
