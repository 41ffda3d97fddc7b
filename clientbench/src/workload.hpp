#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "smr/command.hpp"

/// \file workload.hpp
/// The benchmark's workloads and its seeded input generator. Every key,
/// value, op kind and open-loop arrival gap comes from the run's seed
/// through Rng; the library only ever sees the generated ops.

namespace clientbench {

/// Cluster shape shared by every workload: n = 4 (= 5f - 1 for f = 1),
/// f = t = 1, batch 8, depth 8, static knobs, adaptive control off.
inline constexpr std::uint32_t kReplicas = 4;
inline constexpr std::uint32_t kFaults = 1;
inline constexpr std::uint32_t kBatch = 8;
inline constexpr std::uint32_t kDepth = 8;

enum class Runtime { Threads, Tcp };

struct WorkloadSpec {
  std::string name;
  Runtime runtime = Runtime::Threads;
  /// Open loop: Poisson arrivals at rate_ops_s from one generator thread,
  /// round-robin over the sessions, window unbounded. Closed loop: one
  /// loader thread per session keeps `window` requests outstanding.
  bool open_loop = false;
  double rate_ops_s = 0;
  std::uint32_t sessions = 1;
  std::uint32_t window = 8;
  std::uint32_t shards = 1;
  double get_fraction = 0;
  std::size_t value_bytes = 16;
  std::uint32_t keys = 1024;
  std::uint32_t link_delay_us = 0;
  /// Per-try timeout before a session fails over; 0 = runtime default.
  std::uint32_t request_timeout_us = 0;
  /// Total per-request budget; an op still unresolved ends as Timeout.
  std::uint32_t deadline_us = 5'000'000;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

/// One-line JSON rendering of a spec's parameters (for result records).
std::string describe(const WorkloadSpec& spec);

/// splitmix64-seeded xoshiro256**: fixed algorithms, so a seed yields the
/// same stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t s_[4];
};

/// Derives an independent stream seed from the run seed and labels.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

struct GeneratedOp {
  fastbft::smr::OpKind kind = fastbft::smr::OpKind::Put;
  std::uint32_t key = 0;
  std::string value;    // puts only
  std::uint64_t tag = 0;  // puts only: unique id carried in the value
};

std::string key_name(std::uint32_t key);

/// A value of `bytes` bytes (>= 16) whose first 16 characters are `tag` in
/// hex; the rest is seeded filler.
std::string make_value(std::uint64_t tag, std::size_t bytes, Rng& rng);

/// The tag make_value embedded, or 0 for a value it did not produce.
std::uint64_t value_tag(std::string_view value);

/// FNV-1a 64 over the whole value (the checker compares full contents).
std::uint64_t value_hash(std::string_view value);

/// The op stream of one session in one round. Keys are partitioned so a
/// key is only ever used by its owning session: key % sessions == session.
class SessionStream {
 public:
  SessionStream(const WorkloadSpec& spec, std::uint64_t seed,
                std::uint32_t round, std::uint32_t session);
  GeneratedOp next();

 private:
  const WorkloadSpec& spec_;
  std::uint32_t session_;
  std::uint64_t seq_ = 0;
  Rng rng_;
};

/// Poisson inter-arrival gaps for the open loop.
class ArrivalStream {
 public:
  ArrivalStream(double rate_ops_s, std::uint64_t seed, std::uint32_t round);
  /// Next gap in nanoseconds (exponential with mean 1e9 / rate).
  double next_gap_ns();

 private:
  double mean_ns_;
  Rng rng_;
};

}  // namespace clientbench
