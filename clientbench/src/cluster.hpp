#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "smr/session.hpp"
#include "workload.hpp"

/// \file cluster.hpp
/// One benchmark cluster behind the two runtimes the benchmark drives:
/// smr::make_threaded_service (threads, in-process queues) and forked
/// runtime::SocketSmrServer replicas with an in-process SocketSmrClient
/// (loopback TCP). The harness reaches the library only through its
/// public API; this seam gives both runtimes one shape for the load loop.

namespace clientbench {

/// A snapshot of every public counter the benchmark reads, summed over
/// all processes of the system. Event counts are cumulative since the
/// cluster was built; *_hw fields are high-water marks.
struct Counters {
  double cpu_s = 0;                // CPU of every process of the system
  std::uint64_t msgs = 0;          // messages handed to the transport
  std::uint64_t envelope_allocs = 0;   // threads: inbox nodes allocated
  std::uint64_t envelope_reuses = 0;   // threads: inbox nodes recycled
  std::uint64_t payload_bytes = 0;     // threads: bytes materialized; tcp: bytes_out
  std::uint64_t broadcasts = 0;        // PayloadStats::group_broadcasts, all groups
  std::uint64_t writev_calls = 0;      // tcp only
  std::uint64_t writev_frames = 0;     // tcp only
  std::uint64_t delivery_allocs = 0;   // tcp only
  std::uint64_t delivery_reuses = 0;   // tcp only
  std::uint64_t reorder_hw = 0;        // max over replicas
  std::uint64_t parked_hw = 0;         // max over replicas
  std::uint64_t clamp_stalls = 0;      // summed over replicas
  std::uint64_t failovers = 0;         // summed over sessions
  std::uint64_t rejected_replies = 0;  // summed over sessions
  std::uint64_t deadline_timeouts = 0; // summed over sessions
};

/// `later - earlier` for event counts; high-water marks keep `later`'s.
Counters delta(const Counters& later, const Counters& earlier);

/// Adds the event counts of `d` into `sum`; high-water marks take the max.
Counters& operator+=(Counters& sum, const Counters& d);

struct Agreement {
  bool agree = false;
  /// Replicas that had not applied every drained command when the
  /// cluster was shut down.
  std::uint32_t lagging = 0;
  std::string detail;  // why not, when !agree; the counts, when lagging
};

class BenchCluster {
 public:
  virtual ~BenchCluster() = default;

  virtual std::uint32_t sessions() const = 0;
  virtual fastbft::smr::ClientSession& session(std::uint32_t index) = 0;

  /// Reads every counter (replica children answer over their pipes).
  virtual Counters counters() = 0;

  /// After the client drain: waits for the replicas to apply the
  /// `commands` drained commands, shuts the cluster down (no reply
  /// callback runs after this returns), and checks that they agree.
  virtual Agreement finish(std::uint64_t commands) = 0;
};

/// Builds and starts a cluster for `spec`; key material from `key_seed`.
std::unique_ptr<BenchCluster> make_threads_cluster(const WorkloadSpec& spec,
                                                   std::uint64_t key_seed);
std::unique_ptr<BenchCluster> make_tcp_cluster(const WorkloadSpec& spec,
                                               std::uint64_t key_seed);

/// CPU seconds consumed so far by this process (all threads).
double process_cpu_s();

/// A non-blocking listening socket on 127.0.0.1 at a kernel-chosen port,
/// which it stores in `port`. Throws on failure.
int bind_loopback_listener(std::uint16_t& port);

}  // namespace clientbench
