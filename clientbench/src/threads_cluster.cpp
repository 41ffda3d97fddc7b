#include <algorithm>
#include <chrono>

#include "cluster.hpp"
#include "common/bytes.hpp"
#include "smr/service.hpp"

namespace clientbench {

namespace {

using fastbft::PayloadStats;

class ThreadsCluster final : public BenchCluster {
 public:
  ThreadsCluster(const WorkloadSpec& spec, std::uint64_t key_seed) {
    auto config = fastbft::smr::ServiceConfig{}
                      .with_cluster(kReplicas, kFaults, kFaults)
                      .with_sessions(spec.sessions)
                      .with_batch(kBatch)
                      .with_pipeline_depth(kDepth)
                      .with_shards(spec.shards)
                      .with_window(spec.window)
                      .with_link_delay(std::chrono::microseconds(spec.link_delay_us))
                      .with_deadline(spec.deadline_us)
                      .with_seed(key_seed);
    if (spec.request_timeout_us != 0) {
      config.with_request_timeout(spec.request_timeout_us);
    }
    service_ = fastbft::smr::make_threaded_service(config);
    service_->start();
  }

  ~ThreadsCluster() override {
    if (!stopped_) service_->stop();
  }

  std::uint32_t sessions() const override { return service_->num_sessions(); }

  fastbft::smr::ClientSession& session(std::uint32_t index) override {
    return service_->session(index);
  }

  Counters counters() override {
    Counters c;
    c.cpu_s = process_cpu_s();
    c.envelope_allocs = PayloadStats::envelope_allocs();
    c.envelope_reuses = PayloadStats::envelope_reuses();
    c.msgs = c.envelope_allocs + c.envelope_reuses;
    c.payload_bytes = PayloadStats::alloc_bytes();
    for (std::uint32_t g = 0; g < PayloadStats::kMaxTrackedGroups; ++g) {
      c.broadcasts += PayloadStats::group_broadcasts(g);
    }
    for (fastbft::ProcessId id = 0; id < kReplicas; ++id) {
      const auto stats = service_->engine_stats(id);
      c.reorder_hw = std::max<std::uint64_t>(c.reorder_hw, stats.reorder_high_water);
      c.parked_hw = std::max<std::uint64_t>(c.parked_hw, stats.parked_high_water);
      c.clamp_stalls += stats.clamp_stalls;
    }
    for (std::uint32_t s = 0; s < sessions(); ++s) {
      const auto& session = service_->session(s);
      c.failovers += session.failovers();
      c.rejected_replies += session.rejected_replies();
      c.deadline_timeouts += session.deadline_timeouts();
    }
    return c;
  }

  /// Strict: every replica must apply every drained command (the eager
  /// no-op slots of the threaded runtime carry laggards along) and all
  /// store digests must match.
  Agreement finish(std::uint64_t commands) override {
    Agreement result;
    const bool applied =
        service_->await_applied(commands, std::chrono::milliseconds(10'000));
    for (fastbft::ProcessId id = 0; id < kReplicas; ++id) {
      if (service_->applied_commands(id) < commands) ++result.lagging;
    }
    service_->stop();
    stopped_ = true;
    if (!applied) {
      result.detail = "replicas did not all apply the drained commands";
    } else if (!service_->stores_agree()) {
      result.detail = "replica store digests differ";
    } else {
      result.agree = true;
    }
    return result;
  }

 private:
  std::unique_ptr<fastbft::smr::Service> service_;
  bool stopped_ = false;
};

}  // namespace

std::unique_ptr<BenchCluster> make_threads_cluster(const WorkloadSpec& spec,
                                                   std::uint64_t key_seed) {
  return std::make_unique<ThreadsCluster>(spec, key_seed);
}

}  // namespace clientbench
