#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

/// \file model.hpp
/// CPU cost model: model.cpu_us_per_op = Σ (calls per op × busy µs per
/// call) over the layers the probes time, and model.coverage = model ÷
/// the measured cpu_us_per_op. Counts and probes carry the id of the run
/// that produced them; the model refuses to mix runs.

namespace clientbench {

/// Per-op counts, from the public counters of one run.
struct LayerCounts {
  std::string run_id;
  double msgs_per_op = 0;        // messages delivered
  double broadcasts_per_op = 0;  // SMR_WRAPPED broadcasts, all groups
  double replies_per_op = 0;     // signed replies received by sessions
};

/// Busy µs per call, from timing direct calls on the run's own inputs.
struct LayerProbes {
  std::string run_id;
  double msg_cpu_us = 0;      // transport CPU per message (send + deliver)
  double parse_us = 0;        // one request payload through the frame codec
  double digest_us = 0;       // hash of one slot's encoded batch
  double sign_us = 0;         // one MAC over a digest
  double verify_miss_us = 0;
  double reply_sign_us = 0;
  double reply_check_us = 0;
  double batch_encode_us = 0;
  double batch_decode_us = 0;
  double apply_us = 0;
  double submit_us = 0;
};

struct CostModel {
  double cpu_us_per_op = 0;
  double coverage = 0;
  /// (layer, µs per op) in model order.
  std::vector<std::pair<std::string, double>> terms;
};

/// The model for a cluster of n replicas whose batch probes timed
/// `batch`-command batches. Structural multipliers, where no counter
/// exists: each broadcast is signed once and verified by the n - 1 other
/// replicas; hashing and batch coding cost in proportion to the commands
/// they carry, so per op every replica hashes and decodes 1/batch of a
/// probed batch and the leader encodes 1/batch of one; all n replicas
/// apply each op; each reply is signed once and checked once. nullopt if
/// counts and probes come from different runs, or the measured cost is
/// not positive.
std::optional<CostModel> cost_model(const LayerCounts& counts,
                                    const LayerProbes& probes,
                                    double measured_cpu_us_per_op,
                                    std::uint32_t n, std::uint32_t batch);

}  // namespace clientbench
