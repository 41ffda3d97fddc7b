#include "model.hpp"

namespace clientbench {

std::optional<CostModel> cost_model(const LayerCounts& counts,
                                    const LayerProbes& probes,
                                    double measured_cpu_us_per_op,
                                    std::uint32_t n, std::uint32_t batch) {
  if (counts.run_id.empty() || counts.run_id != probes.run_id ||
      measured_cpu_us_per_op <= 0 || batch == 0) {
    return std::nullopt;
  }
  const double replicas = n;
  const double per_command = 1.0 / batch;
  CostModel model;
  model.terms = {
      {"net.transport", counts.msgs_per_op * probes.msg_cpu_us},
      {"codec.parse", counts.msgs_per_op * probes.parse_us},
      {"crypto.digest", replicas * probes.digest_us * per_command},
      {"crypto.sign", counts.broadcasts_per_op * probes.sign_us},
      {"crypto.verify",
       counts.broadcasts_per_op * (replicas - 1) * probes.verify_miss_us},
      {"smr.reply",
       counts.replies_per_op * (probes.reply_sign_us + probes.reply_check_us)},
      {"smr.batch", (probes.batch_encode_us + replicas * probes.batch_decode_us) *
                        per_command},
      {"smr.apply", replicas * probes.apply_us},
      {"session.submit", probes.submit_us},
  };
  for (const auto& term : model.terms) model.cpu_us_per_op += term.second;
  model.coverage = model.cpu_us_per_op / measured_cpu_us_per_op;
  return model;
}

}  // namespace clientbench
