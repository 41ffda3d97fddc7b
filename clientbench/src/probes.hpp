#pragma once

#include <cstdint>

#include "spans.hpp"
#include "workload.hpp"

/// \file probes.hpp
/// Layer probes: busy time per call of each layer's public functions, fed
/// inputs generated from the run's own workload and seed. Each call is
/// timed on its own and recorded as a span; a probe reports the median.

namespace clientbench {

struct ProbeResult {
  double digest_us = 0;        // crypto::message_digest of one encoded batch
  double sign_us = 0;          // Signer::sign_digest over that digest
  double verify_miss_us = 0;   // Verifier::verify_digest_memo, cold cache
  double verify_hit_us = 0;    // the same calls again, warm cache
  double reply_sign_us = 0;    // encode_reply_payload
  double reply_check_us = 0;   // decode_reply_payload
  double batch_encode_us = 0;  // encode_batch of kBatch commands
  double batch_decode_us = 0;  // decode_batch
  double parse_us = 0;         // one framed SMR_REQUEST: frame codec + decode
  double apply_us = 0;         // KvStore::apply on the workload's key set
  double hop_us = 0;           // one send -> deliver hop, half a ping-pong
  double msg_cpu_us = 0;       // process CPU per message of a send burst
};

ProbeResult run_probes(const WorkloadSpec& spec, std::uint64_t seed,
                       SpanLog* spans);

}  // namespace clientbench
