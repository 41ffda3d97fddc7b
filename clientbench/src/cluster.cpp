#include "cluster.hpp"

#include <algorithm>
#include <ctime>

namespace clientbench {

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Counters delta(const Counters& later, const Counters& earlier) {
  Counters d = later;
  d.cpu_s -= earlier.cpu_s;
  d.msgs -= earlier.msgs;
  d.envelope_allocs -= earlier.envelope_allocs;
  d.envelope_reuses -= earlier.envelope_reuses;
  d.payload_bytes -= earlier.payload_bytes;
  d.broadcasts -= earlier.broadcasts;
  d.writev_calls -= earlier.writev_calls;
  d.writev_frames -= earlier.writev_frames;
  d.delivery_allocs -= earlier.delivery_allocs;
  d.delivery_reuses -= earlier.delivery_reuses;
  d.clamp_stalls -= earlier.clamp_stalls;
  d.failovers -= earlier.failovers;
  d.rejected_replies -= earlier.rejected_replies;
  d.deadline_timeouts -= earlier.deadline_timeouts;
  return d;
}

Counters& operator+=(Counters& sum, const Counters& d) {
  sum.cpu_s += d.cpu_s;
  sum.msgs += d.msgs;
  sum.envelope_allocs += d.envelope_allocs;
  sum.envelope_reuses += d.envelope_reuses;
  sum.payload_bytes += d.payload_bytes;
  sum.broadcasts += d.broadcasts;
  sum.writev_calls += d.writev_calls;
  sum.writev_frames += d.writev_frames;
  sum.delivery_allocs += d.delivery_allocs;
  sum.delivery_reuses += d.delivery_reuses;
  sum.reorder_hw = std::max(sum.reorder_hw, d.reorder_hw);
  sum.parked_hw = std::max(sum.parked_hw, d.parked_hw);
  sum.clamp_stalls += d.clamp_stalls;
  sum.failovers += d.failovers;
  sum.rejected_replies += d.rejected_replies;
  sum.deadline_timeouts += d.deadline_timeouts;
  return sum;
}

}  // namespace clientbench
