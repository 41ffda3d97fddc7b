#include "workload.hpp"

#include <cmath>
#include <cstdio>

namespace clientbench {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    // The whole client path on in-process queues: session, gateway,
    // consensus, crypto and the reply quorum, all CPU-bound.
    WorkloadSpec closed;
    closed.name = "closed-threads";
    closed.runtime = Runtime::Threads;
    closed.sessions = 2;
    closed.window = 8;
    closed.get_fraction = 0.5;
    closed.value_bytes = 16;
    closed.keys = 1024;
    closed.link_delay_us = 200;
    v.push_back(closed);

    // Latency below saturation, where the depth-8 reorder and retry tail
    // and the engine's no-op slots dominate.
    WorkloadSpec open = closed;
    open.name = "open-threads";
    open.open_loop = true;
    open.rate_ops_s = 3000;
    open.window = 1u << 20;
    // The E14 open-loop setting: overload shows as latency, not as
    // failover storms, and the deadline still bounds the drain.
    open.request_timeout_us = 500'000;
    v.push_back(open);

    // The transport (framing, epoll, writev, one inbound copy), byte-
    // proportional hashing and copying, and a KV working set larger than
    // cache; no no-op churn, as the socket runtime opens slots on demand.
    WorkloadSpec tcp;
    tcp.name = "closed-tcp";
    tcp.runtime = Runtime::Tcp;
    tcp.sessions = 1;
    tcp.window = 16;
    tcp.get_fraction = 0;
    tcp.value_bytes = 1024;
    tcp.keys = 16384;
    tcp.link_delay_us = 0;
    v.push_back(tcp);

    // Shard routing and 4 groups time-sharing each replica's one delivery
    // thread: the workload for a per-group delivery loop.
    WorkloadSpec sharded = closed;
    sharded.name = "sharded-threads";
    sharded.shards = 4;
    v.push_back(sharded);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string describe(const WorkloadSpec& spec) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"runtime\": \"%s\", \"loop\": \"%s\", \"rate_ops_s\": %.0f, "
      "\"sessions\": %u, \"window\": %u, \"shards\": %u, "
      "\"get_fraction\": %.2f, \"value_bytes\": %zu, \"keys\": %u, "
      "\"link_delay_us\": %u, \"request_timeout_us\": %u, "
      "\"deadline_us\": %u, \"n\": %u, \"f\": %u, \"t\": %u, \"batch\": %u, "
      "\"depth\": %u, \"adaptive\": false}",
      spec.runtime == Runtime::Threads ? "threads" : "tcp",
      spec.open_loop ? "open" : "closed", spec.rate_ops_s, spec.sessions,
      spec.open_loop ? 0u : spec.window, spec.shards, spec.get_fraction,
      spec.value_bytes, spec.keys, spec.link_delay_us,
      spec.request_timeout_us, spec.deadline_us, kReplicas, kFaults, kFaults,
      kBatch, kDepth);
  return buf;
}

// --- Rng ---------------------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& word : s_) word = splitmix64(seed);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  // Lemire's multiply-shift; the bias at these bounds is < 2^-40.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed ^ (a * 0x9e3779b97f4a7c15ULL);
  splitmix64(state);
  state ^= b * 0xc2b2ae3d27d4eb4fULL;
  return splitmix64(state);
}

// --- Values ------------------------------------------------------------------

std::string key_name(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key-%05u", key);
  return buf;
}

std::string make_value(std::uint64_t tag, std::size_t bytes, Rng& rng) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string value(bytes < 16 ? 16 : bytes, '\0');
  for (int i = 0; i < 16; ++i) value[i] = kHex[(tag >> (60 - 4 * i)) & 0xf];
  for (std::size_t i = 16; i < value.size(); i += 8) {
    std::uint64_t r = rng.next();
    for (std::size_t j = i; j < value.size() && j < i + 8; ++j) {
      value[j] = static_cast<char>('a' + (r & 0xff) % 26);
      r >>= 8;
    }
  }
  return value;
}

std::uint64_t value_tag(std::string_view value) {
  if (value.size() < 16) return 0;
  std::uint64_t tag = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = value[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return 0;
    }
    tag = (tag << 4) | digit;
  }
  return tag;
}

std::uint64_t value_hash(std::string_view value) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : value) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Streams -----------------------------------------------------------------

SessionStream::SessionStream(const WorkloadSpec& spec, std::uint64_t seed,
                             std::uint32_t round, std::uint32_t session)
    : spec_(spec), session_(session), rng_(mix_seed(seed, round + 1, session + 1)) {}

GeneratedOp SessionStream::next() {
  GeneratedOp op;
  const std::uint32_t per_session = spec_.keys / spec_.sessions;
  op.key = static_cast<std::uint32_t>(rng_.below(per_session)) * spec_.sessions +
           session_;
  ++seq_;
  if (rng_.uniform() < spec_.get_fraction) {
    op.kind = fastbft::smr::OpKind::Get;
  } else {
    op.kind = fastbft::smr::OpKind::Put;
    op.tag = (static_cast<std::uint64_t>(session_ + 1) << 40) | seq_;
    op.value = make_value(op.tag, spec_.value_bytes, rng_);
  }
  return op;
}

ArrivalStream::ArrivalStream(double rate_ops_s, std::uint64_t seed,
                             std::uint32_t round)
    : mean_ns_(1e9 / rate_ops_s), rng_(mix_seed(seed, round + 1, 0xa77)) {}

double ArrivalStream::next_gap_ns() {
  return -std::log1p(-rng_.uniform()) * mean_ns_;
}

}  // namespace clientbench
