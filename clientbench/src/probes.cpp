#include "probes.hpp"

#include <unistd.h>

#include <future>
#include <stdexcept>

#include "cluster.hpp"
#include "crypto/signer.hpp"
#include "net/frame.hpp"
#include "net/socket_network.hpp"
#include "net/threaded_network.hpp"
#include "smr/batch.hpp"
#include "smr/kvstore.hpp"
#include "smr/reply.hpp"
#include "smr/smr_node.hpp"
#include "stats.hpp"

namespace clientbench {

namespace {

using namespace fastbft;

constexpr std::size_t kCalls = 2000;
constexpr int kPings = 2000;
constexpr int kWarmPings = 100;
constexpr int kBurst = 20000;
constexpr std::uint32_t kProbeRound = 1u << 20;  // a round no run reaches
const std::string kDomain = "probe-ack";

/// Times fn(i) for i in [0, calls), one span per call; median µs.
template <class Fn>
double time_calls(const char* name, std::size_t calls, SpanLog* spans, Fn&& fn) {
  std::vector<double> us;
  us.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    const std::int64_t t1 = now_ns();
    us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (spans) spans->record({spans->next_id(), 0, 0, name, t0, t1});
  }
  return median(std::move(us));
}

std::vector<smr::Command> generate_commands(const WorkloadSpec& spec,
                                            std::uint64_t seed,
                                            std::size_t count) {
  std::vector<SessionStream> streams;
  for (std::uint32_t s = 0; s < spec.sessions; ++s) {
    streams.emplace_back(spec, seed, kProbeRound, s);
  }
  std::vector<smr::Command> commands;
  commands.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<std::uint32_t>(i % spec.sessions);
    GeneratedOp op = streams[s].next();
    smr::Command cmd = op.kind == smr::OpKind::Get
                           ? smr::Command::get(key_name(op.key))
                           : smr::Command::put(key_name(op.key), std::move(op.value));
    cmd.client_id = kReplicas + s;
    cmd.sequence = i / spec.sessions + 1;
    commands.push_back(std::move(cmd));
  }
  return commands;
}

/// The two-endpoint transport under test: ids 0 and 1 on the workload's
/// runtime. Threads: one ThreadedNetwork. TCP: two SocketNetworks, one id
/// each — sends between ids of one SocketNetwork skip the socket.
class ThreadsPair {
 public:
  void attach(ProcessId id, net::ReceiveHandler handler) { net_.attach(id, std::move(handler)); }
  void start() { net_.start(); }
  void stop() { net_.stop(); }
  void send(ProcessId from, ProcessId to, const SharedBytes& payload) {
    net_.send(from, to, payload);
  }
  void post0(std::function<void()> fn) { net_.post(0, std::move(fn)); }

 private:
  net::ThreadedNetwork net_{2};
};

class TcpPair {
 public:
  TcpPair() {
    net::SocketNetworkConfig base;
    base.cluster_size = 2;
    base.peers.resize(2);
    fds_[0] = bind_loopback_listener(base.peers[0].port);
    fds_[1] = bind_loopback_listener(base.peers[1].port);
    for (int id = 0; id < 2; ++id) {
      auto config = base;
      config.peers[id].adopted_listen_fd = fds_[id];
      sides_[id] = std::make_unique<net::SocketNetwork>(config);
    }
  }
  ~TcpPair() {
    stop();
    for (int fd : fds_) ::close(fd);
  }
  TcpPair(const TcpPair&) = delete;
  TcpPair& operator=(const TcpPair&) = delete;

  void attach(ProcessId id, net::ReceiveHandler handler) {
    sides_[id]->attach(id, std::move(handler));
  }
  void start() {
    sides_[1]->start();
    sides_[0]->start();
  }
  void stop() {
    sides_[0]->stop();
    sides_[1]->stop();
  }
  void send(ProcessId from, ProcessId to, const SharedBytes& payload) {
    sides_[from]->send(from, to, payload);
  }
  void post0(std::function<void()> fn) { sides_[0]->post(0, std::move(fn)); }

 private:
  int fds_[2] = {-1, -1};
  std::unique_ptr<net::SocketNetwork> sides_[2];
};

void wait_for(std::promise<void>& done, const char* what) {
  if (done.get_future().wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
    throw std::runtime_error(std::string("transport probe: ") + what + " did not finish");
  }
}

/// Two phases on one pair. Ping-pong 0 -> 1 -> 0 (kWarmPings + kPings
/// round trips, one span each): hop_us is half the median round trip.
/// Then a burst of kBurst back-to-back sends 0 -> 1: msg_cpu_us is the
/// process CPU per message, as the transport pays it under load.
template <class Pair>
void measure_transport(Pair& pair, const Bytes& request, SpanLog* spans,
                       ProbeResult& out) {
  const SharedBytes payload(request);
  std::atomic<bool> bursting{false};
  int pongs = 0, received = 0;
  std::int64_t sent_at = 0;
  std::vector<double> rtt_us;
  std::promise<void> pinged, burst;

  pair.attach(1, [&](ProcessId, const Bytes&) {
    if (!bursting.load()) {
      pair.send(1, 0, payload);
    } else if (++received == kBurst) {
      burst.set_value();
    }
  });
  pair.attach(0, [&](ProcessId, const Bytes&) {
    const std::int64_t now = now_ns();
    if (spans) spans->record({spans->next_id(), 0, 0, "probe.net.round_trip", sent_at, now});
    if (++pongs > kWarmPings) rtt_us.push_back(static_cast<double>(now - sent_at) * 1e-3);
    if (pongs == kWarmPings + kPings) {
      pinged.set_value();
      return;
    }
    sent_at = now_ns();
    pair.send(0, 1, payload);
  });
  pair.start();
  pair.post0([&] {
    sent_at = now_ns();
    pair.send(0, 1, payload);
  });
  wait_for(pinged, "ping-pong");
  out.hop_us = median(rtt_us) / 2;

  bursting.store(true);
  const double cpu_before = process_cpu_s();
  pair.post0([&] {
    for (int i = 0; i < kBurst; ++i) pair.send(0, 1, payload);
  });
  wait_for(burst, "burst");
  out.msg_cpu_us = (process_cpu_s() - cpu_before) * 1e6 / kBurst;
  pair.stop();
}

}  // namespace

ProbeResult run_probes(const WorkloadSpec& spec, std::uint64_t seed,
                       SpanLog* spans) {
  ProbeResult out;
  auto keys = std::make_shared<const crypto::KeyStore>(seed, kReplicas + spec.sessions);
  const crypto::Signer signer(keys, 0);
  const crypto::Verifier plain(keys);

  const auto commands = generate_commands(spec, seed, kCalls * kBatch);
  std::vector<std::vector<smr::Command>> batches(kCalls);
  for (std::size_t i = 0; i < commands.size(); ++i) {
    batches[i / kBatch].push_back(commands[i]);
  }

  std::vector<Value> values(kCalls);
  out.batch_encode_us = time_calls("probe.smr.batch_encode", kCalls, spans,
                                   [&](std::size_t i) { values[i] = smr::encode_batch(batches[i]); });
  std::size_t decoded = 0;
  out.batch_decode_us = time_calls("probe.smr.batch_decode", kCalls, spans, [&](std::size_t i) {
    auto batch = smr::decode_batch(values[i]);
    decoded += batch ? batch->size() : 0;
  });
  if (decoded != commands.size()) throw std::runtime_error("batch probe: decode mismatch");

  // Hash-then-MAC: a slot's value is hashed once, each signature is a
  // short MAC over that digest.
  std::vector<crypto::Digest> digests(kCalls);
  out.digest_us = time_calls("probe.crypto.digest", kCalls, spans, [&](std::size_t i) {
    digests[i] = crypto::message_digest(ByteView(values[i].bytes()));
  });
  std::vector<crypto::Signature> signatures(kCalls);
  out.sign_us = time_calls("probe.crypto.sign", kCalls, spans, [&](std::size_t i) {
    signatures[i] = signer.sign_digest(kDomain, digests[i]);
  });
  const crypto::Verifier cached(keys, std::make_shared<crypto::VerificationCache>(2 * kCalls));
  std::size_t valid = 0;
  auto verify = [&](std::size_t i) {
    valid += cached.verify_digest_memo(0, kDomain, digests[i], signatures[i]) ? 1 : 0;
  };
  out.verify_miss_us = time_calls("probe.crypto.verify_miss", kCalls, spans, verify);
  out.verify_hit_us = time_calls("probe.crypto.verify_hit", kCalls, spans, verify);
  if (valid != 2 * kCalls) throw std::runtime_error("verify probe: a signature failed");

  // The store holds the workload's whole key set, so apply walks a
  // working set of the workload's size.
  smr::KvStore store;
  {
    Rng fill(mix_seed(seed, kProbeRound, 1));
    for (std::uint32_t k = 0; k < spec.keys; ++k) {
      store.apply(smr::Command::put(key_name(k), make_value(k, spec.value_bytes, fill)));
    }
  }
  std::vector<smr::ExecResult> results(kCalls);
  out.apply_us = time_calls("probe.smr.apply", kCalls, spans,
                            [&](std::size_t i) { results[i] = store.apply(commands[i]); });

  std::vector<Bytes> replies(kCalls);
  out.reply_sign_us = time_calls("probe.smr.reply_sign", kCalls, spans, [&](std::size_t i) {
    smr::Reply reply{commands[i].client_id, commands[i].sequence, i + 1,
                     commands[i].kind, results[i]};
    replies[i] = smr::encode_reply_payload(reply, signer);
  });
  std::size_t accepted = 0;
  out.reply_check_us = time_calls("probe.smr.reply_check", kCalls, spans, [&](std::size_t i) {
    accepted += smr::decode_reply_payload(ByteView(replies[i]), 0, plain) ? 1 : 0;
  });
  if (accepted != kCalls) throw std::runtime_error("reply probe: a reply failed its check");

  const net::FrameWriter writer;
  std::vector<Bytes> frames(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    frames[i] = *writer.frame(ByteView(smr::SmrNode::encode_request(commands[i])));
  }
  net::FrameReader reader;
  std::size_t parsed = 0;
  out.parse_us = time_calls("probe.codec.parse", kCalls, spans, [&](std::size_t i) {
    reader.feed(ByteView(frames[i]));
    auto payload = reader.next();
    if (!payload) return;
    Decoder dec(*payload);
    dec.u8();
    Bytes raw = dec.bytes();
    parsed += smr::Command::from_value(Value(std::move(raw))) ? 1 : 0;
  });
  if (parsed != kCalls) throw std::runtime_error("parse probe: a frame failed to parse");

  const Bytes request = smr::SmrNode::encode_request(commands.front());
  if (spec.runtime == Runtime::Threads) {
    ThreadsPair pair;
    measure_transport(pair, request, spans, out);
  } else {
    TcpPair pair;
    measure_transport(pair, request, spans, out);
  }
  return out;
}

}  // namespace clientbench
