// Forked-replica cluster over loopback TCP. The parent pre-binds port-0
// listeners and forks one SocketSmrServer per replica (the fork must
// happen while the parent runs no other thread). Each child then serves a
// tiny control protocol on a pipe pair so the parent can read the
// child's own counters mid-run and at exit:
//   'S'             -> one ChildReport (snapshot)
//   'F' + u64 count -> wait until applied_commands() >= count (at most
//                      kCatchUp), then one final ChildReport, stop, _exit
//   EOF             -> stop and _exit (the parent went away)
// The parent reads each child's CPU from /proc/<pid>/stat.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster.hpp"
#include "common/bytes.hpp"
#include "runtime/socket_smr.hpp"

namespace clientbench {

namespace {

using fastbft::PayloadStats;

/// How long a replica child waits, after the drain, to apply every
/// drained command before it reports anyway.
constexpr std::chrono::milliseconds kCatchUp{500};

struct ChildReport {
  std::uint64_t applied = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t writev_frames = 0;
  std::uint64_t delivery_allocs = 0;
  std::uint64_t delivery_reuses = 0;
  std::uint64_t reorder_hw = 0;
  std::uint64_t parked_hw = 0;
  std::uint64_t clamp_stalls = 0;
};

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    ssize_t w = ::write(fd, p, size);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    size -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads exactly `size` bytes, giving up after `timeout_ms`.
bool read_all(int fd, void* data, std::size_t size, int timeout_ms) {
  auto* p = static_cast<char*>(data);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  while (size > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          give_up - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    ssize_t r = ::read(fd, p, size);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    size -= static_cast<std::size_t>(r);
  }
  return true;
}

ChildReport report_of(const fastbft::runtime::SocketSmrServer& server) {
  ChildReport r;
  r.applied = server.applied_commands();
  for (std::uint32_t g = 0; g < PayloadStats::kMaxTrackedGroups; ++g) {
    r.broadcasts += PayloadStats::group_broadcasts(g);
  }
  const auto sock = server.socket_stats();
  r.frames_out = sock.frames_out;
  r.bytes_out = sock.bytes_out;
  r.writev_calls = sock.writev_calls;
  r.writev_frames = sock.writev_frames;
  r.delivery_allocs = sock.delivery_allocs;
  r.delivery_reuses = sock.delivery_reuses;
  const auto engine = server.engine_stats();
  r.reorder_hw = engine.reorder_high_water;
  r.parked_hw = engine.parked_high_water;
  r.clamp_stalls = engine.clamp_stalls;
  return r;
}

[[noreturn]] void run_child(fastbft::runtime::SocketClusterConfig config,
                            fastbft::ProcessId id, int ctrl_fd, int report_fd) {
  PayloadStats::reset();  // counters inherited from the parent are not ours
  {
    fastbft::runtime::SocketSmrServer server(std::move(config), id);
    server.start();
    char cmd = 0;
    while (read_all(ctrl_fd, &cmd, 1, 60'000)) {
      if (cmd == 'S') {
        ChildReport r = report_of(server);
        if (!write_all(report_fd, &r, sizeof(r))) break;
        continue;
      }
      std::uint64_t target = 0;
      if (cmd != 'F' || !read_all(ctrl_fd, &target, sizeof(target), 5'000)) break;
      const auto give_up =
          std::chrono::steady_clock::now() + kCatchUp;
      while (server.applied_commands() < target &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ChildReport r = report_of(server);
      write_all(report_fd, &r, sizeof(r));
      break;
    }
    server.stop();
  }
  ::_exit(0);
}

/// utime + stime of `pid` (all its threads), in seconds.
double child_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  // Fields after the command: state is field 3; utime 14, stime 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

class TcpCluster final : public BenchCluster {
 public:
  TcpCluster(const WorkloadSpec& spec, std::uint64_t key_seed) {
    fastbft::runtime::SocketClusterConfig config;
    config.cfg = fastbft::consensus::QuorumConfig::create(kReplicas, kFaults, kFaults);
    config.num_clients = spec.sessions;
    config.key_seed = key_seed;
    config.smr.pipeline_depth = kDepth;
    config.smr.max_batch = kBatch;
    config.smr.num_groups = spec.shards;
    config.tx_delay_us = spec.link_delay_us;
    config.peers.resize(kReplicas + spec.sessions);

    int listen_fds[kReplicas];
    for (std::uint32_t id = 0; id < kReplicas; ++id) {
      listen_fds[id] = bind_loopback_listener(config.peers[id].port);
    }
    for (std::uint32_t id = 0; id < kReplicas; ++id) {
      int ctrl[2], report[2];
      if (::pipe(ctrl) != 0 || ::pipe(report) != 0) {
        throw std::runtime_error("pipe failed");
      }
      pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        ::close(ctrl[1]);
        ::close(report[0]);
        for (const auto& child : children_) {
          ::close(child.ctrl_fd);
          ::close(child.report_fd);
        }
        auto child_config = config;
        for (std::uint32_t other = 0; other < kReplicas; ++other) {
          if (other != id) ::close(listen_fds[other]);
        }
        child_config.peers[id].adopted_listen_fd = listen_fds[id];
        run_child(std::move(child_config), id, ctrl[0], report[1]);
      }
      ::close(ctrl[0]);
      ::close(report[1]);
      children_.push_back({pid, ctrl[1], report[0]});
    }
    for (int fd : listen_fds) ::close(fd);

    fastbft::runtime::SocketClientOptions options;
    options.first_client_id = kReplicas;
    options.sessions = spec.sessions;
    options.num_shards = spec.shards;
    options.max_in_flight = spec.window;
    options.request_deadline_us = spec.deadline_us;
    if (spec.request_timeout_us != 0) {
      options.request_timeout_us = spec.request_timeout_us;
    }
    client_ = std::make_unique<fastbft::runtime::SocketSmrClient>(config, options);
    client_->start();
  }

  ~TcpCluster() override {
    if (client_) client_->stop();
    reap(std::chrono::seconds(5));
  }

  std::uint32_t sessions() const override { return client_->sessions(); }

  fastbft::smr::ClientSession& session(std::uint32_t index) override {
    return client_->session(index);
  }

  Counters counters() override {
    Counters c;
    for (const auto& child : children_) {
      const char cmd = 'S';
      ChildReport r;
      if (write_all(child.ctrl_fd, &cmd, 1) &&
          read_all(child.report_fd, &r, sizeof(r), 5'000)) {
        add(c, r);
      }
      c.cpu_s += child_cpu_s(child.pid);
    }
    c.cpu_s += process_cpu_s();
    add_client(c);
    return c;
  }

  /// Agreement over TCP: replicas expose applied_commands() only, so the
  /// replicas that applied every drained command must report the same
  /// count, and at least n - f of them must have. A replica behind the
  /// others (at most f: a slow replica is indistinguishable from a faulty
  /// one) is counted in `lagging`, not failed.
  Agreement finish(std::uint64_t commands) override {
    Agreement result;
    client_->stop();
    std::vector<ChildReport> finals;
    for (const auto& child : children_) {
      const char cmd = 'F';
      ChildReport r;
      if (write_all(child.ctrl_fd, &cmd, 1) &&
          write_all(child.ctrl_fd, &commands, sizeof(commands)) &&
          read_all(child.report_fd, &r, sizeof(r), 15'000)) {
        finals.push_back(r);
      }
    }
    reap(std::chrono::seconds(5));
    result.detail = "applied_commands() per replica child, " +
                    std::to_string(commands) + " drained:";
    std::uint32_t caught_up = 0;
    std::uint64_t caught_up_count = 0;
    bool equal = true;
    for (const auto& r : finals) {
      result.detail += " " + std::to_string(r.applied);
      if (r.applied < commands) continue;
      if (caught_up++ > 0 && r.applied != caught_up_count) equal = false;
      caught_up_count = r.applied;
    }
    result.lagging = kReplicas - caught_up;
    result.agree = equal && caught_up >= kReplicas - kFaults;
    return result;
  }

 private:
  struct Child {
    pid_t pid = -1;
    int ctrl_fd = -1;
    int report_fd = -1;
  };

  static void add(Counters& c, const ChildReport& r) {
    c.broadcasts += r.broadcasts;
    c.msgs += r.frames_out;
    c.payload_bytes += r.bytes_out;
    c.writev_calls += r.writev_calls;
    c.writev_frames += r.writev_frames;
    c.delivery_allocs += r.delivery_allocs;
    c.delivery_reuses += r.delivery_reuses;
    c.reorder_hw = std::max(c.reorder_hw, r.reorder_hw);
    c.parked_hw = std::max(c.parked_hw, r.parked_hw);
    c.clamp_stalls += r.clamp_stalls;
  }

  void add_client(Counters& c) const {
    const auto sock = client_->socket_stats();
    c.msgs += sock.frames_out;
    c.payload_bytes += sock.bytes_out;
    c.writev_calls += sock.writev_calls;
    c.writev_frames += sock.writev_frames;
    c.delivery_allocs += sock.delivery_allocs;
    c.delivery_reuses += sock.delivery_reuses;
    for (std::uint32_t s = 0; s < client_->sessions(); ++s) {
      auto& session = client_->session(s);
      c.failovers += session.failovers();
      c.rejected_replies += session.rejected_replies();
      c.deadline_timeouts += session.deadline_timeouts();
    }
  }

  /// Closes the control pipes (children exit on EOF) and waits for every
  /// child, killing any that outlives `grace`.
  void reap(std::chrono::seconds grace) {
    for (auto& child : children_) {
      if (child.ctrl_fd >= 0) ::close(child.ctrl_fd);
      if (child.report_fd >= 0) ::close(child.report_fd);
      child.ctrl_fd = child.report_fd = -1;
    }
    const auto give_up = std::chrono::steady_clock::now() + grace;
    for (auto& child : children_) {
      if (child.pid < 0) continue;
      int status = 0;
      while (::waitpid(child.pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() >= give_up) {
          ::kill(child.pid, SIGKILL);
          ::waitpid(child.pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      child.pid = -1;
    }
  }

  std::vector<Child> children_;
  std::unique_ptr<fastbft::runtime::SocketSmrClient> client_;
};

}  // namespace

int bind_loopback_listener(std::uint16_t& port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(fd, 128) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("loopback listener failed");
  }
  port = ntohs(addr.sin_port);
  return fd;
}

std::unique_ptr<BenchCluster> make_tcp_cluster(const WorkloadSpec& spec,
                                               std::uint64_t key_seed) {
  return std::make_unique<TcpCluster>(spec, key_seed);
}

}  // namespace clientbench
