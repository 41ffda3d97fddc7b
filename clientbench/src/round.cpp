#include "round.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

namespace clientbench {

namespace {

std::chrono::steady_clock::time_point at_ns(std::int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

/// Shared by the load generator and the reply callbacks of one round;
/// lives until the cluster is finished, so no callback outlives it.
struct Book {
  Book(const WorkloadSpec& spec, std::uint64_t seed, std::uint32_t round,
       SpanLog* span_log)
      : records(spec.sessions), locks(spec.sessions), spans(span_log) {
    for (std::uint32_t s = 0; s < spec.sessions; ++s) {
      streams.emplace_back(spec, seed, round, s);
    }
  }

  std::vector<fastbft::smr::ClientSession*> sessions;
  /// Per session, under locks[s]: its op stream and its records. Deque
  /// elements never move, so a callback can write through a pointer.
  std::vector<SessionStream> streams;
  std::vector<std::deque<OpRecord>> records;
  std::deque<std::mutex> locks;
  /// Closed loop: a completion before this time issues the session's
  /// next op from the reply callback itself, so a session always has
  /// its window of requests outstanding and no extra thread hands off.
  std::atomic<std::int64_t> closed_until{0};
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> executed{0};  // done with an Ok-status reply
  SpanLog* spans;
};

/// Issues session `s`'s next generated op; `due_ns` = 0 times it from
/// the call (closed loop), else from its scheduled send time.
void issue(Book& book, std::uint32_t s, std::int64_t due_ns) {
  GeneratedOp op;
  OpRecord* rec = nullptr;
  {
    std::lock_guard<std::mutex> lock(book.locks[s]);
    op = book.streams[s].next();
    rec = &book.records[s].emplace_back();
  }
  rec->session = s;
  rec->key = op.key;
  rec->kind = op.kind;
  rec->tag = op.tag;
  if (op.kind == fastbft::smr::OpKind::Put) rec->value_hash = value_hash(op.value);
  std::string key = key_name(op.key);
  const std::uint64_t op_span = book.spans ? book.spans->next_id() : 0;
  book.issued.fetch_add(1, std::memory_order_relaxed);

  auto& session = *book.sessions[s];
  rec->issue_ns = now_ns();
  rec->due_ns = due_ns != 0 ? due_ns : rec->issue_ns;
  auto future = op.kind == fastbft::smr::OpKind::Get
                    ? session.get(std::move(key))
                    : session.put(std::move(key), std::move(op.value));
  if (book.spans) {
    rec->submitted_ns = now_ns();
    book.spans->record({book.spans->next_id(), op_span, op_span,
                        "session.submit", rec->issue_ns, rec->submitted_ns});
  }
  future.on_ready([rec, s, op_span, &book](const fastbft::smr::Reply& r) {
    rec->complete_ns = now_ns();
    rec->timed_out = r.timed_out();
    rec->ok = r.ok();
    rec->found = r.result.found;
    rec->reply_op = r.op;
    if (r.result.found) {
      rec->got_tag = value_tag(r.result.value);
      rec->got_hash = value_hash(r.result.value);
    }
    if (book.spans) {
      book.spans->record({op_span, 0, op_span, "op", rec->due_ns, rec->complete_ns});
    }
    if (!r.timed_out()) book.executed.fetch_add(1, std::memory_order_relaxed);
    book.done.fetch_add(1, std::memory_order_release);
    if (rec->complete_ns < book.closed_until.load()) issue(book, s, 0);
  });
}

bool wait_done(const Book& book, std::chrono::milliseconds budget) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (book.done.load(std::memory_order_acquire) <
         book.issued.load(std::memory_order_relaxed)) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      std::uint32_t round, double seconds, SpanLog* spans,
                      bool load) {
  RoundResult result;
  Book book(spec, seed, round, spans);

  // Set-up: cluster construction to the first completed reply, on the
  // first generated op of session 0.
  const std::int64_t build_ns = now_ns();
  const std::uint64_t key_seed = mix_seed(seed, round + 1, 0x6b6579);
  std::unique_ptr<BenchCluster> cluster =
      spec.runtime == Runtime::Threads ? make_threads_cluster(spec, key_seed)
                                       : make_tcp_cluster(spec, key_seed);
  for (std::uint32_t s = 0; s < spec.sessions; ++s) {
    book.sessions.push_back(&cluster->session(s));
  }
  issue(book, 0, 0);
  if (!wait_done(book, std::chrono::milliseconds(30'000))) {
    result.attempted = 1;
    result.check.undrained = 1;
    result.replicas = cluster->finish(0);
    result.replicas.agree = false;
    result.replicas.detail = "no reply to the set-up op";
    return result;
  }
  result.setup_s = static_cast<double>(book.records[0].front().complete_ns - build_ns) * 1e-9;

  const Counters start = cluster->counters();
  const std::int64_t w0 = now_ns();
  const std::int64_t w1 = w0 + static_cast<std::int64_t>(seconds * 1e9);
  if (!load) {
    // Idle window: counters only.
  } else if (spec.open_loop) {
    // One generator thread (this one): Poisson arrivals, round-robin
    // over the sessions; a late wake-up sends the overdue op at once.
    ArrivalStream arrivals(spec.rate_ops_s, seed, round);
    double due = static_cast<double>(w0);
    for (std::uint64_t i = 0;; ++i) {
      due += arrivals.next_gap_ns();
      if (due >= static_cast<double>(w1)) break;
      const auto due_ns = static_cast<std::int64_t>(due);
      std::this_thread::sleep_until(at_ns(due_ns));
      issue(book, static_cast<std::uint32_t>(i % spec.sessions), due_ns);
    }
  } else {
    book.closed_until.store(w1);
    for (std::uint32_t s = 0; s < spec.sessions; ++s) {
      for (std::uint32_t k = 0; k < spec.window; ++k) issue(book, s, 0);
    }
  }
  std::this_thread::sleep_until(at_ns(w1));
  const Counters end = cluster->counters();
  result.window = delta(end, start);
  result.window_s = static_cast<double>(w1 - w0) * 1e-9;

  wait_done(book, std::chrono::milliseconds(10'000));
  // The records are read only after finish(): no callback runs after it.
  result.replicas = cluster->finish(book.executed.load());
  cluster.reset();

  for (const auto& records : book.records) {
    for (const auto& rec : records) {
      ++result.attempted;
      if (rec.done() && rec.complete_ns >= w0 && rec.complete_ns <= w1) {
        ++result.completed_in_window;
      }
      if (rec.issue_ns < w0) continue;  // the set-up op
      if (spec.open_loop) {
        result.late_us.push_back(static_cast<double>(rec.issue_ns - rec.due_ns) * 1e-3);
      }
      if (spans) {
        result.submit_us.push_back(static_cast<double>(rec.submitted_ns - rec.issue_ns) * 1e-3);
      }
      if (rec.done() && !rec.timed_out) {
        result.latency_us.push_back(static_cast<double>(rec.complete_ns - rec.due_ns) * 1e-3);
      }
    }
  }
  result.check = check_history(book.records);
  return result;
}

}  // namespace clientbench
