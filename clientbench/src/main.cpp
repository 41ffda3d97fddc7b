// clientbench: the client-view benchmark of the replicated KV service.
//
//   clientbench --workload NAME --seed N --seconds S --trace 0|1
//               [--out-dir DIR] [--git-commit SHA] [--source-digest HEX]
//
// One run drives one workload (workload.hpp) for S measured seconds, split
// into rounds of about kRoundSeconds on fresh clusters, times set-up on
// those and on kSetupTrials more,
// checks every output, and prints a RESULT record (machine stamp, workload
// parameters, every metric and counter) followed, as its last line, by
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run alternates untraced and traced rounds (the
// CPU-per-op difference is the tracing overhead), then runs the layer
// probes and writes every span to DIR. Exit status 1 on any failed check.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "model.hpp"
#include "probes.hpp"
#include "round.hpp"
#include "stats.hpp"

namespace clientbench {
namespace {

/// A run measures rounds of about this many seconds, each on a fresh
/// cluster: long enough for an open-loop stall's latency ramp to reach
/// the per-try timeout, short enough that a run averages many clusters.
constexpr double kRoundSeconds = 5;
/// Extra set-up-only clusters per run, so setup_s is a median of
/// rounds + kSetupTrials set-ups. Each then idles for kIdleSeconds with
/// no client load, which measures what an idle cluster burns.
constexpr std::uint32_t kSetupTrials = 10;
constexpr double kIdleSeconds = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "clientbench: %s\nusage: clientbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-commit SHA] "
               "[--source-digest HEX]\nworkloads:",
               why);
  for (const auto& spec : workloads()) std::fprintf(stderr, " %s", spec.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-commit") {
      args.git_commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (find_workload(args.workload) == nullptr) usage("unknown --workload");
  if (!(args.seconds > 0 && args.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// Sums over a set of rounds.
struct Totals {
  double window_s = 0;
  std::uint64_t ops = 0;  // completed inside the windows
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Counters window;             // summed over the measured windows
  std::uint32_t lagging = 0;  // most replicas behind in any round
  Counters idle;              // summed over the idle windows
  double idle_s = 0;
  std::vector<double> latency_us, late_us, submit_us, setup_s;

  /// A set-up-then-idle round: its set-up time, checks and idle cost.
  void add_setup(const RoundResult& r) {
    add_common(r);
    idle += r.window;
    idle_s += r.window_s;
  }

  void add(const RoundResult& r) {
    add_common(r);
    window_s += r.window_s;
    ops += r.completed_in_window;
    window += r.window;
    latency_us.insert(latency_us.end(), r.latency_us.begin(), r.latency_us.end());
    late_us.insert(late_us.end(), r.late_us.begin(), r.late_us.end());
    submit_us.insert(submit_us.end(), r.submit_us.begin(), r.submit_us.end());
  }

  void add_common(const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed();
    lagging = std::max(lagging, r.replicas.lagging);
    setup_s.push_back(r.setup_s);
  }

  double per_op(double count) const { return ops ? count / static_cast<double>(ops) : 0; }
  double cpu_us_per_op() const { return per_op(window.cpu_s * 1e6); }
};

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

void report_round(std::uint32_t index, const char* kind, const RoundResult& r,
                  std::vector<std::string>& problems) {
  const LatencySummary lat = summarize(r.latency_us);
  const auto ops = static_cast<double>(r.completed_in_window);
  std::printf("round %u (%s): setup %.4f s, %.0f ops/s, p50 %.0f us, p99 %.0f us, "
              "%.1f us cpu/op, %llu failovers, "
              "failed %llu (violations %llu, timeouts %llu, undrained %llu), "
              "%u lagging replicas%s%s\n",
              index, kind, r.setup_s, r.window_s > 0 ? ops / r.window_s : 0, lat.p50,
              lat.p99, ops > 0 ? r.window.cpu_s * 1e6 / ops : 0,
              static_cast<unsigned long long>(r.window.failovers),
              static_cast<unsigned long long>(r.failed()),
              static_cast<unsigned long long>(r.check.violations),
              static_cast<unsigned long long>(r.check.timeouts),
              static_cast<unsigned long long>(r.check.undrained), r.replicas.lagging,
              r.replicas.detail.empty() ? "" : ": ", r.replicas.detail.c_str());
  for (const auto& example : r.check.examples) {
    problems.push_back("round " + std::to_string(index) + ": " + example);
  }
  if (!r.replicas.agree) {
    problems.push_back("round " + std::to_string(index) + ": " + r.replicas.detail);
  }
}

std::string stamp(const Args& args, bool release) {
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"compiler\": \"%s (%s)\", \"build_type\": "
                "\"%s\", \"release_build\": %s, \"git_commit\": \"%s\", "
                "\"source_digest\": \"%s\", \"seed\": %llu}",
                ::sysconf(_SC_NPROCESSORS_ONLN), CLIENTBENCH_COMPILER, __VERSION__,
                CLIENTBENCH_BUILD_TYPE, release ? "true" : "false",
                args.git_commit.c_str(), args.source_digest.c_str(),
                static_cast<unsigned long long>(args.seed));
  return buf;
}

int run(const Args& args) {
  const WorkloadSpec& spec = *find_workload(args.workload);
  const bool release = std::strcmp(CLIENTBENCH_BUILD_TYPE, "Release") == 0;
  if (!release) {
    std::printf("WARNING: %s build, not Release: timings are not comparable\n",
                CLIENTBENCH_BUILD_TYPE);
  }
  const std::string run_id = spec.name + "/" + std::to_string(args.seed) + "/" +
                             std::to_string(::getpid()) + "/" + std::to_string(now_ns());
  SpanLog spans;
  Totals all, untraced, traced;
  std::vector<std::string> problems;
  const auto rounds = static_cast<std::uint32_t>(
      std::max(1.0, std::round(args.seconds / kRoundSeconds)));
  const double round_s = args.seconds / rounds;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const bool trace_round = args.trace && r % 2 == 1;
    RoundResult result = run_round(spec, args.seed, r, round_s,
                                   trace_round ? &spans : nullptr);
    report_round(r, trace_round ? "traced" : "measured", result, problems);
    all.add(result);
    (trace_round ? traced : untraced).add(result);
  }
  for (std::uint32_t t = 0; t < kSetupTrials; ++t) {
    RoundResult result =
        run_round(spec, args.seed, rounds + t, kIdleSeconds, nullptr, /*load=*/false);
    report_round(rounds + t, "set-up, then idle", result, problems);
    all.add_setup(result);
  }
  for (const auto& problem : problems) std::printf("CHECK FAILED: %s\n", problem.c_str());

  const LatencySummary lat = summarize(untraced.latency_us);
  const double throughput = untraced.window_s > 0
                                ? static_cast<double>(untraced.ops) / untraced.window_s
                                : 0;
  const double cpu_us_per_op = untraced.cpu_us_per_op();
  const double failed_frac =
      all.attempted ? static_cast<double>(all.failed) / static_cast<double>(all.attempted) : 1;
  const double setup = median(all.setup_s);
  const bool correct = all.failed == 0;

  std::vector<Metric> end_to_end = {
      {"throughput_ops_s", throughput, "1/s"},
      {"latency_p50_us", lat.p50, "us"},
      {"latency_p99_us", lat.p99, "us"},
      {"cpu_us_per_op", cpu_us_per_op, "us"},
      {"setup_s", setup, "s"},
  };
  // Counts per op over every round of this run.
  const Counters& w = all.window;
  const double failovers_per_kop = all.per_op(static_cast<double>(w.failovers) * 1000);
  const double surplus = all.per_op(static_cast<double>(w.rejected_replies));
  std::vector<Metric> counts = {
      {"engine.broadcasts_per_op", all.per_op(static_cast<double>(w.broadcasts)), "count"},
      {"engine.reorder_high_water", static_cast<double>(w.reorder_hw), "count"},
      {"engine.parked_high_water", static_cast<double>(w.parked_hw), "count"},
      {"engine.clamp_stalls", static_cast<double>(w.clamp_stalls), "count"},
      {"engine.lagging_replicas", static_cast<double>(all.lagging), "count"},
      {"engine.idle_cores", ratio(all.idle.cpu_s, all.idle_s), "cores"},
      {"net.idle_msgs_per_s", ratio(static_cast<double>(all.idle.msgs), all.idle_s), "1/s"},
      {"net.msgs_per_op", all.per_op(static_cast<double>(w.msgs)), "count"},
      {"net.envelope_reuse_ratio",
       ratio(static_cast<double>(w.envelope_reuses),
                 static_cast<double>(w.envelope_allocs + w.envelope_reuses)), "ratio"},
      {"net.payload_bytes_per_op", all.per_op(static_cast<double>(w.payload_bytes)), "B"},
      {"net.frames_per_writev",
       ratio(static_cast<double>(w.writev_frames), static_cast<double>(w.writev_calls)),
       "count"},
      {"net.delivery_reuse_ratio",
       ratio(static_cast<double>(w.delivery_reuses),
                 static_cast<double>(w.delivery_allocs + w.delivery_reuses)), "ratio"},
      {"session.failovers_per_kop", failovers_per_kop, "count"},
      {"session.surplus_replies_per_op", surplus, "count"},
      {"session.deadline_timeouts", static_cast<double>(w.deadline_timeouts), "count"},
      {"loadgen.late_p99_us", summarize(all.late_us).p99, "us"},
  };

  std::vector<Metric> layers;
  if (args.trace) {
    const ProbeResult probes = run_probes(spec, args.seed, &spans);
    const double submit_us = median(all.submit_us);
    LayerCounts layer_counts{run_id, all.per_op(static_cast<double>(w.msgs)),
                             all.per_op(static_cast<double>(w.broadcasts)),
                             (kFaults + 1) + surplus};
    LayerProbes layer_probes{run_id, probes.msg_cpu_us, probes.parse_us,
                             probes.digest_us, probes.sign_us, probes.verify_miss_us,
                             probes.reply_sign_us, probes.reply_check_us,
                             probes.batch_encode_us, probes.batch_decode_us,
                             probes.apply_us, submit_us};
    const auto model = cost_model(layer_counts, layer_probes, all.cpu_us_per_op(), kReplicas, kBatch);
    const double traced_cpu = traced.cpu_us_per_op();
    const double untraced_cpu = untraced.cpu_us_per_op();
    layers = counts;
    const std::vector<Metric> timed = {
        {"net.hop_us", probes.hop_us, "us"},
        {"net.msg_cpu_us", probes.msg_cpu_us, "us"},
        {"session.submit_us", submit_us, "us"},
        {"crypto.digest_us", probes.digest_us, "us"},
        {"crypto.sign_us", probes.sign_us, "us"},
        {"crypto.verify_miss_us", probes.verify_miss_us, "us"},
        {"crypto.verify_hit_us", probes.verify_hit_us, "us"},
        {"smr.reply_sign_us", probes.reply_sign_us, "us"},
        {"smr.reply_check_us", probes.reply_check_us, "us"},
        {"smr.batch_encode_us", probes.batch_encode_us, "us"},
        {"smr.batch_decode_us", probes.batch_decode_us, "us"},
        {"codec.parse_us", probes.parse_us, "us"},
        {"smr.apply_us", probes.apply_us, "us"},
        {"model.cpu_us_per_op", model ? model->cpu_us_per_op : 0, "us"},
        {"model.coverage", model ? model->coverage : 0, "ratio"},
        {"trace.overhead_pct",
         untraced_cpu > 0 ? (traced_cpu - untraced_cpu) / untraced_cpu * 100 : 0, "%"},
    };
    layers.insert(layers.end(), timed.begin(), timed.end());
    if (model) {
      std::printf("cost model (us/op):");
      for (const auto& [layer, us] : model->terms) std::printf(" %s=%.2f", layer.c_str(), us);
      std::printf(" | model %.1f of measured %.1f\n", model->cpu_us_per_op, all.cpu_us_per_op());
    }
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (spans.write_jsonl(path)) {
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }
  }

  std::printf("latency: p50 %.1f us, p99 %.1f us over %zu samples (p99 %s); "
              "p%.4g = %.1f us\n",
              lat.p50, lat.p99, lat.count,
              lat.p99_supported ? "has >= 10 samples beyond" : "has < 10 samples beyond",
              lat.top_q * 100, lat.top);
  std::printf("failed_frac: %.6g (%llu of %llu attempted)\n", failed_frac,
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.attempted));
  std::vector<Metric> record = end_to_end;
  record.push_back({"failed_frac", failed_frac, "ratio"});
  record.push_back({"latency_samples", static_cast<double>(lat.count), "count"});
  record.push_back({"latency_top_quantile", lat.top_q, "ratio"});
  record.push_back({"latency_top_us", lat.top, "us"});
  const auto& tail = args.trace ? layers : counts;
  record.insert(record.end(), tail.begin(), tail.end());
  if (args.trace) record.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  std::printf("RESULT {\"workload\": \"%s\", \"params\": %s, \"trace\": %d, "
              "\"seconds\": %g, \"rounds\": %u, \"setup_trials\": %u, \"stamp\": %s, "
              "\"metrics\": %s}\n",
              spec.name.c_str(), describe(spec).c_str(), args.trace ? 1 : 0, args.seconds,
              rounds, kSetupTrials, stamp(args, release).c_str(),
              json_metrics(record).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              json_metrics(args.trace ? layers : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace clientbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const clientbench::Args args = clientbench::parse(argc, argv);
  try {
    return clientbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clientbench: %s\n", e.what());
    return 1;
  }
}
