// gpuvm benchmark: three multi-tenant workloads on two clocks.
//
//   gpuvm_perfbench --workload <swap-churn|call-stream|paged-sparse>
//                   --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A run is: a correctness pre-pass (every Table-2 app once with kernel
// bodies executed and outputs verified), set-up (build the node and
// daemon, register kernels, measure each app's solo latency on an idle
// node, warm up), then rounds of the workload until --seconds of wall time
// have passed. The set-up is repeated three times before the rounds and
// once after each round, so that its median samples the whole run. Every
// round is a fresh node running a fixed-size batch whose inputs come from
// (seed, round index) alone, so modeled results never depend on how fast
// the host is; only the number of rounds does.
//
// Two clocks: *modeled* metrics (suffix _s on makespan/latency, modeled_ms)
// are virtual-clock seconds, the paper's axes; *wall* metrics (setup_s,
// host_us_per_call, wall_us_*) are what the runtime costs the host.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every round twice
// with the same inputs, untraced then traced: counters come from the
// untraced copy, spans from the traced one, and the modeled results of the
// two copies must be identical unless the round cannot repeat (see
// run_rounds). Each app's solo run, which always repeats, must also give the
// same modeled latency traced and untraced. The last stdout line is one
// JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status is nonzero on any failed call, output mismatch or broken
// invariant.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "scenarios.hpp"

namespace perfbench {
namespace {

constexpr int kMaxTenants = 4;
constexpr int kSetupsBeforeRounds = 3;
constexpr u64 kWarmupSeed = 0x5eed;
constexpr double kSloFactor = 3.0;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: gpuvm_perfbench --workload "
               "<swap-churn|call-stream|paged-sparse> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing flag value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value);
      if (!(a.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double vol_cs = 0.0;
  double invol_cs = 0.0;
  double max_rss_mb = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), static_cast<double>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_nivcsw), static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// Operations attempted/failed: GpuApi calls plus output checks.
struct OpCount {
  u64 attempted = 0;
  u64 failed = 0;

  void add(const RoundResult& r) {
    attempted += r.calls;
    failed += r.failed_calls;
    for (const JobRecord& j : r.jobs) {
      if (!j.checked) continue;
      ++attempted;
      if (!j.verified) ++failed;
    }
  }
};

/// Jobs due by `t` that had not started by `t`, summed over tenants.
int backlog_at(const RoundResult& r, double t) {
  int n = 0;
  for (const JobRecord& j : r.jobs) {
    if (j.due_s <= t && j.start_s > t) ++n;
  }
  return n;
}

bool same_modeled_results(const RoundResult& a, const RoundResult& b) {
  if (a.jobs.size() != b.jobs.size() || a.makespan_s != b.makespan_s) return false;
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    const JobRecord& x = a.jobs[i];
    const JobRecord& y = b.jobs[i];
    if (x.tenant != y.tenant || x.app != y.app || x.due_s != y.due_s || x.start_s != y.start_s ||
        x.end_s != y.end_s || x.ok != y.ok) {
      return false;
    }
  }
  return true;
}

/// Chrome trace_event JSON of one traced round: wall-clock placement, both
/// clocks in args; tid = tenant, so each job's calls nest under its span.
void write_spans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"job\":%llu,\"model_s0\":%.9f,\"model_s1\":%.9f}}%s\n",
                 kOpNames[static_cast<size_t>(s.op)],
                 static_cast<unsigned long long>(s.job >> 32), s.wall_us0,
                 s.wall_us1 - s.wall_us0, static_cast<unsigned long long>(s.job), s.model_s0,
                 s.model_s1, i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

/// Per-op call durations on both clocks and each job's self time (job span
/// minus the modeled time its call spans cover; calls of one job never
/// overlap, it is a single thread).
struct SpanStats {
  static constexpr size_t kOps = static_cast<size_t>(Op::kCount);
  std::array<std::vector<double>, kOps> wall_us;   ///< indexed by Op
  std::array<std::vector<double>, kOps> model_ms;  ///< indexed by Op
  std::vector<double> self_s;

  void add(const std::vector<Span>& spans) {
    std::map<u64, double> job_s;
    std::map<u64, double> calls_s;
    for (const Span& s : spans) {
      const double modeled = s.model_s1 - s.model_s0;
      if (s.op == Op::Job) {
        job_s[s.job] = modeled;
        continue;
      }
      calls_s[s.job] += modeled;
      wall_us[static_cast<size_t>(s.op)].push_back(s.wall_us1 - s.wall_us0);
      model_ms[static_cast<size_t>(s.op)].push_back(modeled * 1e3);
    }
    for (const auto& [job, total] : job_s) self_s.push_back(total - calls_s[job]);
  }
};

/// Confines the process, and every thread it starts later, to the last CPU
/// it may run on. Returns that CPU, or -1 when the mask cannot be changed.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::string note;  ///< sample count or base, printed with the value
};

/// What the timed phase produced: the untraced copy of every round and, in
/// trace mode, what the traced copies added.
struct TimedPhase {
  std::vector<RoundResult> rounds;  ///< untraced copies
  std::vector<Usage> usage;         ///< getrusage delta over each untraced copy
  SpanStats spans;                  ///< from the traced copies
  std::vector<Span> first_spans;    ///< the first traced round, exported
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  int identical = 0;         ///< traced copy == untraced copy
  int nondeterministic = 0;  ///< differed, and so did a second untraced copy
  int unattributed = 0;      ///< differed; the second copy matched, but ties may
                             ///< still have decided the traced one
  int peak_connections = 0;
};

/// Whole rounds until the wall budget is spent, calling `after_round` after
/// each; in trace mode each round is also run traced with the same inputs.
TimedPhase run_rounds(const Scenario& sc, const Args& args, int tenants, OpCount& ops,
                      bool& correct, const std::function<void()>& after_round) {
  TimedPhase tp;
  const double deadline = now_s() + args.seconds;
  for (u64 round = 0; tp.rounds.empty() || now_s() < deadline; ++round) {
    const Plan plan = sc.plan(args.seed * 1000003ULL + round, tenants);
    const Usage u0 = usage_now();
    tp.rounds.push_back(run_round(sc, plan, false, tenants));
    const Usage u1 = usage_now();
    const RoundResult& r = tp.rounds.back();
    tp.usage.push_back({u1.user_s - u0.user_s, u1.sys_s - u0.sys_s, u1.vol_cs - u0.vol_cs,
                        u1.invol_cs - u0.invol_cs, 0.0});
    ops.add(r);
    tp.untraced_wall += r.wall_s;
    tp.peak_connections = std::max(tp.peak_connections, r.peak_connections);
    std::printf("round %llu: %zu jobs, makespan %.6f s modeled, %llu calls, %.3f s cpu, "
                "%.3f s wall\n",
                static_cast<unsigned long long>(round), r.jobs.size(), r.makespan_s,
                static_cast<unsigned long long>(r.calls),
                tp.usage.back().user_s + tp.usage.back().sys_s, r.wall_s);
    after_round();
    if (!args.trace) continue;

    RoundResult t = run_round(sc, plan, true, tenants);
    tp.traced_wall += t.wall_s;
    ops.add(t);
    tp.peak_connections = std::max(tp.peak_connections, t.peak_connections);
    if (same_modeled_results(r, t)) {
      ++tp.identical;
    } else {
      // Tracing must not move modeled time. When a second untraced copy
      // differs too, the round is not a function of its inputs
      // (same-instant ties in the virtual clock resolve in host thread
      // order) and tracing cannot be blamed. When it matches, the
      // difference counts against tracing only on a workload without
      // same-instant ties: with them, a few tie outcomes recur often enough
      // that two copies agree by chance, and tracing, which shifts host
      // timing, can land on another. On those workloads the solo check in
      // run() is the deterministic test of tracing.
      const RoundResult again = run_round(sc, plan, false, tenants);
      ops.add(again);
      if (!same_modeled_results(r, again)) {
        ++tp.nondeterministic;
      } else if (sc.same_instant_ties) {
        ++tp.unattributed;
        std::printf("trace: round %llu: traced copy differs, untraced copies agree; "
                    "same-instant ties possible\n",
                    static_cast<unsigned long long>(round));
      } else {
        correct = false;
        std::printf("trace: round %llu: tracing changed modeled results\n",
                    static_cast<unsigned long long>(round));
      }
    }
    tp.spans.add(t.spans);
    if (tp.first_spans.empty()) tp.first_spans = std::move(t.spans);
  }
  return tp;
}

std::string rounds_note(const TimedPhase& tp) {
  return "n=" + std::to_string(tp.rounds.size()) + " rounds";
}

/// The runtime's host cost: wall µs of a round per GpuApi call, median over
/// rounds. Reported per layer, not end to end: on the shared reference VM
/// its run-to-run spread reached 25%, beyond what an end-to-end bound may be.
Metric host_cost_metric(const TimedPhase& tp) {
  std::vector<double> us_per_call;
  for (const RoundResult& r : tp.rounds) {
    us_per_call.push_back(r.wall_s * 1e6 / static_cast<double>(std::max<u64>(r.calls, 1)));
  }
  return {"host_us_per_call", median(us_per_call), "us", rounds_note(tp) + ", wall"};
}

std::vector<Metric> end_to_end_metrics(const TimedPhase& tp, const std::vector<double>& solo,
                                       const std::vector<double>& setup_times) {
  std::vector<double> makespans;
  std::vector<double> latencies;
  u64 slo_met = 0;
  for (const RoundResult& r : tp.rounds) {
    makespans.push_back(r.makespan_s);
    for (const JobRecord& j : r.jobs) {
      const double lat = j.end_s - j.due_s;
      latencies.push_back(lat);
      if (j.ok && lat <= kSloFactor * (solo[static_cast<size_t>(j.app)] + j.prep_s)) ++slo_met;
    }
  }
  const std::string n_rounds = rounds_note(tp);
  const std::string n_jobs = "n=" + std::to_string(latencies.size()) + " jobs";
  const double jobs = static_cast<double>(std::max<size_t>(latencies.size(), 1));
  return {
      {"makespan_s", median(makespans), "s", n_rounds + ", modeled"},
      {"job_latency_p50_s", quantile(latencies, 0.5), "s", n_jobs + ", modeled"},
      {"job_latency_p90_s", quantile(latencies, 0.9), "s", n_jobs + ", modeled"},
      {"slo_attainment", static_cast<double>(slo_met) / jobs, "fraction",
       n_jobs + ", within 3x solo"},
      {"setup_s", median(setup_times), "s",
       "n=" + std::to_string(setup_times.size()) + " set-ups, wall"},
      {"peak_rss_mb", usage_now().max_rss_mb, "MB", "getrusage ru_maxrss"},
  };
}

/// Per-layer metrics of a traced run: counters are means per round over the
/// untraced copies, span statistics come from the traced copies.
std::vector<Metric> per_layer_metrics(const TimedPhase& tp, int tenants) {
  const double n = static_cast<double>(tp.rounds.size());
  std::map<std::string, double> sum;
  std::vector<u64> qw_buckets;
  std::vector<double> qw_edges;
  double sleepers_peak = 0.0;
  std::vector<double> lateness;
  double backlog_end = 0.0;
  int growing = 0;
  for (const RoundResult& r : tp.rounds) {
    for (const auto& [k, v] : r.counters) sum[k] += v;
    sleepers_peak = std::max(sleepers_peak, r.counters.at("vt.sleepers_peak"));
    if (qw_buckets.size() < r.queue_wait_buckets.size()) {
      qw_buckets.resize(r.queue_wait_buckets.size());
      qw_edges = r.queue_wait_edges;
    }
    for (size_t b = 0; b < r.queue_wait_buckets.size(); ++b) {
      qw_buckets[b] += r.queue_wait_buckets[b];
    }
    double last_due = 0.0;
    for (const JobRecord& j : r.jobs) {
      lateness.push_back(j.start_s - j.due_s);
      last_due = std::max(last_due, j.due_s);
    }
    // Backlog at the four quarter points of the arrival window: a round
    // whose second-half backlog exceeds its first-half backlog by more than
    // one job per tenant is flagged as growing.
    int q[4];
    for (int k = 0; k < 4; ++k) q[k] = backlog_at(r, last_due * (k + 1) / 4.0);
    backlog_end += q[3];
    if (q[2] + q[3] - q[0] - q[1] > 2 * tenants) ++growing;
  }
  if (growing > 0) {
    std::printf("FLAG: backlog grew in %d of %zu rounds\n", growing, tp.rounds.size());
  }
  for (const Usage& u : tp.usage) {
    sum["proc.user_s"] += u.user_s;
    sum["proc.sys_s"] += u.sys_s;
    sum["proc.vol_ctx_switches"] += u.vol_cs;
    sum["proc.invol_ctx_switches"] += u.invol_cs;
  }

  std::vector<Metric> layer;
  const std::string n_rounds = rounds_note(tp);
  const std::string per_round = "mean per round, " + n_rounds;
  const auto avg = [&](const char* name, const char* unit) {
    layer.push_back({name, sum[name] / n, unit, per_round});
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const SpanStats& spans = tp.spans;

  layer.push_back(host_cost_metric(tp));
  avg("frontend.calls", "count");
  for (Op op : {Op::Malloc, Op::H2D, Op::Launch, Op::D2H, Op::Free}) {
    const auto i = static_cast<size_t>(op);
    const std::string base = std::string("frontend.") + kOpNames[i];
    const std::string count = "n=" + std::to_string(spans.wall_us[i].size()) + " calls";
    layer.push_back({base + ".wall_us_p50", median(spans.wall_us[i]), "us", count + ", wall"});
    layer.push_back(
        {base + ".modeled_ms_p50", median(spans.model_ms[i]), "ms", count + ", modeled"});
  }
  avg("transport.messages", "count");
  avg("transport.bytes", "bytes");
  avg("runtime.launches", "count");
  avg("runtime.dispatch_lock_contended", "count");
  avg("runtime.dispatch_lock_wait_s", "s");
  avg("cudart.calls", "count");
  avg("sched.binds", "count");
  avg("sched.unbinds", "count");
  avg("sched.queue_wait_s_sum", "s");
  u64 waits = 0;
  for (u64 b : qw_buckets) waits += b;
  layer.push_back({"sched.queue_wait_s_p50", obs::histogram_quantile(qw_edges, qw_buckets, 0.5),
                   "s", "n=" + std::to_string(waits) + " waits, bucket upper edge"});
  for (const char* name : {"mm.inter_app_swaps", "mm.intra_app_swaps", "mm.bulk_transfers",
                           "mm.clean_swap_skips", "mm.async_writebacks", "mm.writeback_fences"}) {
    avg(name, "count");
  }
  for (const char* name : {"mm.swap_out_bytes", "mm.swap_in_bytes", "mm.dirty_bytes_saved"}) {
    avg(name, "bytes");
  }
  const double walks = sum["mm.tlb_hits"] + sum["mm.tlb_misses"];
  avg("mm.page_faults", "count");
  layer.push_back({"mm.tlb_hit_rate", ratio(sum["mm.tlb_hits"], walks), "fraction",
                   "base=" + std::to_string(static_cast<u64>(walks)) + " walks (hits+misses)"});
  avg("mm.prefetched_pages", "count");
  avg("mm.page_evictions", "count");
  const std::string gpu_base =
      "base=" + std::to_string(sum["gpu.capacity_s"]) + " device-seconds (GPUs x makespan)";
  layer.push_back({"gpu.compute_busy_frac",
                   ratio(sum["gpu.compute_busy_s"], sum["gpu.capacity_s"]), "fraction", gpu_base});
  layer.push_back({"gpu.copy_busy_frac", ratio(sum["gpu.copy_busy_s"], sum["gpu.capacity_s"]),
                   "fraction", gpu_base});
  avg("gpu.kernels", "count");
  avg("gpu.bytes_to_device", "bytes");
  avg("gpu.bytes_from_device", "bytes");
  avg("vt.advances", "count");
  avg("vt.events_dispatched", "count");
  layer.push_back({"vt.sleepers_peak", sleepers_peak, "count", "max over " + n_rounds});
  layer.push_back({"vt.wall_us_per_advance", ratio(tp.untraced_wall * 1e6, sum["vt.advances"]),
                   "us",
                   "base=" + std::to_string(static_cast<u64>(sum["vt.advances"])) + " advances"});
  avg("proc.user_s", "s");
  avg("proc.sys_s", "s");
  avg("proc.vol_ctx_switches", "count");
  avg("proc.invol_ctx_switches", "count");
  layer.push_back({"loadgen.lateness_p50_s", quantile(lateness, 0.5), "s",
                   "n=" + std::to_string(lateness.size()) + " jobs, modeled"});
  layer.push_back({"loadgen.lateness_max_s", quantile(lateness, 1.0), "s", "modeled"});
  layer.push_back({"loadgen.backlog_end", backlog_end / n, "jobs", per_round});
  layer.push_back(
      {"loadgen.backlog_growing_rounds", static_cast<double>(growing), "count", n_rounds});
  layer.push_back({"job.self_s_p50", median(spans.self_s), "s",
                   "n=" + std::to_string(spans.self_s.size()) + " jobs, modeled"});
  layer.push_back({"trace.overhead_ratio", ratio(tp.traced_wall, tp.untraced_wall), "ratio",
                   "traced / untraced wall, " + n_rounds});
  layer.push_back({"trace.identical_rounds", ratio(static_cast<double>(tp.identical), n),
                   "fraction", "traced copy matched the untraced one exactly, " + n_rounds});
  layer.push_back({"trace.nondeterministic_rounds",
                   ratio(static_cast<double>(tp.nondeterministic), n), "fraction",
                   "two untraced copies of the same inputs differed, " + n_rounds});
  layer.push_back({"trace.unattributed_rounds", ratio(static_cast<double>(tp.unattributed), n),
                   "fraction",
                   "traced copy differed, two untraced copies agreed, same-instant ties "
                   "possible, " +
                       n_rounds});
  return layer;
}

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, const OpCount& ops, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "{\"value\": %.17g, \"unit\": \"%s\"}", m.value, m.unit);
    json += (first ? "\"" : ", \"") + m.name + "\": " + buf;
    first = false;
  }
  return json + "}}";
}

int run(const Args& args) {
  Scenario sc;
  if (!find_scenario(args.workload, &sc)) usage("unknown --workload");
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int tenants = std::min(kMaxTenants, nproc);
  // The simulator hands control from thread to thread at every virtual-clock
  // event. Across CPUs of a virtual machine each hand-off is a wake-up whose
  // latency depends on what other guests run, which made host_us_per_call
  // spread 39% between runs on the reference VM; on one CPU it is a local
  // context switch. The threads, the tenants and the modeled results are
  // the same either way.
  const int cpu = pin_to_one_cpu();
  std::printf("workload=%s seed=%llu seconds=%g trace=%d nproc=%d tenants=%d cpu=%d\n",
              sc.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc, tenants, cpu);

  OpCount ops;
  bool correct = true;

  // Correctness pre-pass.
  {
    const Scenario vs = verify_scenario();
    const RoundResult r = run_round(vs, vs.plan(args.seed, 1), false, 1);
    ops.add(r);
    for (const JobRecord& j : r.jobs) {
      if (!j.ok) {
        correct = false;
        std::printf("verify: %s FAILED\n",
                    vs.apps[static_cast<size_t>(j.app)].workload->name().c_str());
      }
    }
    std::printf("verify: %zu Table-2 apps checked with kernel bodies executed\n", r.jobs.size());
  }

  // Set-up, repeated; the solo latencies are modeled and must repeat exactly.
  // Set-ups between rounds spread the samples of setup_s over the run, so a
  // few slow seconds of the shared host at its start do not decide it.
  std::vector<double> setup_times;
  std::vector<double> solo;
  const auto setup = [&] {
    const double t0 = now_s();
    const std::vector<double> s = solo_latencies(sc, false);
    Plan warm = sc.plan(kWarmupSeed, tenants);  // same work whatever --seed is
    for (auto& jobs : warm) jobs.resize(std::min<size_t>(jobs.size(), 1));
    const RoundResult w = run_round(sc, warm, false, tenants);
    setup_times.push_back(now_s() - t0);
    ops.add(w);
    if (solo.empty()) {
      solo = s;
    } else if (s != solo) {
      correct = false;
      std::printf("setup: solo latencies differ between set-ups\n");
    }
  };
  for (int rep = 0; rep < kSetupsBeforeRounds; ++rep) setup();
  for (size_t a = 0; a < solo.size(); ++a) {
    std::printf("solo %-6s %.6f s (modeled)\n", sc.apps[a].workload->name().c_str(), solo[a]);
  }
  // A solo run has no other tenant to tie with and repeats exactly, so here
  // tracing must leave modeled time unchanged on every workload.
  if (args.trace && solo_latencies(sc, true) != solo) {
    correct = false;
    std::printf("trace: tracing changed solo latencies\n");
  }

  const TimedPhase tp = run_rounds(sc, args, tenants, ops, correct, setup);
  if (tp.peak_connections > nproc) {
    correct = false;
    std::printf("load limit: %d open connections > nproc %d\n", tp.peak_connections, nproc);
  }
  if (ops.failed > 0) correct = false;

  const std::vector<Metric> e2e = end_to_end_metrics(tp, solo, setup_times);
  std::vector<Metric> layer;
  if (args.trace) {
    layer = per_layer_metrics(tp, tenants);
    if (!args.trace_out.empty()) write_spans(args.trace_out, tp.first_spans);
  }

  const auto print = [](const Metric& m) {
    std::printf("  %-36s %16.6f %-8s (%s)\n", m.name.c_str(), m.value, m.unit, m.note.c_str());
  };
  std::printf("end-to-end:\n");
  for (const Metric& m : e2e) print(m);
  std::printf("  %-36s %16.6f %-8s (%llu of %llu operations: GpuApi calls + output checks)\n",
              "failed_frac",
              static_cast<double>(ops.failed) /
                  static_cast<double>(std::max<u64>(ops.attempted, 1)),
              "fraction", static_cast<unsigned long long>(ops.failed),
              static_cast<unsigned long long>(ops.attempted));
  if (args.trace) {
    std::printf("per-layer:\n");
    for (const Metric& m : layer) print(m);
  } else {
    std::printf("host cost (a per-layer metric, printed here for reference):\n");
    print(host_cost_metric(tp));
  }
  std::printf("nproc=%d tenants=%d peak_open_connections=%d correct=%s\n", nproc, tenants,
              tp.peak_connections, correct ? "true" : "false");
  std::printf("%s\n", result_json(correct, ops, args.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(perfbench::parse(argc, argv)); }
