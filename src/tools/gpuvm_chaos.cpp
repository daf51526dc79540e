// gpuvm_chaos: fault-injection driver for the gpuvm runtime.
//
//   gpuvm_chaos --seed 7 [--nodes 2] [--gpus 2] [--vgpus 2] [--tenants 6]
//               [--events 10] [--horizon-ms 30] [--plan FILE] [--print-plan]
//               [--verify-determinism] [--trace-out FILE.json]
//               [--offload] [--no-load-reports] [--migrations N]
//               [--preempt N] [--sched-policy NAME] [--quantum-us N]
//               [--paging]
//
// Builds a multi-tenant cluster scenario, executes a FaultPlan against it
// (seed-generated, or loaded from a plan file) and reports per-tenant
// outcomes, fault log, recovery metrics and invariant violations.
// --verify-determinism runs the scenario twice and fails unless both runs
// are bit-identical (same event order, outcomes, makespan, counters).
// Exit code 0 iff no invariant was violated (and, with
// --verify-determinism, the replay matched).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/harness.hpp"
#include "core/sched_policy.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gpuvm_chaos [--seed N] [--plan FILE] [--print-plan]\n"
               "                   [--nodes N] [--gpus N] [--vgpus N] [--tenants N]\n"
               "                   [--events N] [--horizon-ms MS]\n"
               "                   [--verify-determinism] [--trace-out FILE.json]\n"
               "                   [--offload] [--no-load-reports] [--migrations N]\n"
               "                   [--preempt N] [--sched-policy NAME] [--quantum-us N]\n"
               "                   [--paging]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpuvm;

  u64 seed = 1;
  std::string plan_file;
  bool print_plan = false;
  bool verify_determinism = false;
  bool offload = false;
  bool load_reports = true;
  std::string trace_out;
  int nodes = 2;
  int gpus = 2;
  int vgpus = 2;
  int tenants = 6;
  int events = 10;
  int migrations = 0;
  int preempts = 0;
  std::string sched_policy;
  double quantum_us = 0.0;
  double horizon_ms = 30.0;
  bool paging = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--plan") plan_file = next();
    else if (arg == "--print-plan") print_plan = true;
    else if (arg == "--verify-determinism") verify_determinism = true;
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--offload") offload = true;
    else if (arg == "--no-load-reports") load_reports = false;
    else if (arg == "--nodes") nodes = std::atoi(next());
    else if (arg == "--gpus") gpus = std::atoi(next());
    else if (arg == "--vgpus") vgpus = std::atoi(next());
    else if (arg == "--tenants") tenants = std::atoi(next());
    else if (arg == "--events") events = std::atoi(next());
    else if (arg == "--migrations") migrations = std::atoi(next());
    else if (arg == "--preempt") preempts = std::atoi(next());
    else if (arg == "--sched-policy") sched_policy = next();
    else if (arg == "--quantum-us") quantum_us = std::atof(next());
    else if (arg == "--horizon-ms") horizon_ms = std::atof(next());
    else if (arg == "--paging") paging = true;
    else {
      usage();
      return 2;
    }
  }

  chaos::ScenarioConfig config;
  config.nodes = nodes;
  config.gpus_per_node = gpus;
  config.vgpus_per_device = vgpus;
  config.tenants = tenants;
  config.enable_offloading = offload;
  // With load reports on, offload runs in mesh mode: the directory's
  // hysteresis only sheds to a *less* loaded peer, so evenly loaded nodes
  // serve locally. --no-load-reports forces the legacy fixed-peer shed
  // (any admit at load >= threshold is proxied) -- the shape the cross-node
  // trace walkthrough uses.
  config.enable_load_reports = load_reports;
  // Forced preemption sweeps need a preemptive policy to bite; default to
  // time-quantum round-robin unless the user named one explicitly.
  if (sched_policy.empty() && preempts > 0) sched_policy = "tq";
  if (!sched_policy.empty()) {
    if (!gpuvm::core::make_scheduling_policy(sched_policy).has_value()) {
      std::fprintf(stderr, "gpuvm_chaos: unknown scheduling policy '%s' (built-in:",
                   sched_policy.c_str());
      for (const std::string& name : gpuvm::core::scheduling_policy_names()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    config.sched_policy = sched_policy;
  }
  config.quantum_seconds = quantum_us * 1e-6;
  config.paging = paging;

  if (!plan_file.empty()) {
    std::ifstream in(plan_file);
    if (!in) {
      std::fprintf(stderr, "gpuvm_chaos: cannot open plan file '%s'\n", plan_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto plan = chaos::FaultPlan::parse(text.str(), &error);
    if (!plan) {
      std::fprintf(stderr, "gpuvm_chaos: bad plan file: %s\n", error.c_str());
      return 2;
    }
    config.plan = *plan;
  } else {
    config.plan =
        chaos::FaultPlan::random(seed, nodes, gpus, events, vt::from_millis(horizon_ms));
  }
  // Forced live migrations, layered on after plan generation so the random
  // fault sequence for a given seed is byte-identical with --migrations 0.
  // Spread across the fault window at deterministic (seed-derived) times;
  // sources rotate over the nodes, targets auto-pick the least-loaded peer.
  for (int m = 0; m < migrations; ++m) {
    chaos::FaultEvent ev;
    ev.kind = chaos::FaultKind::Migrate;
    ev.at = vt::from_millis(horizon_ms * 0.15 + horizon_ms * 0.6 * (m + 0.5) / migrations);
    ev.node = static_cast<int>((seed + static_cast<u64>(m)) % static_cast<u64>(nodes));
    ev.count = 0;  // least-loaded peer
    config.plan.add(ev);
  }
  // Forced preemption sweeps, layered on like --migrations so a given
  // seed's random fault sequence stays byte-identical with --preempt 0.
  // Nodes rotate (offset from migrations so the two overlays interleave
  // rather than shadow each other when both are requested).
  for (int p = 0; p < preempts; ++p) {
    chaos::FaultEvent ev;
    ev.kind = chaos::FaultKind::Preempt;
    ev.at = vt::from_millis(horizon_ms * 0.2 + horizon_ms * 0.55 * (p + 0.5) / preempts);
    ev.node = static_cast<int>((seed + 1 + static_cast<u64>(p)) % static_cast<u64>(nodes));
    config.plan.add(ev);
  }

  if (print_plan) {
    std::fputs(config.plan.to_text().c_str(), stdout);
    return 0;
  }

  config.trace_out = trace_out;
  const chaos::ScenarioResult result = chaos::run_scenario(config);
  if (!trace_out.empty()) std::printf("trace written to %s\n", trace_out.c_str());

  std::printf("plan seed %llu, %zu fault events applied\n",
              static_cast<unsigned long long>(config.plan.seed), result.event_log.size());
  for (const std::string& line : result.event_log) std::printf("  %s\n", line.c_str());
  std::printf("tenants:\n");
  for (const auto& t : result.outcomes) {
    std::printf("  tenant %d: %s, %llu kernels ok, %llu failed, data %s\n", t.tenant,
                to_string(t.final_status), static_cast<unsigned long long>(t.kernels_ok),
                static_cast<unsigned long long>(t.kernels_failed),
                t.final_status == Status::Ok ? (t.data_ok ? "verified" : "MISMATCH") : "n/a");
  }
  std::printf("makespan %.6f s | recoveries %llu | requeues %llu | preemptions %llu | "
              "transport retries %llu (dropped %llu)\n",
              result.makespan_seconds, static_cast<unsigned long long>(result.recoveries),
              static_cast<unsigned long long>(result.requeues),
              static_cast<unsigned long long>(result.preemptions),
              static_cast<unsigned long long>(result.transport_retries),
              static_cast<unsigned long long>(result.transport_dropped));

  // Latency distributions from the run's registry (run_scenario resets it
  // at entry, so these cover exactly this scenario).
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  bool hist_header = false;
  for (const auto& v : snap.values) {
    if (v.kind != obs::MetricKind::Histogram || v.count == 0) continue;
    if (!hist_header) {
      std::printf("latency percentiles:\n");
      hist_header = true;
    }
    std::printf("  %-40s count %llu p50 %.6f p95 %.6f p99 %.6f\n", v.name.c_str(),
                static_cast<unsigned long long>(v.count),
                obs::histogram_quantile(v.edges, v.buckets, 0.50),
                obs::histogram_quantile(v.edges, v.buckets, 0.95),
                obs::histogram_quantile(v.edges, v.buckets, 0.99));
  }

  bool ok = result.violations.empty();
  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());
  }
  // Postmortems captured by the chaos engine at each violating event: the
  // flight recorder's recent-span ring for every involved process.
  for (const std::string& dump : result.flight_dumps) {
    std::fprintf(stderr, "---- flight recorder ----\n%s", dump.c_str());
    if (!dump.empty() && dump.back() != '\n') std::fputc('\n', stderr);
  }
  for (const auto& t : result.outcomes) {
    if (t.final_status == Status::Ok && !t.data_ok) {
      std::fprintf(stderr, "DATA MISMATCH: tenant %d\n", t.tenant);
      ok = false;
    }
  }

  if (verify_determinism) {
    chaos::ScenarioConfig replay_config = config;
    replay_config.trace_out.clear();  // don't overwrite the first run's trace
    const chaos::ScenarioResult replay = chaos::run_scenario(replay_config);
    const std::string diff = result.diff(replay);
    if (diff.empty()) {
      std::printf("determinism: replay identical\n");
    } else {
      std::fprintf(stderr, "DETERMINISM FAILURE:\n%s", diff.c_str());
      ok = false;
    }
  }

  return ok ? 0 : 1;
}
