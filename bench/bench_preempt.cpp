// Preemptive time-quantum scheduling benchmark (nvshare-style rotation).
//
// A memory-oversubscribed bursty-interactive + batch mix on one small GPU:
//
//   batch x3      -- 1.375 MiB working set each (4.1 MiB total on a 2 MiB
//                    device), whole-buffer kernels separated by short CPU
//                    phases. Working sets cannot co-reside, and a sleeping
//                    tenant accepts the cooperative inter-application swap
//                    (section 4.5), so under the non-preemptive FCFS
//                    baseline peers evict each other's working set between
//                    launches: most launches re-materialize the full
//                    buffer, and a tenant that finds no willing victim
//                    backs off, leaving the device idle.
//   interactive   -- one tenant firing short kernels on a 64 KiB buffer
//                    with think-time sleeps between bursts; per-burst
//                    latency is recorded for p50/p99.
//
// The TQ policy serializes device access into exclusive time quanta: the
// bound tenant's working set stays resident for a whole quantum (no
// mid-streak eviction), so swap traffic is paid per *rotation* instead of
// per *launch*. The quantum must be sized to the working-set swap time --
// this simulation mem-scales a 2 GiB card down to 2 MiB, which amplifies
// modeled transfer times by the same factor, so a ~0.5 s base quantum here
// corresponds to nvshare's tens-of-seconds TQ on a real multi-GiB GPU.
// The benchmark runs the mix under FCFS and TQ, sweeps the quantum
// (99.7 ms / 499.3 ms / 1.9973 s -- odd values avoid virtual-clock ties;
// the short quantum shows the anti-thrashing governor escalating until
// rotations stop thrashing), and also reports the deficit fair-share
// policy at the headline quantum.
//
// Times are modeled (virtual-clock) seconds. Emits machine-readable JSON
// (default BENCH_preempt.json) with per-policy makespan, interactive
// latency quantiles, swap traffic, preemption/governor counters, and the
// headline makespan_ratio (TQ/FCFS, CI gate <= 0.9).
//
// Flags: --out <path>  --iters <n>  --quick
// Debug: BENCH_PREEMPT_TRACE=<path> dumps a Chrome trace of the headline
// TQ run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "harness.hpp"

namespace {

using namespace gpuvm;
using harness::die;

constexpr u64 kDevBytes = 2ull << 20;          // 2 MiB device
constexpr u64 kBatchBytes = 1408 * 1024;       // 1.375 MiB per batch tenant
constexpr u64 kInteractiveBytes = 64 * 1024;   // interactive working set
constexpr int kBatchTenants = 3;               // ~2.1x oversubscription total
constexpr double kThinkTimeUs = 497.0;         // interactive inter-burst sleep
// Headline TQ quantum and governor ceiling, sized to the mem-scaled
// working-set swap time (~0.3 s to materialize one batch buffer).
constexpr double kQuantumSeconds = 0.4993;
constexpr double kMaxQuantumSeconds = 3.9946;
constexpr double kPokeFlops = 1e6;             // 10us: the interactive burst

struct MixResult {
  double makespan_seconds = 0.0;
  double interactive_p50_ms = 0.0;
  double interactive_p99_ms = 0.0;
  u64 swap_bytes = 0;
  u64 preemptions = 0;
  u64 thrash_trips = 0;
};

/// Whole-buffer batch churn: every launch writes the full working set, so
/// an eviction ships the lot back out.
void batch_tenant(core::Runtime& runtime, vt::Domain& dom, int iters, int tenant) {
  core::FrontendApi api(runtime.connect());
  if (!api.connected()) die("handshake failed");
  if (!ok(api.register_kernels({harness::kTouch}))) die("register failed");
  auto buf = api.malloc(kBatchBytes);
  if (!buf) die("batch malloc failed");
  std::vector<std::byte> init(kBatchBytes, std::byte{0x6b});
  if (!ok(api.memcpy_h2d(buf.value(), init))) die("init copy failed");
  for (int i = 0; i < iters; ++i) {
    if (!ok(api.launch(harness::kTouch, {{64, 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev_out(buf.value())}))) {
      die("batch launch failed");
    }
    // A real CPU phase between launches (distinct odd-valued per-tenant
    // periods keep virtual wakeups tie-free): the window in which a
    // non-preemptive peer's inter-application swap can claim the device.
    dom.sleep_for(vt::from_micros(193.0 + 2.0 * static_cast<double>(tenant)));
  }
}

void interactive_tenant(core::Runtime& runtime, vt::Domain& dom, int bursts,
                        std::vector<double>* latencies_ms) {
  core::FrontendApi api(runtime.connect());
  if (!api.connected()) die("handshake failed");
  if (!ok(api.register_kernels({"poke"}))) die("register failed");
  auto buf = api.malloc(kInteractiveBytes);
  if (!buf) die("interactive malloc failed");
  std::vector<std::byte> init(kInteractiveBytes, std::byte{0x11});
  if (!ok(api.memcpy_h2d(buf.value(), init))) die("init copy failed");
  latencies_ms->reserve(static_cast<size_t>(bursts));
  for (int b = 0; b < bursts; ++b) {
    const vt::TimePoint t0 = dom.now();
    if (!ok(api.launch("poke", {{8, 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev_out(buf.value())}))) {
      die("interactive launch failed");
    }
    latencies_ms->push_back(vt::to_seconds(dom.now() - t0) * 1e3);
    dom.sleep_for(vt::from_micros(kThinkTimeUs));
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

MixResult run_mix(const std::string& policy, double quantum_seconds, int iters) {
  const char* trace_path = std::getenv("BENCH_PREEMPT_TRACE");
  const bool traced =
      trace_path != nullptr && policy == "tq" && quantum_seconds == kQuantumSeconds;
  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = kBatchTenants + 1;
  config.scheduler.policy = policy;
  if (quantum_seconds > 0.0) {
    config.scheduler.quantum_seconds = quantum_seconds;
    config.scheduler.max_quantum_seconds = kMaxQuantumSeconds;
  }
  harness::TenantEnv env(1, kDevBytes, cudart::CudaRtConfig{4 * 1024, 16}, config, traced);
  harness::add_kernel(env.machine(), "poke", kPokeFlops);

  std::vector<double> latencies_ms;
  MixResult result;
  result.makespan_seconds = env.run_tenants(kBatchTenants + 1, [&](int t) {
    if (t < kBatchTenants) {
      batch_tenant(env.runtime(), env.dom(), iters, t);
    } else {
      interactive_tenant(env.runtime(), env.dom(), std::max(8, iters / 2), &latencies_ms);
    }
  });
  if (traced) {
    env.recorder()->export_chrome_json_file(trace_path);
    std::printf("trace written to %s\n", trace_path);
  }

  const core::MemStats ms = env.runtime().memory().stats();
  const core::SchedulerStats ss = env.runtime().scheduler().stats();
  result.interactive_p50_ms = percentile(latencies_ms, 0.50);
  result.interactive_p99_ms = percentile(latencies_ms, 0.99);
  result.swap_bytes = ms.swap_in_bytes + ms.swap_out_bytes;
  result.preemptions = ss.preemptions;
  result.thrash_trips = ss.thrash_trips;
  return result;
}

void print_row(const char* label, const MixResult& r) {
  std::printf("%-16s makespan=%8.4fs p50=%7.3fms p99=%7.3fms swap=%9llu KiB "
              "preempts=%5llu trips=%llu\n",
              label, r.makespan_seconds, r.interactive_p50_ms, r.interactive_p99_ms,
              static_cast<unsigned long long>(r.swap_bytes / 1024),
              static_cast<unsigned long long>(r.preemptions),
              static_cast<unsigned long long>(r.thrash_trips));
}

/// One policy run's members, into the object the caller opened.
void mix_json(harness::Json& json, const MixResult& r) {
  json.num("makespan_seconds", r.makespan_seconds, 6)
      .num("interactive_p50_ms", r.interactive_p50_ms, 6)
      .num("interactive_p99_ms", r.interactive_p99_ms, 6)
      .num("swap_bytes", r.swap_bytes)
      .num("preemptions", r.preemptions)
      .num("thrash_trips", r.thrash_trips);
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 1600;
  const std::string out = harness::parse_flags(
      argc, argv, "bench_preempt", [&] { iters = 800; }, {harness::count_flag("--iters", &iters)});

  // Baseline and headline comparison at the swap-time-sized quantum.
  const MixResult fcfs = run_mix("fcfs", 0.0, iters);
  print_row("fcfs", fcfs);
  const MixResult tq = run_mix("tq", kQuantumSeconds, iters);
  print_row("tq", tq);
  const MixResult fair = run_mix("fair", kQuantumSeconds, iters);
  print_row("fair", fair);

  // Quantum sweep: a short quantum expires during re-materialization and
  // thrashes until the governor escalates it (trips > 0); a long quantum
  // amortizes rotation swaps but holds interactive bursts longer -- the
  // tradeoff the thrash governor navigates at runtime.
  const double sweep_us[] = {99700.0, 499300.0, 1997300.0};
  MixResult sweep[3];
  for (size_t q = 0; q < 3; ++q) {
    sweep[q] = run_mix("tq", sweep_us[q] * 1e-6, iters);
    char label[32];
    std::snprintf(label, sizeof(label), "tq@%.0fms", sweep_us[q] / 1000.0);
    print_row(label, sweep[q]);
  }

  const double makespan_ratio = tq.makespan_seconds / std::max(fcfs.makespan_seconds, 1e-12);
  const double p99_ratio =
      tq.interactive_p99_ms / std::max(fcfs.interactive_p99_ms, 1e-12);
  std::printf("makespan ratio (tq/fcfs) %.4f | interactive p99 ratio %.4f\n", makespan_ratio,
              p99_ratio);

  harness::Json json("preempt");
  json.num("batch_tenants", kBatchTenants).num("batch_iters", iters);
  json.num("device_bytes", kDevBytes).num("batch_working_set_bytes", kBatchBytes);
  json.num("quantum_us", kQuantumSeconds * 1e6, 0)
      .num("max_quantum_us", kMaxQuantumSeconds * 1e6, 0);
  for (const auto& [name, r] : {std::pair{"fcfs", &fcfs}, {"tq", &tq}, {"fair", &fair}}) {
    json.object(name);
    mix_json(json, *r);
    json.end();
  }
  json.array("quantum_sweep");
  for (size_t q = 0; q < 3; ++q) {
    json.object(nullptr, /*inline_=*/true).num("quantum_us", sweep_us[q], 0);
    mix_json(json, sweep[q]);
    json.end();
  }
  json.end();
  json.num("makespan_ratio", makespan_ratio, 6).num("interactive_p99_ratio", p99_ratio, 6);
  json.save(out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
