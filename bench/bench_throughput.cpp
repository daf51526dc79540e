// N-tenant contention throughput benchmark for the dispatch hot path.
//
// Measures aggregate tenant throughput (full malloc -> copyHD -> launch ->
// copyDH -> free cycles per modeled second) at 1/4/8/16 concurrent tenants
// under the two dispatch disciplines:
//
//   global_lock  -- the pre-sharding baseline: one daemon-wide lock held
//                   across every call, synchronous eviction write-back.
//   sharded      -- per-context locks, sharded tables, async write-back.
//
// Times are modeled (virtual-clock) seconds: the speedup comes from
// overlapping the modeled device/engine/channel delays across tenants, not
// from host-side lock spinning. Kernel bodies are skipped (correctness is
// covered by the test suite).
//
// Emits machine-readable JSON (default BENCH_throughput.json) with both
// modes' ops/sec per tenant count plus the 8-tenant speedup -- the number
// the CI bench smoke job tracks.
//
// --trace-overhead switches to the tracing-cost smoke mode the CI trace
// job runs: the same 8-tenant sharded workload back to back with the obs
// TraceRecorder detached, then attached, timed in host wall-clock (the
// modeled virtual makespan is identical by construction -- tracing costs
// no virtual time -- so only wall time can show the instrumentation tax).
// Best-of-N wall times keep scheduler noise out of the ratio. Emits
// {"overhead_ratio": traced/untraced, ...} and optionally the captured
// trace (--trace-out) as the CI artifact.
//
// Flags: --out <path>  --iters <n>  --tenant-counts <csv>  --quick
//        --trace-overhead  --reps <n>  --trace-out <path.json>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "harness.hpp"

namespace {

using namespace gpuvm;
using harness::die;

constexpr u64 kDevBytes = 8ull << 20;  // 8 MiB per GPU: no swap pressure
constexpr int kGpus = 4;
constexpr int kVgpusPerDevice = 4;  // 16 vGPUs: global_lock safe up to 16 tenants
constexpr u64 kFloats = 16 * 1024;  // 64 KiB working buffer per cycle
// ~200us of compute on the 100-GFLOPS test GPU: engine time dominates the
// per-call channel hops, as in the paper's workloads.
constexpr double kBusyFlops = 2e7;

/// One full environment run; returns aggregate ops per modeled second.
struct RunResult {
  double ops_per_sec = 0.0;
  double elapsed_seconds = 0.0;
  u64 lock_contended = 0;
  u64 async_writebacks = 0;
  u64 trace_events = 0;
  double export_wall_seconds = 0.0;  // host time spent exporting the trace JSON
};

RunResult run_mode(core::DispatchMode mode, bool async_writeback, int tenants, int iters,
                   bool traced = false, std::string* trace_json = nullptr) {
  core::RuntimeConfig config;
  config.dispatch_mode = mode;
  config.async_writeback = async_writeback;
  config.scheduler.vgpus_per_device = kVgpusPerDevice;
  // A traced run's recorder shares the run's domain so event stamps use its
  // clock; untraced runs pay nothing beyond the null-check in the emit
  // helpers.
  harness::TenantEnv env(kGpus, kDevBytes, cudart::CudaRtConfig{4 * 1024, 64}, config, traced);
  harness::add_kernel(env.machine(), "busy", kBusyFlops);
  vt::Domain& dom = env.dom();

  const auto tenant_loop = [&](int tenant) {
    core::FrontendApi api(env.runtime().connect());
    if (!api.connected()) die("handshake failed");
    if (!ok(api.register_kernels({"busy"}))) die("register failed");
    std::vector<float> host(kFloats, static_cast<float>(tenant));
    std::vector<float> back(kFloats);
    for (int i = 0; i < iters; ++i) {
      auto ptr = api.malloc(kFloats * sizeof(float));
      if (!ptr) die("malloc failed");
      if (!ok(api.copy_in(ptr.value(), host))) die("copy_in failed");
      if (!ok(api.launch("busy", {{64, 1, 1}, {256, 1, 1}},
                         {sim::KernelArg::dev(ptr.value())}))) {
        die("launch failed");
      }
      if (!ok(api.copy_out(back, ptr.value()))) die("copy_out failed");
      if (!ok(api.free(ptr.value()))) die("free failed");
      dom.sleep_for(vt::from_micros(50));  // short CPU phase between cycles
    }
  };

  RunResult result;
  result.elapsed_seconds = env.run_tenants(tenants, tenant_loop);
  result.ops_per_sec =
      static_cast<double>(tenants) * iters / std::max(result.elapsed_seconds, 1e-12);
  result.lock_contended = env.runtime().stats().dispatch_lock_contended;
  result.async_writebacks = env.runtime().memory().stats().async_writebacks;
  if (obs::TraceRecorder* recorder = env.recorder()) {
    result.trace_events = recorder->size();
    if (trace_json != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      *trace_json = recorder->export_chrome_json();
      result.export_wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
  }
  return result;
}

/// One wall-clock-timed run of the sharded workload, optionally traced.
/// Returns host seconds (the virtual makespan is trace-invariant). Exporting
/// the captured trace (--trace-out) is not part of the run: its time is
/// left out, so every rep is a sample of what tracing costs the run.
double run_walltimed(int tenants, int iters, bool traced, std::string* trace_json,
                     u64* trace_events) {
  const auto start = std::chrono::steady_clock::now();
  const RunResult r = run_mode(core::DispatchMode::Sharded, /*async_writeback=*/true, tenants,
                               iters, traced, trace_json);
  const auto stop = std::chrono::steady_clock::now();
  if (trace_events != nullptr) *trace_events = r.trace_events;
  return std::chrono::duration<double>(stop - start).count() - r.export_wall_seconds;
}

/// Tracing-cost smoke: best-of-`reps` wall time with tracing off vs on.
int run_trace_overhead(const std::string& out_path, const std::string& trace_out, int tenants,
                       int iters, int reps) {
  double best_off = 0.0;
  double best_on = 0.0;
  std::string trace_json;
  for (int r = 0; r < reps; ++r) {
    const double off = run_walltimed(tenants, iters, false, nullptr, nullptr);
    u64 events = 0;
    const bool want_json = r == 0 && !trace_out.empty();
    const double on =
        run_walltimed(tenants, iters, true, want_json ? &trace_json : nullptr, &events);
    if (r == 0 || off < best_off) best_off = off;
    if (r == 0 || on < best_on) best_on = on;
    std::printf("rep %d: untraced %.4fs traced %.4fs (%llu events)\n", r, off, on,
                static_cast<unsigned long long>(events));
  }
  const double total_ops = static_cast<double>(tenants) * iters;
  const double ratio = best_on / std::max(best_off, 1e-12);

  if (!trace_out.empty() && !trace_json.empty()) {
    harness::write_file(trace_out, trace_json, "--trace-out");
    std::printf("trace written to %s\n", trace_out.c_str());
  }

  harness::Json json("trace_overhead");
  json.num("tenants", tenants).num("iters_per_tenant", iters).num("reps", reps);
  json.num("untraced_wall_seconds", best_off, 6).num("traced_wall_seconds", best_on, 6);
  json.num("untraced_ops_per_sec", total_ops / std::max(best_off, 1e-12), 1)
      .num("traced_ops_per_sec", total_ops / std::max(best_on, 1e-12), 1);
  json.num("overhead_ratio", ratio, 4);
  json.save(out_path);
  std::printf("trace overhead ratio=%.4f (traced/untraced wall time) -> %s\n", ratio,
              out_path.c_str());
  return 0;
}

std::vector<int> parse_counts(const char* csv) {
  std::vector<int> counts;
  std::istringstream in(csv);
  for (std::string tok; std::getline(in, tok, ',');) {
    const int n = std::atoi(tok.c_str());
    if (n <= 0) die("bad --tenant-counts");
    counts.push_back(n);
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  int iters = 40;
  int reps = 3;
  bool trace_overhead = false;
  std::vector<int> counts = {1, 4, 8, 16};
  const std::string out = harness::parse_flags(
      argc, argv, "bench_throughput",
      [&] {
        iters = 8;
        counts = {1, 8};
      },
      {harness::count_flag("--iters", &iters),
       {"--tenant-counts", true, [&](const char* csv) { counts = parse_counts(csv); }},
       harness::switch_flag("--trace-overhead", &trace_overhead),
       harness::count_flag("--reps", &reps),
       {"--trace-out", true, [&](const char* path) { trace_out = path; }}});

  if (trace_overhead) {
    return run_trace_overhead(out, trace_out, /*tenants=*/8, iters, reps);
  }

  struct Mode {
    const char* name;
    core::DispatchMode mode;
    bool async_writeback;
  };
  const Mode modes[] = {
      {"global_lock", core::DispatchMode::GlobalLock, false},
      {"sharded", core::DispatchMode::Sharded, true},
  };

  std::vector<std::vector<RunResult>> results(2);
  for (size_t m = 0; m < 2; ++m) {
    for (int tenants : counts) {
      const RunResult r = run_mode(modes[m].mode, modes[m].async_writeback, tenants, iters);
      results[m].push_back(r);
      std::printf("%-12s tenants=%-3d ops/sec=%10.1f modeled_s=%.4f contended=%llu\n",
                  modes[m].name, tenants, r.ops_per_sec, r.elapsed_seconds,
                  static_cast<unsigned long long>(r.lock_contended));
    }
  }

  double speedup8 = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 8) speedup8 = results[1][i].ops_per_sec / results[0][i].ops_per_sec;
  }

  harness::Json json("throughput");
  json.num("iters_per_tenant", iters).num("gpus", kGpus).num("vgpus_per_device", kVgpusPerDevice);
  json.object("modes");
  for (size_t m = 0; m < 2; ++m) {
    json.array(modes[m].name);
    for (size_t i = 0; i < counts.size(); ++i) {
      const RunResult& r = results[m][i];
      json.object(nullptr, /*inline_=*/true)
          .num("tenants", counts[i]).num("ops_per_sec", r.ops_per_sec, 1)
          .num("modeled_seconds", r.elapsed_seconds, 6)
          .num("dispatch_lock_contended", r.lock_contended)
          .num("async_writebacks", r.async_writebacks)
          .end();
    }
    json.end();
  }
  json.end().num("speedup_8_tenants", speedup8, 3);
  json.save(out);
  std::printf("speedup_8_tenants=%.3f -> %s\n", speedup8, out.c_str());
  return 0;
}
