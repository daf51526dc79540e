// Swap-churn benchmark for the incremental swap engine.
//
// Two oversubscribed scenarios, each run under both swap engines:
//
//   single  -- one tenant cycling over 4 sparse input buffers (3 MiB of
//              working set on a 2 MiB GPU) with a small annotated output
//              buffer: every launch forces an intra-app bounce.
//   multi   -- 4 tenants with 1.5 MiB each (6 MiB total on the same GPU),
//              round-robin launches force inter-app swap churn.
//
//   naive        -- whole-buffer engine (incremental_swap=false): every
//                   eviction writes the full footprint back, every
//                   materialization re-uploads it.
//   incremental  -- dirty-interval engine: clean inputs evict for free,
//                   uploads ship only validated/dirty ranges.
//
// Inputs are half-populated and read-only (kernels annotate their single
// written argument with dev_out), so the incremental engine skips the D2H
// leg entirely and halves the H2D leg. Times are modeled (virtual-clock)
// seconds; the speedup is modeled transfer time the engine no longer
// spends.
//
// Emits machine-readable JSON (default BENCH_swap.json) with per-scenario
// bytes moved and ops/sec for both engines plus the aggregate bytes_ratio
// (incremental/naive, CI gate <= 0.5) and ops_speedup (>= 1.5).
//
// With --paging a third, non-gating row runs each scenario under the
// page-granular engine (64 KiB pages, page-lru, stride prefetch). The
// loop's launches carry no AccessHints, so this measures the paged
// engine's conservative whole-entry fallback -- a sanity row, not the
// engine's best case (bench_paging covers that).
//
// Flags: --out <path>  --iters <n>  --quick  --paging
#include <cstdio>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "harness.hpp"

namespace {

using namespace gpuvm;
using harness::die;

constexpr u64 kDevBytes = 2ull << 20;   // 2 MiB GPU: every scenario oversubscribes
constexpr u64 kBufBytes = 768 * 1024;   // input buffer footprint
constexpr u64 kOutBytes = 64 * 1024;    // annotated output buffer
constexpr u64 kPatchBytes = 2 * 1024;   // per-cycle host-side sparse update

struct RunResult {
  double ops_per_sec = 0.0;
  double elapsed_seconds = 0.0;
  u64 bytes_moved = 0;  // swap_in + swap_out device traffic
  core::MemStats mem;   // swapped_entries counts evicted entries
};

/// One tenant's churn loop: cycle buffers, patch a sparse range host-side,
/// launch an annotated kernel reading the input and writing `out`.
void tenant_loop(core::Runtime& runtime, vt::Domain& dom, int buffers, int iters, int tenant) {
  core::FrontendApi api(runtime.connect());
  if (!api.connected()) die("handshake failed");
  if (!ok(api.register_kernels({harness::kTouch}))) die("register failed");

  std::vector<VirtualPtr> inputs;
  std::vector<std::byte> half(kBufBytes / 2, std::byte{0x5a});
  for (int b = 0; b < buffers; ++b) {
    auto ptr = api.malloc(kBufBytes);
    if (!ptr) die("malloc failed");
    // Sparse population: only the first half is ever written, so the
    // incremental engine never ships the zero tail.
    if (!ok(api.memcpy_h2d(ptr.value(), half))) die("init copy failed");
    inputs.push_back(ptr.value());
  }
  auto out = api.malloc(kOutBytes);
  if (!out) die("out malloc failed");

  std::vector<std::byte> patch(kPatchBytes, std::byte{0xc3});
  for (int i = 0; i < iters; ++i) {
    const VirtualPtr in = inputs[static_cast<size_t>(i) % inputs.size()];
    const u64 off = (static_cast<u64>(i) * 4096 + static_cast<u64>(tenant) * 512) %
                    (kBufBytes / 2 - kPatchBytes);
    if (!ok(api.memcpy_h2d(in + off, patch))) die("patch failed");
    if (!ok(api.launch(harness::kTouch, {{64, 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev(in), sim::KernelArg::dev_out(out.value())}))) {
      die("launch failed");
    }
    dom.sleep_for(vt::from_micros(20));
  }
}

RunResult run_scenario(bool incremental, bool paged, int tenants, int buffers_per_tenant,
                       int iters) {
  core::RuntimeConfig config;
  config.incremental_swap = incremental;
  config.paging = paged;
  config.scheduler.vgpus_per_device = tenants > 1 ? tenants : 1;
  harness::TenantEnv env(1, kDevBytes, cudart::CudaRtConfig{4 * 1024, 16}, config);

  RunResult result;
  result.elapsed_seconds = env.run_tenants(tenants, [&](int t) {
    tenant_loop(env.runtime(), env.dom(), buffers_per_tenant, iters, t);
  });
  result.mem = env.runtime().memory().stats();
  result.ops_per_sec =
      static_cast<double>(tenants) * iters / std::max(result.elapsed_seconds, 1e-12);
  result.bytes_moved = result.mem.swap_in_bytes + result.mem.swap_out_bytes;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 60;
  bool with_paging = false;
  const std::string out = harness::parse_flags(
      argc, argv, "bench_swap", [&] { iters = 16; },
      {harness::count_flag("--iters", &iters), harness::switch_flag("--paging", &with_paging)});

  struct Scenario {
    const char* name;
    int tenants;
    int buffers_per_tenant;
  };
  const Scenario scenarios[] = {
      {"single_tenant", 1, 4},  // 3 MiB working set, intra-app bounce
      {"multi_tenant", 4, 2},   // 6 MiB across tenants, inter-app swap
  };

  // Engines in row order: naive, incremental, then (with --paging) paged.
  const char* const engines[] = {"naive", "incremental", "paged"};
  const int engine_count = with_paging ? 3 : 2;
  RunResult runs[2][3];  // [scenario][engine]
  for (size_t s = 0; s < 2; ++s) {
    for (int e = 0; e < engine_count; ++e) {
      RunResult& r = runs[s][e];
      r = run_scenario(/*incremental=*/e > 0, /*paged=*/e == 2, scenarios[s].tenants,
                       scenarios[s].buffers_per_tenant, iters);
      std::printf("%-14s %-12s bytes=%10llu swaps=%6llu ops/sec=%9.1f modeled_s=%.4f\n",
                  scenarios[s].name, engines[e], static_cast<unsigned long long>(r.bytes_moved),
                  static_cast<unsigned long long>(r.mem.swapped_entries), r.ops_per_sec,
                  r.elapsed_seconds);
    }
  }

  const u64 naive_bytes = runs[0][0].bytes_moved + runs[1][0].bytes_moved;
  const u64 incr_bytes = runs[0][1].bytes_moved + runs[1][1].bytes_moved;
  const double bytes_ratio =
      static_cast<double>(incr_bytes) / static_cast<double>(std::max<u64>(naive_bytes, 1));
  // Speedup on the heavier multi-tenant scenario; report both per-scenario
  // ops below anyway.
  const double ops_speedup = runs[1][1].ops_per_sec / std::max(runs[1][0].ops_per_sec, 1e-12);

  harness::Json json("swap");
  json.num("iters_per_tenant", iters).object("scenarios");
  for (size_t s = 0; s < 2; ++s) {
    json.object(scenarios[s].name);
    for (int e = 0; e < engine_count; ++e) {
      const RunResult& r = runs[s][e];
      json.object(engines[e], /*inline_=*/true)
          .num("bytes_moved", r.bytes_moved).num("swap_ops", r.mem.swapped_entries)
          .num("ops_per_sec", r.ops_per_sec, 1).num("modeled_seconds", r.elapsed_seconds, 6)
          .num("dirty_bytes_saved", r.mem.dirty_bytes_saved)
          .num("clean_swap_skips", r.mem.clean_swap_skips)
          .end();
    }
    json.end();
  }
  json.end().num("bytes_ratio", bytes_ratio, 4).num("ops_speedup", ops_speedup, 3);
  json.save(out);
  std::printf("bytes_ratio=%.4f ops_speedup=%.3f -> %s\n", bytes_ratio, ops_speedup,
              out.c_str());
  return 0;
}
