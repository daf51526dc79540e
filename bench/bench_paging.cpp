// Paged-vs-entry memory engine benchmark on a sparse-access churn workload.
//
// Two oversubscribed scenarios, each run under both engines:
//
//   single  -- one tenant cycling over 6 fully-populated 512 KiB buffers
//              (3 MiB of working set on a 2 MiB GPU); every launch names
//              one 64 KiB slice of its input via an AccessHint and the
//              slice strides forward one page per revisit.
//   multi   -- 4 tenants with 3 such buffers each (6 MiB total on the same
//              GPU), round-robin launches force inter-app churn on top of
//              the sparse access pattern.
//
//   entry  -- entry-granular engine (paging=false): hints are ignored, so
//             every re-materialization after an eviction ships the whole
//             512 KiB validated footprint back to the device.
//   paged  -- page engine (paging=true, 64 KiB pages, page-lru eviction,
//             stride prefetch): only the hinted page faults in at launch,
//             the strided access trains the prefetcher to ship the next
//             pages asynchronously, and written hints scope the write-back.
//
// The kernels never touch bytes outside their hinted slices, so both
// engines produce identical results; the paged engine just refuses to move
// the cold 7/8 of every buffer. Times are modeled (virtual-clock) seconds
// and include the paged engine's TLB walk charges.
//
// Emits machine-readable JSON (default BENCH_paging.json) with per-scenario
// bytes moved and ops/sec for both engines plus the aggregate bytes_ratio
// (paged/entry launch-path traffic, CI gate <= 0.5) and ops_speedup
// (>= 1.5), and the paged engine's fault/TLB/prefetch counters.
//
// Flags: --out <path>  --iters <n>  --quick
#include <cstdio>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "harness.hpp"

namespace {

using namespace gpuvm;
using harness::die;

constexpr u64 kDevBytes = 2ull << 20;   // 2 MiB GPU: every scenario oversubscribes
constexpr u64 kBufBytes = 512 * 1024;   // input buffer footprint (fully populated)
constexpr u64 kPageBytes = 64 * 1024;   // paged engine page size == hinted slice
constexpr u64 kOutBytes = 64 * 1024;    // annotated output buffer (one page)
constexpr u64 kPatchBytes = 2 * 1024;   // per-cycle host-side update inside the slice

struct RunResult {
  double ops_per_sec = 0.0;
  double elapsed_seconds = 0.0;
  u64 bytes_moved = 0;  // swap_in + swap_out device traffic
  core::MemStats mem;   // the paged engine's fault/TLB/prefetch counters
};

/// One tenant's sparse churn loop: cycle buffers, stride the hinted slice
/// one page forward per revisit, patch a few bytes inside it host-side,
/// launch with the input slice hinted read-only and the output hinted
/// written. The entry engine ignores the hints and ships whole footprints.
void tenant_loop(core::Runtime& runtime, vt::Domain& dom, int buffers, int iters, int tenant) {
  core::FrontendApi api(runtime.connect());
  if (!api.connected()) die("handshake failed");
  if (!ok(api.register_kernels({harness::kTouch}))) die("register failed");

  std::vector<VirtualPtr> inputs;
  std::vector<std::byte> full(kBufBytes, std::byte{0x5a});
  for (int b = 0; b < buffers; ++b) {
    auto ptr = api.malloc(kBufBytes);
    if (!ptr) die("malloc failed");
    if (!ok(api.memcpy_h2d(ptr.value(), full))) die("init copy failed");
    inputs.push_back(ptr.value());
  }
  auto out = api.malloc(kOutBytes);
  if (!out) die("out malloc failed");

  const u64 pages_per_buf = kBufBytes / kPageBytes;
  std::vector<std::byte> patch(kPatchBytes, std::byte{0xc3});
  for (int i = 0; i < iters; ++i) {
    const auto idx = static_cast<size_t>(i) % inputs.size();
    const VirtualPtr in = inputs[idx];
    // One page per launch, advancing one page every time this buffer comes
    // around again: a uniform cross-launch stride the prefetcher can learn.
    const u64 slice = (static_cast<u64>(i) / inputs.size() + static_cast<u64>(tenant)) *
                      kPageBytes % (pages_per_buf * kPageBytes);
    if (!ok(api.memcpy_h2d(in + slice, patch))) die("patch failed");
    if (!ok(api.launch(harness::kTouch, {{64, 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev(in), sim::KernelArg::dev_out(out.value()),
                        sim::KernelArg::access_hint(0, slice, kPageBytes),
                        sim::KernelArg::access_hint(1, 0, kOutBytes, /*written=*/true)}))) {
      die("launch failed");
    }
    dom.sleep_for(vt::from_micros(20));
  }
}

RunResult run_scenario(bool paged, int tenants, int buffers_per_tenant, int iters) {
  core::RuntimeConfig config;
  config.paging = paged;
  config.page_bytes = kPageBytes;
  config.eviction_policy = "page-lru";
  config.prefetch_policy = "stride";
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
  const std::string out = harness::parse_flags(
      argc, argv, "bench_paging", [&] { iters = 16; }, {harness::count_flag("--iters", &iters)});

  struct Scenario {
    const char* name;
    int tenants;
    int buffers_per_tenant;
  };
  const Scenario scenarios[] = {
      {"single_tenant", 1, 6},  // 3 MiB working set, intra-app bounce
      {"multi_tenant", 4, 3},   // 6 MiB across tenants, inter-app churn
  };

  const char* const engines[] = {"entry", "paged"};
  RunResult runs[2][2];  // [scenario][engine]
  for (size_t s = 0; s < 2; ++s) {
    for (size_t e = 0; e < 2; ++e) {
      RunResult& r = runs[s][e];
      r = run_scenario(/*paged=*/e == 1, scenarios[s].tenants, scenarios[s].buffers_per_tenant,
                       iters);
      std::printf(
          "%-14s %-6s bytes=%10llu faults=%6llu prefetch=%6llu ops/sec=%9.1f modeled_s=%.4f\n",
          scenarios[s].name, engines[e], static_cast<unsigned long long>(r.bytes_moved),
          static_cast<unsigned long long>(r.mem.page_faults),
          static_cast<unsigned long long>(r.mem.prefetched_pages), r.ops_per_sec,
          r.elapsed_seconds);
    }
  }

  const u64 entry_bytes = runs[0][0].bytes_moved + runs[1][0].bytes_moved;
  const u64 paged_bytes = runs[0][1].bytes_moved + runs[1][1].bytes_moved;
  const double bytes_ratio =
      static_cast<double>(paged_bytes) / static_cast<double>(std::max<u64>(entry_bytes, 1));
  // Speedup on the heavier multi-tenant scenario; per-scenario ops are in
  // the JSON anyway.
  const double ops_speedup = runs[1][1].ops_per_sec / std::max(runs[1][0].ops_per_sec, 1e-12);
  const u64 tlb_hits = runs[0][1].mem.tlb_hits + runs[1][1].mem.tlb_hits;
  const u64 walks = tlb_hits + runs[0][1].mem.tlb_misses + runs[1][1].mem.tlb_misses;
  const double tlb_hit_rate =
      static_cast<double>(tlb_hits) / static_cast<double>(std::max<u64>(walks, 1));

  harness::Json json("paging");
  json.num("iters_per_tenant", iters).num("page_bytes", kPageBytes).object("scenarios");
  for (size_t s = 0; s < 2; ++s) {
    json.object(scenarios[s].name);
    for (size_t e = 0; e < 2; ++e) {
      const RunResult& r = runs[s][e];
      json.object(engines[e], /*inline_=*/true)
          .num("bytes_moved", r.bytes_moved).num("ops_per_sec", r.ops_per_sec, 1)
          .num("modeled_seconds", r.elapsed_seconds, 6).num("page_faults", r.mem.page_faults)
          .num("prefetched_pages", r.mem.prefetched_pages)
          .num("prefetch_unused_pages", r.mem.prefetch_unused_pages)
          .num("page_evictions", r.mem.page_evictions).num("tlb_hits", r.mem.tlb_hits)
          .num("tlb_misses", r.mem.tlb_misses)
          .end();
    }
    json.end();
  }
  json.end()
      .num("tlb_hit_rate", tlb_hit_rate, 4).num("bytes_ratio", bytes_ratio, 4)
      .num("ops_speedup", ops_speedup, 3);
  json.save(out);
  std::printf("bytes_ratio=%.4f ops_speedup=%.3f tlb_hit_rate=%.4f -> %s\n", bytes_ratio,
              ops_speedup, tlb_hit_rate, out.c_str());
  return 0;
}
