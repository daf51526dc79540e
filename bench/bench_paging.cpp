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
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"

namespace {

using namespace gpuvm;

constexpr u64 kDevBytes = 2ull << 20;   // 2 MiB GPU: every scenario oversubscribes
constexpr u64 kBufBytes = 512 * 1024;   // input buffer footprint (fully populated)
constexpr u64 kPageBytes = 64 * 1024;   // paged engine page size == hinted slice
constexpr u64 kOutBytes = 64 * 1024;    // annotated output buffer (one page)
constexpr u64 kPatchBytes = 2 * 1024;   // per-cycle host-side update inside the slice

sim::SimParams bench_params() {
  sim::SimParams params;
  params.execute_kernel_bodies = false;  // traffic + modeled time only
  return params;
}

void register_kernel(sim::SimMachine& machine) {
  sim::KernelDef touch;
  touch.name = "touch";
  touch.body = [](sim::KernelExecContext&) { return Status::Ok; };
  // ~100us of compute: long enough to look like work, short enough that
  // modeled time stays transfer-dominated (the thing being optimized).
  touch.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{1e7, 0.0};
  };
  machine.kernels().add(touch);
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "bench_paging: %s\n", what);
  std::exit(1);
}

struct RunResult {
  double ops_per_sec = 0.0;
  double elapsed_seconds = 0.0;
  u64 bytes_moved = 0;  // swap_in + swap_out device traffic
  u64 page_faults = 0;
  u64 prefetched_pages = 0;
  u64 prefetch_unused_pages = 0;
  u64 page_evictions = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
};

/// One tenant's sparse churn loop: cycle buffers, stride the hinted slice
/// one page forward per revisit, patch a few bytes inside it host-side,
/// launch with the input slice hinted read-only and the output hinted
/// written. The entry engine ignores the hints and ships whole footprints.
void tenant_loop(core::Runtime& runtime, vt::Domain& dom, int buffers, int iters, int tenant) {
  core::FrontendApi api(runtime.connect());
  if (!api.connected()) die("handshake failed");
  if (!ok(api.register_kernels({"touch"}))) die("register failed");

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
    if (!ok(api.launch("touch", {{64, 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev(in), sim::KernelArg::dev_out(out.value()),
                        sim::KernelArg::access_hint(0, slice, kPageBytes),
                        sim::KernelArg::access_hint(1, 0, kOutBytes, /*written=*/true)}))) {
      die("launch failed");
    }
    dom.sleep_for(vt::from_micros(20));
  }
}

RunResult run_scenario(bool paged, int tenants, int buffers_per_tenant, int iters) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, bench_params());
  machine.add_gpu(sim::test_gpu(kDevBytes));
  register_kernel(machine);
  cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 16});
  core::RuntimeConfig config;
  config.paging = paged;
  config.page_bytes = kPageBytes;
  config.eviction_policy = "page-lru";
  config.prefetch_policy = "stride";
  config.scheduler.vgpus_per_device = tenants > 1 ? tenants : 1;
  core::Runtime runtime(rt, config);

  vt::StopWatch watch(dom);
  {
    dom.hold();
    std::vector<vt::Thread> apps;
    for (int t = 0; t < tenants; ++t) {
      apps.emplace_back(dom, [&runtime, &dom, buffers_per_tenant, iters, t] {
        tenant_loop(runtime, dom, buffers_per_tenant, iters, t);
      });
    }
    dom.unhold();
  }
  runtime.drain();

  const core::MemStats ms = runtime.memory().stats();
  RunResult result;
  result.elapsed_seconds = watch.elapsed_seconds();
  result.ops_per_sec =
      static_cast<double>(tenants) * iters / std::max(result.elapsed_seconds, 1e-12);
  result.bytes_moved = ms.swap_in_bytes + ms.swap_out_bytes;
  result.page_faults = ms.page_faults;
  result.prefetched_pages = ms.prefetched_pages;
  result.prefetch_unused_pages = ms.prefetch_unused_pages;
  result.page_evictions = ms.page_evictions;
  result.tlb_hits = ms.tlb_hits;
  result.tlb_misses = ms.tlb_misses;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_paging.json";
  int iters = 60;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) die("missing flag value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next();
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      iters = std::atoi(next());
      if (iters <= 0) die("bad --iters");
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      iters = 16;
    } else {
      die("unknown flag (expected --out/--iters/--quick)");
    }
  }

  struct Scenario {
    const char* name;
    int tenants;
    int buffers_per_tenant;
  };
  const Scenario scenarios[] = {
      {"single_tenant", 1, 6},  // 3 MiB working set, intra-app bounce
      {"multi_tenant", 4, 3},   // 6 MiB across tenants, inter-app churn
  };

  RunResult entry[2];
  RunResult paged[2];
  for (size_t s = 0; s < 2; ++s) {
    entry[s] = run_scenario(false, scenarios[s].tenants, scenarios[s].buffers_per_tenant, iters);
    paged[s] = run_scenario(true, scenarios[s].tenants, scenarios[s].buffers_per_tenant, iters);
    for (const auto* r : {&entry[s], &paged[s]}) {
      std::printf(
          "%-14s %-6s bytes=%10llu faults=%6llu prefetch=%6llu ops/sec=%9.1f modeled_s=%.4f\n",
          scenarios[s].name, r == &entry[s] ? "entry" : "paged",
          static_cast<unsigned long long>(r->bytes_moved),
          static_cast<unsigned long long>(r->page_faults),
          static_cast<unsigned long long>(r->prefetched_pages), r->ops_per_sec,
          r->elapsed_seconds);
    }
  }

  const u64 entry_bytes = entry[0].bytes_moved + entry[1].bytes_moved;
  const u64 paged_bytes = paged[0].bytes_moved + paged[1].bytes_moved;
  const double bytes_ratio =
      static_cast<double>(paged_bytes) / static_cast<double>(std::max<u64>(entry_bytes, 1));
  // Speedup on the heavier multi-tenant scenario; per-scenario ops are in
  // the JSON anyway.
  const double ops_speedup = paged[1].ops_per_sec / std::max(entry[1].ops_per_sec, 1e-12);
  const u64 walks = paged[0].tlb_hits + paged[0].tlb_misses + paged[1].tlb_hits +
                    paged[1].tlb_misses;
  const double tlb_hit_rate =
      static_cast<double>(paged[0].tlb_hits + paged[1].tlb_hits) /
      static_cast<double>(std::max<u64>(walks, 1));

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) die("cannot open --out file");
  std::fprintf(f, "{\n  \"bench\": \"paging\",\n  \"iters_per_tenant\": %d,\n", iters);
  std::fprintf(f, "  \"page_bytes\": %llu,\n", static_cast<unsigned long long>(kPageBytes));
  std::fprintf(f, "  \"scenarios\": {\n");
  for (size_t s = 0; s < 2; ++s) {
    std::fprintf(f, "    \"%s\": {\n", scenarios[s].name);
    const struct {
      const char* name;
      const RunResult* r;
    } rows[] = {{"entry", &entry[s]}, {"paged", &paged[s]}};
    for (size_t m = 0; m < 2; ++m) {
      const RunResult& r = *rows[m].r;
      std::fprintf(f,
                   "      \"%s\": {\"bytes_moved\": %llu, \"ops_per_sec\": %.1f, "
                   "\"modeled_seconds\": %.6f, \"page_faults\": %llu, "
                   "\"prefetched_pages\": %llu, \"prefetch_unused_pages\": %llu, "
                   "\"page_evictions\": %llu, \"tlb_hits\": %llu, \"tlb_misses\": %llu}%s\n",
                   rows[m].name, static_cast<unsigned long long>(r.bytes_moved), r.ops_per_sec,
                   r.elapsed_seconds, static_cast<unsigned long long>(r.page_faults),
                   static_cast<unsigned long long>(r.prefetched_pages),
                   static_cast<unsigned long long>(r.prefetch_unused_pages),
                   static_cast<unsigned long long>(r.page_evictions),
                   static_cast<unsigned long long>(r.tlb_hits),
                   static_cast<unsigned long long>(r.tlb_misses), m == 0 ? "," : "");
    }
    std::fprintf(f, "    }%s\n", s == 0 ? "," : "");
  }
  std::fprintf(f, "  },\n  \"tlb_hit_rate\": %.4f,\n", tlb_hit_rate);
  std::fprintf(f, "  \"bytes_ratio\": %.4f,\n  \"ops_speedup\": %.3f\n}\n", bytes_ratio,
               ops_speedup);
  std::fclose(f);
  std::printf("bytes_ratio=%.4f ops_speedup=%.3f tlb_hit_rate=%.4f -> %s\n", bytes_ratio,
              ops_speedup, tlb_hit_rate, out_path.c_str());
  return 0;
}
