// Live-migration traffic benchmark: pre-copy + stop-and-copy vs naive.
//
// One tenant with a sparse working set (4 buffers, ~30% populated) keeps
// launching kernels that dirty a small output buffer while the job is
// live-migrated to a second daemon over a modeled cluster link. The
// sparse checkpoint image ships only validated swap ranges, the pre-copy
// rounds ship only dirty-interval deltas, and the stop-and-copy ships the
// final delta plus the resume metadata -- so total shipped bytes must come
// in well under the naive whole-footprint image a stop-the-world migration
// would move, and the downtime (stop-and-copy window) must be a small
// fraction of the end-to-end migration.
//
// Emits machine-readable JSON (default BENCH_migration.json) with the
// per-phase byte counts plus the two CI-gated ratios:
//
//   stop_copy_over_image  -- stop-and-copy bytes / round-0 image bytes
//                            (gate <= 0.5: downtime traffic is a fraction
//                            of the image, the point of pre-copying)
//   total_over_naive      -- (pre-copy + stop-and-copy) / naive image
//                            bytes (gate <= 0.5: sparse + incremental
//                            shipping beats the dense footprint)
//
// With --paging the same migration also runs with the page-granular memory
// engine on both daemons and its per-phase byte counts land in a
// non-gating "paged" object -- evidence that checkpoints and pre-copy
// deltas survive page-scoped dirty tracking, not a second gate.
//
// Flags: --out <path>  --iters <n> (at least 7)  --quick  --paging
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "core/frontend.hpp"
#include "harness.hpp"
#include "transport/channel.hpp"

namespace {

using namespace gpuvm;
using harness::die;

constexpr u64 kDevBytes = 64ull << 20;  // roomy GPUs: no swap churn noise
constexpr u64 kBufBytes = 8ull << 20;   // working-set buffer footprint
constexpr int kBuffers = 4;
constexpr u64 kPopulated = (kBufBytes * 3) / 10;  // ~30% of each buffer is live
constexpr u64 kOutBytes = 256 * 1024;   // kernel-dirtied output buffer
constexpr u64 kPatchBytes = 64 * 1024;  // per-iteration host-side update

struct BenchResult {
  core::MigrationReport report;
  double migration_seconds = 0.0;  // modeled end-to-end migrate_context time
  int iters_done = 0;
};

BenchResult run_migration(int iters, bool paged) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  core::RuntimeConfig config;
  config.paging = paged;
  harness::Node source_node(dom, 1, kDevBytes, cudart::CudaRtConfig{4 * 1024, 8}, config);
  harness::Node target_node(dom, 1, kDevBytes, cudart::CudaRtConfig{4 * 1024, 8}, config);
  core::Runtime& source = source_node.runtime();
  core::Runtime& target = target_node.runtime();

  std::atomic<bool> ready{false};
  std::atomic<int> done{0};
  BenchResult result;
  {
    vt::Thread app(dom, [&] {
      core::FrontendApi api(source.connect());
      if (!api.connected()) die("handshake failed");
      if (!ok(api.register_kernels({harness::kTouch}))) die("register failed");
      std::vector<VirtualPtr> inputs;
      std::vector<std::byte> live(kPopulated, std::byte{0x5a});
      for (int b = 0; b < kBuffers; ++b) {
        auto ptr = api.malloc(kBufBytes);
        if (!ptr) die("malloc failed");
        // Sparse population: the zero tail never validates, so neither the
        // checkpoint image nor any delta ever ships it.
        if (!ok(api.memcpy_h2d(ptr.value(), live))) die("init copy failed");
        inputs.push_back(ptr.value());
      }
      auto out = api.malloc(kOutBytes);
      if (!out) die("out malloc failed");
      ready.store(true, std::memory_order_release);

      std::vector<std::byte> patch(kPatchBytes, std::byte{0xc3});
      for (int i = 0; i < iters; ++i) {
        const VirtualPtr in = inputs[static_cast<size_t>(i) % inputs.size()];
        const u64 off = (static_cast<u64>(i) * 8192) % (kPopulated - kPatchBytes);
        if (!ok(api.memcpy_h2d(in + off, patch))) die("patch failed");
        if (!ok(api.launch(harness::kTouch, {{64, 1, 1}, {256, 1, 1}},
                           {sim::KernelArg::dev(in), sim::KernelArg::dev_out(out.value())}))) {
          die("launch failed");
        }
        done.fetch_add(1, std::memory_order_relaxed);
        dom.sleep_for(vt::from_micros(37));
      }
    });

    // Migrate once the working set exists and the job is mid-stream.
    while (!ready.load(std::memory_order_acquire)) dom.sleep_for(vt::from_micros(11));
    while (done.load(std::memory_order_relaxed) < iters / 3) {
      dom.sleep_for(vt::from_micros(11));
    }
    vt::StopWatch watch(dom);
    auto report = source.migrate_context(ContextId{1}, [&] {
      return target.connect_with(transport::ChannelCosts::cluster_link());
    });
    if (!report) die("migration failed");
    result.report = report.value();
    result.migration_seconds = watch.elapsed_seconds();
  }
  source.drain();
  target.drain();
  result.iters_done = done.load(std::memory_order_relaxed);
  return result;
}

/// The per-phase counts both runs report, in the order of the result file.
void report_phases(harness::Json& json, const BenchResult& r) {
  const core::MigrationReport& rep = r.report;
  json.num("image_bytes", rep.image_bytes).num("precopy_bytes", rep.precopy_bytes);
  json.num("precopy_rounds", rep.precopy_rounds).num("stop_copy_bytes", rep.stop_copy_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 90;
  bool with_paging = false;
  const std::string out = harness::parse_flags(
      argc, argv, "bench_migration", [&] { iters = 30; },
      {harness::count_flag("--iters", &iters), harness::switch_flag("--paging", &with_paging)});
  // The migration starts after iters/3 kernels. With fewer than 7 the job
  // finishes and disconnects while pre-copy still walks its context, so
  // there is no committed migration to report.
  if (iters < 7) die("--iters below 7: the job ends before its migration commits");

  const BenchResult r = run_migration(iters, false);
  const core::MigrationReport& rep = r.report;
  const u64 total = rep.precopy_bytes + rep.stop_copy_bytes;
  const double stop_copy_over_image =
      static_cast<double>(rep.stop_copy_bytes) /
      static_cast<double>(std::max<u64>(rep.image_bytes, 1));
  const double total_over_naive =
      static_cast<double>(total) / static_cast<double>(std::max<u64>(rep.naive_bytes, 1));

  std::printf("image=%llu precopy=%llu (%d rounds) stop_copy=%llu naive=%llu\n",
              static_cast<unsigned long long>(rep.image_bytes),
              static_cast<unsigned long long>(rep.precopy_bytes), rep.precopy_rounds,
              static_cast<unsigned long long>(rep.stop_copy_bytes),
              static_cast<unsigned long long>(rep.naive_bytes));
  std::printf("stop_copy %.6fs of %.6fs migration (%d kernels ran through it)\n",
              rep.stop_copy_seconds, r.migration_seconds, r.iters_done);

  harness::Json json("migration");
  json.num("iters", iters);
  report_phases(json, r);
  json.num("naive_bytes", rep.naive_bytes).num("total_shipped_bytes", total);
  json.num("stop_copy_seconds", rep.stop_copy_seconds, 6)
      .num("migration_seconds", r.migration_seconds, 6);
  json.num("stop_copy_over_image", stop_copy_over_image, 4)
      .num("total_over_naive", total_over_naive, 4);
  if (with_paging) {
    const BenchResult p = run_migration(iters, true);
    const core::MigrationReport& prep = p.report;
    std::printf("paged: image=%llu precopy=%llu stop_copy=%llu migration=%.6fs\n",
                static_cast<unsigned long long>(prep.image_bytes),
                static_cast<unsigned long long>(prep.precopy_bytes),
                static_cast<unsigned long long>(prep.stop_copy_bytes), p.migration_seconds);
    json.object("paged", /*inline_=*/true);
    report_phases(json, p);
    json.num("stop_copy_seconds", prep.stop_copy_seconds, 6)
        .num("migration_seconds", p.migration_seconds, 6)
        .end();
  }
  json.save(out);
  std::printf("stop_copy_over_image=%.4f total_over_naive=%.4f -> %s\n", stop_copy_over_image,
              total_over_naive, out.c_str());
  return 0;
}
