// Ablation: CUDA 4.0 direct GPU-to-GPU transfers (paper section 4.8:
// "CUDA 4.0 allows a more efficient and direct GPU-to-GPU data transfer.
// Our runtime can take advantage of this mechanism to provide faster
// thread-to-GPU remapping"). Measures the cost of migrating a context's
// working set between devices via the swap round trip (CUDA 3.2 path,
// two PCIe hops through host memory) vs. a direct peer copy (one hop).
#include "bench_common.hpp"

namespace gpuvm::bench {
namespace {

void MigrationPath(benchmark::State& state, bool peer) {
  const u64 megabytes = static_cast<u64>(state.range(0));
  u64 peer_copies = 0;
  u64 swapped = 0;
  for (auto _ : state) {
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimParams params{1, false};
    sim::SimMachine machine(dom, params);
    const GpuId g1 = machine.add_gpu(sim::test_gpu(64 << 20));
    const GpuId g2 = machine.add_gpu(sim::test_gpu(64 << 20));
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    core::MemoryConfig config;
    config.cuda4_semantics = peer;
    core::MemoryManager mm(rt, config);
    const ClientId slot1 = rt.create_client();
    (void)rt.set_device(slot1, 0);
    const ClientId slot2 = rt.create_client();
    (void)rt.set_device(slot2, 1);

    const ContextId ctx{1};
    mm.add_context(ctx);
    auto ptr = mm.on_malloc(ctx, megabytes << 20);
    if (!ptr) continue;
    std::vector<std::byte> data(megabytes << 20, std::byte{1});
    (void)mm.on_copy_h2d(ctx, ptr.value(), data, std::nullopt);
    (void)mm.prepare_launch(ctx, g1, slot1, {sim::KernelArg::dev(ptr.value())});
    // Launch on g1 marked the entry dirty; migrating it to g2 now pays the
    // full data movement either way.
    const vt::StopWatch watch(dom);
    (void)mm.prepare_launch(ctx, g2, slot2, {sim::KernelArg::dev(ptr.value())});
    state.SetIterationTime(watch.elapsed_seconds());
    peer_copies = mm.stats().peer_copies;
    swapped = mm.stats().swapped_entries;
    rt.destroy_client(slot1);
    rt.destroy_client(slot2);
  }
  state.counters["peer_copies"] = static_cast<double>(peer_copies);
  state.counters["swap_entries"] = static_cast<double>(swapped);
}

}  // namespace
}  // namespace gpuvm::bench

int main(int argc, char** argv) {
  using namespace gpuvm::bench;
  for (bool peer : {false, true}) {
    for (int mb : {1, 8, 32}) {
      const std::string label =
          std::string("MigrationPath/") + (peer ? "cuda4_peer_copy" : "swap_round_trip");
      benchmark::RegisterBenchmark(label.c_str(),
                                   [peer](benchmark::State& state) {
                                     MigrationPath(state, peer);
                                   })
          ->Args({mb})
          ->ArgNames({"MiB"})
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond)
          ->Iterations(3);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
