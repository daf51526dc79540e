// Cross-feature integration tests: eager-transfer configuration, offload
// combined with device failure on the remote node, CUDA4 shared contexts
// under memory pressure, and checkpoint/restore across simulated nodes.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

void add_addone(sim::SimMachine& machine) {
  sim::KernelDef addone;
  addone.name = "x_addone";
  addone.body = [](sim::KernelExecContext& kc) {
    for (auto& v : kc.buffer<float>(0)) v += 1.0f;
    return Status::Ok;
  };
  addone.cost = sim::per_thread_cost(1.0, 4.0);
  machine.kernels().add(addone);
}

TEST(EagerTransfers, EndToEndCorrectUnderRebinding) {
  // Eager (non-deferred) configuration: copies go straight to the device
  // once an entry is materialized. Data must stay correct across swaps.
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, sim::SimParams{1});
  machine.add_gpu(sim::test_gpu(256 * 1024));
  add_addone(machine);
  cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
  RuntimeConfig config;
  config.defer_transfers = false;
  Runtime runtime(rt, config);

  FrontendApi api(runtime.connect());
  ASSERT_EQ(api.register_kernels({"x_addone"}), Status::Ok);
  auto buf = api.malloc(64 * sizeof(float));
  ASSERT_TRUE(buf.has_value());
  std::vector<float> data(64, 1.0f);
  ASSERT_EQ(api.copy_in(buf.value(), data), Status::Ok);  // not bound yet: deferred
  ASSERT_EQ(api.launch("x_addone", {{1, 1, 1}, {64, 1, 1}}, {sim::KernelArg::dev(buf.value())}),
            Status::Ok);
  // Now bound and materialized: this copy takes the eager path (partial
  // write at an interior offset while the device copy is dirty).
  std::vector<float> patch(8, 100.0f);
  ASSERT_EQ(api.memcpy_h2d(buf.value() + 16 * sizeof(float), std::as_bytes(std::span(patch))),
            Status::Ok);
  ASSERT_EQ(api.launch("x_addone", {{1, 1, 1}, {64, 1, 1}}, {sim::KernelArg::dev(buf.value())}),
            Status::Ok);
  std::vector<float> out(64);
  ASSERT_EQ(api.copy_out(out, buf.value()), Status::Ok);
  for (size_t i = 0; i < 64; ++i) {
    const float want = (i >= 16 && i < 24) ? 101.0f : 3.0f;
    ASSERT_EQ(out[i], want) << i;
  }
}

TEST(OffloadResilience, RemoteGpuFailureRecoversTransparently) {
  // A job offloaded to a peer node survives the failure of one of the
  // peer's GPUs: the peer daemon replays onto its surviving device; the
  // client (and the offloading node) never notice.
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimParams params{1};
  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = 2;
  config.offload_threshold = 0;  // node-a sheds everything
  config.auto_checkpoint_after_kernel_seconds = 1e-9;
  cluster::Cluster cl(dom, params,
                      {{"node-a", {sim::test_gpu(1 << 20)}},
                       {"node-b", {sim::test_gpu(1 << 20), sim::test_gpu(1 << 20)}}},
                      config, cudart::CudaRtConfig{4 * 1024, 8});
  add_addone(cl.node(0).machine());
  add_addone(cl.node(1).machine());
  cl.enable_offloading();

  FrontendApi api(cl.node(0).runtime().connect());
  ASSERT_EQ(api.register_kernels({"x_addone"}), Status::Ok);
  auto buf = api.malloc(32 * sizeof(float));
  ASSERT_TRUE(buf.has_value());
  std::vector<float> data(32, 1.0f);
  ASSERT_EQ(api.copy_in(buf.value(), data), Status::Ok);
  const auto launch = [&] {
    return api.launch("x_addone", {{1, 1, 1}, {32, 1, 1}}, {sim::KernelArg::dev(buf.value())});
  };
  ASSERT_EQ(launch(), Status::Ok);
  EXPECT_EQ(cl.node(0).runtime().stats().offloaded_connections, 1u);
  EXPECT_EQ(cl.node(0).machine().gpu(cl.node(0).machine().all_gpus()[0])->stats().kernels_launched,
            0u);  // truly remote

  // Fail whichever of node-b's GPUs hosts the context.
  auto resident = cl.node(1).runtime().memory().residency(ContextId{1});
  ASSERT_TRUE(resident.has_value());
  ASSERT_EQ(cl.node(1).machine().fail_gpu(*resident), Status::Ok);

  ASSERT_EQ(launch(), Status::Ok);  // replayed on node-b's surviving GPU
  std::vector<float> out(32);
  ASSERT_EQ(api.copy_out(out, buf.value()), Status::Ok);
  for (float v : out) EXPECT_EQ(v, 3.0f);
}

TEST(Cuda4Pressure, SharedContextSwapsAsOneUnit) {
  // Two threads of one application share a context; another application
  // evicts it while both threads idle; both threads' data round-trips.
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, sim::SimParams{1});
  machine.add_gpu(sim::test_gpu(512 * 1024));
  add_addone(machine);
  cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
  RuntimeConfig config;
  config.cuda4_semantics = true;
  config.scheduler.vgpus_per_device = 4;
  Runtime runtime(rt, config);

  ConnectOptions app;
  app.application_id = 5;
  FrontendApi t1(runtime.connect(), app);
  FrontendApi t2(runtime.connect(), app);
  ASSERT_EQ(t1.register_kernels({"x_addone"}), Status::Ok);
  ASSERT_EQ(t2.register_kernels({"x_addone"}), Status::Ok);
  auto b1 = t1.malloc(40 * 1024);
  auto b2 = t2.malloc(40 * 1024);
  ASSERT_TRUE(b1 && b2);
  std::vector<float> d1(10 * 1024, 1.0f);
  std::vector<float> d2(10 * 1024, 2.0f);
  ASSERT_EQ(t1.copy_in(b1.value(), d1), Status::Ok);
  ASSERT_EQ(t2.copy_in(b2.value(), d2), Status::Ok);
  ASSERT_EQ(t1.launch("x_addone", {{40, 1, 1}, {256, 1, 1}}, {sim::KernelArg::dev(b1.value())}),
            Status::Ok);

  // A hungry second application forces the shared context out.
  FrontendApi hungry(runtime.connect());
  ASSERT_EQ(hungry.register_kernels({"x_addone"}), Status::Ok);
  auto big = hungry.malloc(460 * 1024);
  ASSERT_TRUE(big.has_value());
  ASSERT_EQ(hungry.launch("x_addone", {{460, 1, 1}, {256, 1, 1}},
                          {sim::KernelArg::dev(big.value())}),
            Status::Ok);

  // Both threads of the shared app still see correct data afterwards.
  std::vector<float> o1(10 * 1024);
  std::vector<float> o2(10 * 1024);
  ASSERT_EQ(t2.copy_out(o1, b1.value()), Status::Ok);  // cross-thread read
  ASSERT_EQ(t1.copy_out(o2, b2.value()), Status::Ok);
  for (float v : o1) ASSERT_EQ(v, 2.0f);  // 1.0 + addone
  for (float v : o2) ASSERT_EQ(v, 2.0f);  // untouched 2.0
}

TEST(CrossNodeRestore, CheckpointMovesAJobBetweenNodes) {
  // Serialize a context on node A's memory manager and restore it into
  // node B's -- the cross-node job migration the BLCR combination enables.
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimParams params{1};
  sim::SimMachine machine_a(dom, params);
  machine_a.add_gpu(sim::test_gpu(1 << 20));
  add_addone(machine_a);
  sim::SimMachine machine_b(dom, params);
  machine_b.add_gpu(sim::test_gpu(1 << 20));
  add_addone(machine_b);
  cudart::CudaRt rt_a(machine_a, cudart::CudaRtConfig{4 * 1024, 8});
  cudart::CudaRt rt_b(machine_b, cudart::CudaRtConfig{4 * 1024, 8});
  MemoryManager mm_a(rt_a);
  MemoryManager mm_b(rt_b);
  const ClientId slot_a = rt_a.create_client();
  const ClientId slot_b = rt_b.create_client();

  const ContextId ctx{1};
  mm_a.add_context(ctx);
  auto p = mm_a.on_malloc(ctx, 32 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(32, 4.0f);
  ASSERT_EQ(mm_a.on_copy_h2d(ctx, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  auto prep = mm_a.prepare_launch(ctx, machine_a.all_gpus()[0], slot_a,
                                  {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep.outcome, MemoryManager::PrepareOutcome::Ready);
  ASSERT_EQ(rt_a.launch_by_name(slot_a, "x_addone", {{1, 1, 1}, {32, 1, 1}}, prep.translated),
            Status::Ok);

  auto image = mm_a.export_image(ctx);
  ASSERT_TRUE(image.has_value());

  // "Ship" the image to node B and resume there.
  mm_b.add_context(ctx);
  ASSERT_EQ(mm_b.import_image(ctx, image.value()), Status::Ok);
  auto prep_b = mm_b.prepare_launch(ctx, machine_b.all_gpus()[0], slot_b,
                                    {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep_b.outcome, MemoryManager::PrepareOutcome::Ready);
  ASSERT_EQ(rt_b.launch_by_name(slot_b, "x_addone", {{1, 1, 1}, {32, 1, 1}}, prep_b.translated),
            Status::Ok);
  std::vector<float> out(32);
  ASSERT_EQ(mm_b.on_copy_d2h(ctx, std::as_writable_bytes(std::span(out)), p.value(),
                             32 * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 6.0f);  // 4 + 1 on node A + 1 on node B
}

}  // namespace
}  // namespace gpuvm::core
