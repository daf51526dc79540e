// Tests for the virtual-memory manager (core/memory_manager.hpp):
// page-table flag transitions (Figure 4), transfer deferral, bulk
// coalescing, intra-application swap, inter-application swap, nested
// structures, bounds checking, checkpoint, and device-loss recovery.
#include "core/memory_manager.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

using MM = MemoryManager;

class MemoryManagerTest : public ::testing::Test {
 protected:
  MemoryManagerTest()
      : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    // Two small test GPUs (1 MiB each, 4 KiB context slab) so swap
    // scenarios are easy to provoke.
    gpu_a_ = machine_.add_gpu(sim::test_gpu(1 << 20));
    gpu_b_ = machine_.add_gpu(sim::test_gpu(1 << 20));
    rt_ = std::make_unique<cudart::CudaRt>(machine_,
                                           cudart::CudaRtConfig{4 * 1024, 8});
    mm_ = std::make_unique<MM>(*rt_);

    slot_a_ = rt_->create_client();
    (void)rt_->set_device(slot_a_, 0);
    slot_b_ = rt_->create_client();
    (void)rt_->set_device(slot_b_, 1);

    sim::KernelDef addone;
    addone.name = "addone";
    addone.body = [](sim::KernelExecContext& ctx) {
      for (auto& v : ctx.buffer<float>(0)) v += 1.0f;
      return Status::Ok;
    };
    addone.cost = sim::per_thread_cost(1.0, 4.0);
    machine_.kernels().add(addone);

    ctx_ = ContextId{1};
    mm_->add_context(ctx_);
  }

  sim::SimGpu& device_a() { return *machine_.gpu(gpu_a_); }

  /// Shorthand: materialize `ptrs` as kernel arguments on GPU A.
  MM::PrepareResult prepare(std::vector<VirtualPtr> ptrs) {
    std::vector<sim::KernelArg> args;
    for (VirtualPtr p : ptrs) args.push_back(sim::KernelArg::dev(p));
    return mm_->prepare_launch(ctx_, gpu_a_, slot_a_, args);
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  GpuId gpu_a_;
  GpuId gpu_b_;
  std::unique_ptr<cudart::CudaRt> rt_;
  std::unique_ptr<MM> mm_;
  ClientId slot_a_;
  ClientId slot_b_;
  ContextId ctx_;
};

TEST_F(MemoryManagerTest, MallocIsPureVirtualNoDeviceTouched) {
  auto p = mm_->on_malloc(ctx_, 4096);
  ASSERT_TRUE(p.has_value());
  EXPECT_NE(p.value(), kNullVirtualPtr);
  // Delayed binding: no device memory consumed, no CUDA context created.
  EXPECT_EQ(device_a().used_bytes(), 0u);
  EXPECT_EQ(rt_->contexts_on_device(0), 0);
  EXPECT_EQ(mm_->mem_usage(ctx_), 4096u);
}

TEST_F(MemoryManagerTest, ZeroSizeMallocRejected) {
  EXPECT_EQ(mm_->on_malloc(ctx_, 0).status(), Status::ErrorInvalidValue);
}

TEST_F(MemoryManagerTest, CopyRoundTripWithoutAnyDevice) {
  // malloc + copyHD + copyDH can complete entirely in the swap area.
  auto p = mm_->on_malloc(ctx_, 16);
  ASSERT_TRUE(p.has_value());
  std::vector<std::byte> in(16, std::byte{0x42});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), in, std::nullopt), Status::Ok);
  std::vector<std::byte> out(16);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, out, p.value(), 16), Status::Ok);
  EXPECT_EQ(in, out);
  EXPECT_EQ(device_a().stats().bytes_to_device, 0u);
}

TEST_F(MemoryManagerTest, OutOfBoundsOpsRejectedBeforeDevice) {
  auto p = mm_->on_malloc(ctx_, 64);
  ASSERT_TRUE(p.has_value());
  std::vector<std::byte> big(128);
  EXPECT_EQ(mm_->on_copy_h2d(ctx_, p.value(), big, std::nullopt),
            Status::ErrorSwapSizeMismatch);
  EXPECT_EQ(mm_->on_copy_h2d(ctx_, p.value() + 32, std::span(big).first(64), std::nullopt),
            Status::ErrorSwapSizeMismatch);
  std::vector<std::byte> out(128);
  EXPECT_EQ(mm_->on_copy_d2h(ctx_, out, p.value(), 128), Status::ErrorSwapSizeMismatch);
  EXPECT_EQ(mm_->stats().bounds_rejections, 3u);
  EXPECT_EQ(device_a().stats().bytes_to_device, 0u);  // GPU never bothered
}

TEST_F(MemoryManagerTest, UnknownPointerGivesNoValidPte) {
  std::vector<std::byte> buf(8);
  EXPECT_EQ(mm_->on_copy_h2d(ctx_, VirtualPtr{0xdead}, buf, std::nullopt),
            Status::ErrorNoValidPte);
  EXPECT_EQ(mm_->on_copy_d2h(ctx_, buf, VirtualPtr{0xdead}, 8), Status::ErrorNoValidPte);
  EXPECT_EQ(mm_->on_free(ctx_, VirtualPtr{0xdead}), Status::ErrorNoValidPte);
}

TEST_F(MemoryManagerTest, FreeRequiresBaseAddress) {
  auto p = mm_->on_malloc(ctx_, 64);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(mm_->on_free(ctx_, p.value() + 8), Status::ErrorNoValidPte);
  EXPECT_EQ(mm_->on_free(ctx_, p.value()), Status::Ok);
  EXPECT_EQ(mm_->on_free(ctx_, p.value()), Status::ErrorNoValidPte);  // double free
  EXPECT_EQ(mm_->mem_usage(ctx_), 0u);
}

TEST_F(MemoryManagerTest, PrepareMaterializesTranslatesAndMarksDirty) {
  auto p = mm_->on_malloc(ctx_, 64 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(64, 2.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);

  auto prep = prepare({p.value()});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  ASSERT_EQ(prep.translated.size(), 1u);
  const DevicePtr dptr = prep.translated[0].as_ptr();
  EXPECT_TRUE(device_a().valid_pointer(dptr));
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 64 * sizeof(float));
  EXPECT_EQ(mm_->residency(ctx_).value(), gpu_a_);

  // The staged data arrived on the device.
  std::vector<float> on_dev(64);
  ASSERT_EQ(device_a().peek(std::as_writable_bytes(std::span(on_dev)), dptr,
                            on_dev.size() * sizeof(float)),
            Status::Ok);
  EXPECT_EQ(on_dev, data);
}

TEST_F(MemoryManagerTest, InteriorPointerArgsTranslateWithOffset) {
  auto p = mm_->on_malloc(ctx_, 1024);
  ASSERT_TRUE(p.has_value());
  auto prep = mm_->prepare_launch(
      ctx_, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p.value() + 256), sim::KernelArg::i64v(7)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  const DevicePtr base_prep = prepare({p.value()}).translated[0].as_ptr();
  EXPECT_EQ(prep.translated[0].as_ptr(), base_prep + 256);
  EXPECT_EQ(prep.translated[1].as_i64(), 7);
}

TEST_F(MemoryManagerTest, MultipleHostWritesCoalesceIntoOneBulkTransfer) {
  auto p = mm_->on_malloc(ctx_, 1024);
  ASSERT_TRUE(p.has_value());
  std::vector<std::byte> chunk(128, std::byte{1});
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value() + static_cast<u64>(i) * 128, chunk, std::nullopt),
              Status::Ok);
  }
  ASSERT_EQ(prepare({p.value()}).outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm_->stats().bulk_transfers, 1u);  // eight writes, one transfer
}

TEST_F(MemoryManagerTest, DirtyDeviceDataSyncsOnCopyBack) {
  auto p = mm_->on_malloc(ctx_, 32 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(32, 1.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  auto prep = prepare({p.value()});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);

  // Kernel mutates device data; PTE is marked dirty by prepare_launch.
  const auto def = machine_.kernels().find("addone");
  ASSERT_EQ(rt_->launch_by_name(slot_a_, "addone", {{1, 1, 1}, {32, 1, 1}}, prep.translated),
            Status::Ok);
  ASSERT_NE(def, nullptr);

  std::vector<float> out(32);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, std::as_writable_bytes(std::span(out)), p.value(),
                             out.size() * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 2.0f);
}

TEST_F(MemoryManagerTest, IntraApplicationSwapLetsFootprintExceedDevice) {
  // Paper section 4.5: three matrices of which only two fit. The runtime
  // swaps the one the current launch does not reference.
  const u64 size = 400 * 1024;  // 3 x 400 KiB > 1 MiB device
  auto a = mm_->on_malloc(ctx_, size);
  auto b = mm_->on_malloc(ctx_, size);
  auto c = mm_->on_malloc(ctx_, size);
  ASSERT_TRUE(a && b && c);
  std::vector<std::byte> data(size, std::byte{0xaa});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, a.value(), data, std::nullopt), Status::Ok);

  // Launch 1 references A and B.
  ASSERT_EQ(prepare({a.value(), b.value()}).outcome, MM::PrepareOutcome::Ready);
  // Launch 2 references B and C: A must be evicted to make room.
  ASSERT_EQ(prepare({b.value(), c.value()}).outcome, MM::PrepareOutcome::Ready);
  EXPECT_GE(mm_->stats().intra_app_swaps, 1u);
  EXPECT_GE(mm_->stats().swapped_entries, 1u);

  // A's data survived the round trip through swap.
  std::vector<std::byte> out(size);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, out, a.value(), size), Status::Ok);
  EXPECT_EQ(out, data);
}

TEST_F(MemoryManagerTest, WouldBlockWhenNoLocalVictimExists) {
  // One entry taking most of the device, referenced by the launch itself;
  // a second context hogs the rest -> no intra-app victim, WouldBlock.
  ContextId other{2};
  mm_->add_context(other);
  auto hog = mm_->on_malloc(other, 600 * 1024);
  ASSERT_TRUE(hog.has_value());
  ASSERT_EQ(mm_->prepare_launch(other, gpu_a_, slot_a_, {sim::KernelArg::dev(hog.value())})
                .outcome,
            MM::PrepareOutcome::Ready);

  auto p = mm_->on_malloc(ctx_, 600 * 1024);
  ASSERT_TRUE(p.has_value());
  auto prep = prepare({p.value()});
  EXPECT_EQ(prep.outcome, MM::PrepareOutcome::WouldBlock);
  EXPECT_EQ(prep.needed_bytes, 600u * 1024);

  // After the other context is swapped out, the launch can proceed.
  ASSERT_EQ(mm_->swap_context(other), Status::Ok);
  EXPECT_EQ(prepare({p.value()}).outcome, MM::PrepareOutcome::Ready);
}

TEST_F(MemoryManagerTest, EntryLargerThanDeviceFailsHard) {
  auto p = mm_->on_malloc(ctx_, 4u << 20);  // 4 MiB > 1 MiB device
  ASSERT_TRUE(p.has_value());
  auto prep = prepare({p.value()});
  EXPECT_EQ(prep.outcome, MM::PrepareOutcome::Error);
  EXPECT_EQ(prep.error, Status::ErrorMemoryAllocation);
}

TEST_F(MemoryManagerTest, EagerPartialWriteKeepsKernelOutputAroundIt) {
  // Eager transfers: a host write into a resident entry goes straight to
  // the device. Only the written range is in sync afterwards; the kernel's
  // output around it must still reach the application on copy-out.
  MemoryConfig config;
  config.defer_transfers = false;
  mm_ = std::make_unique<MM>(*rt_, config);
  mm_->add_context(ctx_);
  auto p = mm_->on_malloc(ctx_, 256 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> ones(256, 1.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(ones)), slot_a_),
            Status::Ok);  // not resident yet: staged in swap
  auto prep = prepare({p.value()});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  ASSERT_EQ(rt_->launch_by_name(slot_a_, "addone", {{1, 1, 1}, {256, 1, 1}}, prep.translated),
            Status::Ok);

  std::vector<float> patch(4, 5.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(patch)), slot_a_),
            Status::Ok);
  std::vector<float> on_dev(4);
  ASSERT_EQ(device_a().peek(std::as_writable_bytes(std::span(on_dev)),
                            prep.translated[0].as_ptr(), 4 * sizeof(float)),
            Status::Ok);
  EXPECT_EQ(on_dev, patch);  // the write went straight to the device

  std::vector<float> out(256);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, std::as_writable_bytes(std::span(out)), p.value(),
                             out.size() * sizeof(float)),
            Status::Ok);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < 4 ? 5.0f : 2.0f) << i;
  }
}

TEST_F(MemoryManagerTest, SwapContextEvictsEverythingAndPreservesData) {
  auto a = mm_->on_malloc(ctx_, 256);
  auto b = mm_->on_malloc(ctx_, 256);
  ASSERT_TRUE(a && b);
  std::vector<std::byte> da(256, std::byte{1});
  std::vector<std::byte> db(256, std::byte{2});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, a.value(), da, std::nullopt), Status::Ok);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, b.value(), db, std::nullopt), Status::Ok);
  ASSERT_EQ(prepare({a.value(), b.value()}).outcome, MM::PrepareOutcome::Ready);
  const u64 used_before = device_a().used_bytes();

  ASSERT_EQ(mm_->swap_context(ctx_), Status::Ok);
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 0u);
  EXPECT_FALSE(mm_->residency(ctx_).has_value());
  EXPECT_LT(device_a().used_bytes(), used_before);

  std::vector<std::byte> out(256);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, out, a.value(), 256), Status::Ok);
  EXPECT_EQ(out, da);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, out, b.value(), 256), Status::Ok);
  EXPECT_EQ(out, db);
}

TEST_F(MemoryManagerTest, MigrationAcrossGpusThroughSwap) {
  auto p = mm_->on_malloc(ctx_, 64 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(64, 5.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  ASSERT_EQ(prepare({p.value()}).outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm_->residency(ctx_).value(), gpu_a_);

  // Re-materialize on GPU B: prepare_launch swaps the straggler itself.
  auto prep = mm_->prepare_launch(ctx_, gpu_b_, slot_b_, {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm_->residency(ctx_).value(), gpu_b_);
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 0u);

  std::vector<float> out(64);
  ASSERT_EQ(machine_.gpu(gpu_b_)->peek(std::as_writable_bytes(std::span(out)),
                                       prep.translated[0].as_ptr(), 64 * sizeof(float)),
            Status::Ok);
  EXPECT_EQ(out, data);
}

TEST_F(MemoryManagerTest, CheckpointKeepsResidencyAndSyncsSwap) {
  auto p = mm_->on_malloc(ctx_, 32 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(32, 1.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  auto prep = prepare({p.value()});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  ASSERT_EQ(rt_->launch_by_name(slot_a_, "addone", {{1, 1, 1}, {32, 1, 1}}, prep.translated),
            Status::Ok);

  ASSERT_EQ(mm_->checkpoint(ctx_), Status::Ok);
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 32 * sizeof(float));  // still resident
}

TEST_F(MemoryManagerTest, DeviceLossRecoversToLastCheckpoint) {
  auto p = mm_->on_malloc(ctx_, 32 * sizeof(float));
  ASSERT_TRUE(p.has_value());
  std::vector<float> data(32, 1.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), std::as_bytes(std::span(data)), std::nullopt),
            Status::Ok);
  auto prep = prepare({p.value()});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  ASSERT_EQ(rt_->launch_by_name(slot_a_, "addone", {{1, 1, 1}, {32, 1, 1}}, prep.translated),
            Status::Ok);
  ASSERT_EQ(mm_->checkpoint(ctx_), Status::Ok);  // swap now holds 2.0f

  machine_.fail_gpu(gpu_a_);
  mm_->on_device_lost(ctx_, gpu_a_);
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 0u);

  // Re-materialize on the healthy GPU: the checkpointed values survive.
  auto prep2 = mm_->prepare_launch(ctx_, gpu_b_, slot_b_, {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep2.outcome, MM::PrepareOutcome::Ready);
  std::vector<float> out(32);
  ASSERT_EQ(machine_.gpu(gpu_b_)->peek(std::as_writable_bytes(std::span(out)),
                                       prep2.translated[0].as_ptr(), 32 * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 2.0f);
}

TEST_F(MemoryManagerTest, DeferredDeviceToDeviceCopyStaysOffDevice) {
  auto a = mm_->on_malloc(ctx_, 128);
  auto b = mm_->on_malloc(ctx_, 128);
  ASSERT_TRUE(a && b);
  std::vector<std::byte> data(128, std::byte{9});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, a.value(), data, std::nullopt), Status::Ok);
  ASSERT_EQ(mm_->on_copy_d2d(ctx_, b.value(), a.value(), 128), Status::Ok);
  EXPECT_EQ(device_a().stats().bytes_to_device, 0u);  // nothing touched the GPU
  std::vector<std::byte> out(128);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, out, b.value(), 128), Status::Ok);
  EXPECT_EQ(out, data);
}

TEST_F(MemoryManagerTest, NestedStructurePointersPatchOnDevice) {
  // parent = { u64 ptr_to_x, u64 ptr_to_y }; kernel follows the device
  // pointers. The memory manager must place children, patch the parent's
  // slots with device addresses, and restore virtual addresses in swap.
  auto x = mm_->on_malloc(ctx_, 16 * sizeof(float));
  auto y = mm_->on_malloc(ctx_, 16 * sizeof(float));
  auto parent = mm_->on_malloc(ctx_, 2 * sizeof(u64));
  ASSERT_TRUE(x && y && parent);
  std::vector<float> xs(16, 3.0f);
  std::vector<float> ys(16, 4.0f);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, x.value(), std::as_bytes(std::span(xs)), std::nullopt),
            Status::Ok);
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, y.value(), std::as_bytes(std::span(ys)), std::nullopt),
            Status::Ok);
  ASSERT_EQ(mm_->register_nested(ctx_, parent.value(),
                                 {{0, x.value()}, {sizeof(u64), y.value()}}),
            Status::Ok);

  sim::KernelDef sum_nested;
  sum_nested.name = "sum_nested";
  sum_nested.uses_nested_pointers = true;
  sum_nested.body = [](sim::KernelExecContext& ctx) {
    auto slots = ctx.buffer<u64>(0);
    auto xs_dev = ctx.deref_as<float>(DevicePtr{slots[0]});
    auto ys_dev = ctx.deref_as<float>(DevicePtr{slots[1]});
    if (xs_dev.size() < 16 || ys_dev.size() < 16) return Status::ErrorLaunchFailure;
    for (size_t i = 0; i < 16; ++i) xs_dev[i] += ys_dev[i];
    return Status::Ok;
  };
  sum_nested.cost = sim::per_thread_cost(1.0, 8.0);
  machine_.kernels().add(sum_nested);

  // Launch referencing only the parent: children materialize transitively.
  auto prep = prepare({parent.value()});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 2 * 16 * sizeof(float) + 2 * sizeof(u64));
  ASSERT_EQ(rt_->launch_by_name(slot_a_, "sum_nested", {{1, 1, 1}, {16, 1, 1}},
                                prep.translated),
            Status::Ok);

  std::vector<float> out(16);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, std::as_writable_bytes(std::span(out)), x.value(),
                             16 * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 7.0f);

  // The parent's swap image holds virtual pointers again after swap-out.
  ASSERT_EQ(mm_->swap_context(ctx_), Status::Ok);
  std::vector<u64> slots(2);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, std::as_writable_bytes(std::span(slots)), parent.value(),
                             2 * sizeof(u64)),
            Status::Ok);
  EXPECT_EQ(slots[0], x.value());
  EXPECT_EQ(slots[1], y.value());
}

TEST_F(MemoryManagerTest, RegisterNestedValidatesTargets) {
  auto parent = mm_->on_malloc(ctx_, 16);
  ASSERT_TRUE(parent.has_value());
  EXPECT_EQ(mm_->register_nested(ctx_, parent.value(), {{0, VirtualPtr{0xbad}}}),
            Status::ErrorNoValidPte);
  EXPECT_EQ(mm_->register_nested(ctx_, parent.value(), {{12, parent.value()}}),
            Status::ErrorSwapSizeMismatch);  // slot straddles the boundary
  EXPECT_EQ(mm_->register_nested(ctx_, VirtualPtr{0xbad}, {}), Status::ErrorNoValidPte);
}

TEST_F(MemoryManagerTest, VictimCandidatesFilterBySizeGpuAndRequester) {
  ContextId small{10};
  ContextId big{11};
  mm_->add_context(small);
  mm_->add_context(big);
  auto ps = mm_->on_malloc(small, 64 * 1024);
  auto pb = mm_->on_malloc(big, 512 * 1024);
  ASSERT_TRUE(ps && pb);
  ASSERT_EQ(mm_->prepare_launch(small, gpu_a_, slot_a_, {sim::KernelArg::dev(ps.value())})
                .outcome,
            MM::PrepareOutcome::Ready);
  ASSERT_EQ(mm_->prepare_launch(big, gpu_a_, slot_a_, {sim::KernelArg::dev(pb.value())})
                .outcome,
            MM::PrepareOutcome::Ready);

  // Only `big` holds >= 256 KiB on gpu A.
  auto candidates = mm_->victim_candidates(gpu_a_, 256 * 1024, ctx_);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], big);
  // The requester never victimizes itself.
  EXPECT_TRUE(mm_->victim_candidates(gpu_a_, 1, big).size() == 1);
  EXPECT_TRUE(mm_->victim_candidates(gpu_b_, 1, ctx_).empty());
}

TEST_F(MemoryManagerTest, RemoveContextFreesDeviceMemory) {
  auto p = mm_->on_malloc(ctx_, 1024);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(prepare({p.value()}).outcome, MM::PrepareOutcome::Ready);
  const u64 used = device_a().used_bytes();
  EXPECT_GT(used, 0u);
  mm_->remove_context(ctx_);
  EXPECT_LT(device_a().used_bytes(), used);
  EXPECT_EQ(mm_->mem_usage(ctx_), 0u);
}

// Figure 4 state machine: drive one entry through the canonical transitions
// and verify the flag triple at each step via observable behavior.
TEST_F(MemoryManagerTest, Figure4FlagTransitions) {
  auto p = mm_->on_malloc(ctx_, 64);
  ASSERT_TRUE(p.has_value());
  // (F,F,F): nothing staged, nothing resident.
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 0u);

  std::vector<std::byte> data(64, std::byte{7});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), data, std::nullopt), Status::Ok);
  // (F,T,F): still not resident.
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 0u);

  ASSERT_EQ(prepare({p.value()}).outcome, MM::PrepareOutcome::Ready);
  // (T,F,T): resident and dirty (pessimistic).
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 64u);

  std::vector<std::byte> out(64);
  ASSERT_EQ(mm_->on_copy_d2h(ctx_, out, p.value(), 64), Status::Ok);
  // (T,F,F): both copies valid; data still resident.
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 64u);
  EXPECT_EQ(out, data);

  ASSERT_EQ(mm_->swap_context(ctx_), Status::Ok);
  // (F,T,F): swapped out; next launch re-materializes.
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 0u);
  ASSERT_EQ(prepare({p.value()}).outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm_->resident_bytes(ctx_, gpu_a_), 64u);
}

/// The same fixture under each engine: the entry engine (one page per
/// entry) and the paged engine.
class MemoryEngineTest : public MemoryManagerTest, public ::testing::WithParamInterface<bool> {
 protected:
  MemoryEngineTest() {
    MemoryConfig config;
    config.paging = GetParam();
    mm_ = std::make_unique<MM>(*rt_, config);
    mm_->add_context(ctx_);
  }
};

TEST_P(MemoryEngineTest, LaunchLargerThanDeviceFailsHard) {
  // Each 600 KiB entry fits the 1 MiB device alone; a launch needing both
  // never can. It fails hard instead of asking the caller to evict other
  // tenants and retry forever.
  auto a = mm_->on_malloc(ctx_, 600 * 1024);
  auto b = mm_->on_malloc(ctx_, 600 * 1024);
  ASSERT_TRUE(a && b);
  const auto prep = prepare({a.value(), b.value()});
  EXPECT_EQ(prep.outcome, MM::PrepareOutcome::Error);
  EXPECT_EQ(prep.error, Status::ErrorMemoryAllocation);
  // Either entry alone still runs.
  EXPECT_EQ(prepare({a.value()}).outcome, MM::PrepareOutcome::Ready);
}

INSTANTIATE_TEST_SUITE_P(Engines, MemoryEngineTest, ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? std::string("paged") : std::string("entry");
                         });

}  // namespace
}  // namespace gpuvm::core
