// Tests for the incremental swap engine: interval-set mechanics, partial-
// dirty round trips with byte accounting against the costed device stats,
// clean-entry eviction skips, kernel write-set annotations, swap-validity
// preservation across checkpoint/restore and device loss, and a
// differential check that the indexed LRU picks the same victims as the
// old linear scan semantics.
#include <gtest/gtest.h>

#include <vector>

#include "common/interval_set.hpp"
#include "core/memory_manager.hpp"
#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

using MM = MemoryManager;

// ---- IntervalSet ------------------------------------------------------------

TEST(IntervalSet, AddMergesOverlappingAndAdjacent) {
  IntervalSet s;
  s.add(0, 10);
  s.add(20, 30);
  ASSERT_EQ(s.ranges().size(), 2u);
  s.add(10, 20);  // adjacent on both sides: everything collapses
  ASSERT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0], (ByteRange{0, 30}));
  s.add(5, 25);  // fully covered: no change
  EXPECT_EQ(s.total_bytes(), 30u);
}

TEST(IntervalSet, AddKeepsDisjointRangesSorted) {
  IntervalSet s;
  s.add(100, 200);
  s.add(0, 10);
  s.add(50, 60);
  ASSERT_EQ(s.ranges().size(), 3u);
  EXPECT_EQ(s.ranges()[0], (ByteRange{0, 10}));
  EXPECT_EQ(s.ranges()[1], (ByteRange{50, 60}));
  EXPECT_EQ(s.ranges()[2], (ByteRange{100, 200}));
  EXPECT_TRUE(s.contains(120, 180));
  EXPECT_FALSE(s.contains(5, 55));
}

TEST(IntervalSet, EraseSplitsStraddlingRanges) {
  IntervalSet s;
  s.add(0, 100);
  s.erase(40, 60);
  ASSERT_EQ(s.ranges().size(), 2u);
  EXPECT_EQ(s.ranges()[0], (ByteRange{0, 40}));
  EXPECT_EQ(s.ranges()[1], (ByteRange{60, 100}));
  s.erase(0, 100);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, CoalescedBridgesSmallGapsOnly) {
  IntervalSet s;
  s.add(0, 10);
  s.add(14, 20);     // 4-byte gap
  s.add(1000, 1010); // far away
  const auto plan = s.coalesced(8);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (ByteRange{0, 20}));
  EXPECT_EQ(plan[1], (ByteRange{1000, 1010}));
  // Zero gap tolerance keeps the ranges as-is.
  EXPECT_EQ(s.coalesced(0).size(), 3u);
}

// ---- Incremental swap engine ------------------------------------------------

class SwapIncrementalTest : public ::testing::Test {
 protected:
  SwapIncrementalTest() : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    gpu_a_ = machine_.add_gpu(sim::test_gpu(1 << 20));
    gpu_b_ = machine_.add_gpu(sim::test_gpu(1 << 20));
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});
    mm_ = std::make_unique<MM>(*rt_);
    slot_a_ = rt_->create_client();
    (void)rt_->set_device(slot_a_, 0);
    slot_b_ = rt_->create_client();
    (void)rt_->set_device(slot_b_, 1);
    ctx_ = ContextId{1};
    mm_->add_context(ctx_);
  }

  u64 up_a() { return machine_.gpu(gpu_a_)->stats().bytes_to_device; }
  u64 down_a() { return machine_.gpu(gpu_a_)->stats().bytes_from_device; }
  u64 up_b() { return machine_.gpu(gpu_b_)->stats().bytes_to_device; }

  VirtualPtr alloc_filled(u64 size, std::byte fill) {
    auto p = mm_->on_malloc(ctx_, size);
    EXPECT_TRUE(p.has_value());
    std::vector<std::byte> data(size, fill);
    EXPECT_EQ(mm_->on_copy_h2d(ctx_, p.value(), data, std::nullopt), Status::Ok);
    return p.value();
  }

  std::vector<std::byte> read_back(VirtualPtr p, u64 size) {
    std::vector<std::byte> out(size);
    EXPECT_EQ(mm_->on_copy_d2h(ctx_, out, p, size), Status::Ok);
    return out;
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

TEST_F(SwapIncrementalTest, PartialHostWriteUploadsOnlyStagedRange) {
  constexpr u64 kSize = 64 * 1024;
  const VirtualPtr p = alloc_filled(kSize, std::byte{0x11});
  auto prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev_out(p)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  const u64 first_up = up_a();
  EXPECT_GE(first_up, kSize);  // initial materialization ships everything

  // Entry is device-dirty (dev_out); a partial host write first syncs the
  // write-set back, then stages only the 4 KiB sub-range.
  std::vector<std::byte> patch(4 * 1024, std::byte{0x22});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p + 8 * 1024, patch, std::nullopt), Status::Ok);

  const u64 before = up_a();
  const u64 swap_in_before = mm_->stats().swap_in_bytes;
  prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev(p)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(up_a() - before, 4 * 1024u) << "re-upload must ship only the dirty range";
  EXPECT_EQ(mm_->stats().swap_in_bytes - swap_in_before, 4 * 1024u);

  auto out = read_back(p, kSize);
  for (u64 i = 0; i < kSize; ++i) {
    const std::byte want = (i >= 8 * 1024 && i < 12 * 1024) ? std::byte{0x22} : std::byte{0x11};
    ASSERT_EQ(out[i], want) << "byte " << i;
  }
}

TEST_F(SwapIncrementalTest, CleanEntryEvictionSkipsDeviceRead) {
  constexpr u64 kSize = 32 * 1024;
  const VirtualPtr ro = alloc_filled(kSize, std::byte{0x33});
  const VirtualPtr wr = alloc_filled(kSize, std::byte{0x44});
  auto prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_,
                                  {sim::KernelArg::dev(ro), sim::KernelArg::dev_out(wr)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);

  const u64 before = down_a();
  ASSERT_EQ(mm_->swap_context(ctx_), Status::Ok);
  // Only the written entry's bytes come back down; the read-only entry's
  // eviction is free.
  EXPECT_EQ(down_a() - before, kSize);
  const MemStats ms = mm_->stats();
  EXPECT_EQ(ms.clean_swap_skips, 1u);
  EXPECT_EQ(ms.swap_out_bytes, kSize);
  EXPECT_GE(ms.dirty_bytes_saved, kSize);  // the skipped entry's footprint

  EXPECT_EQ(read_back(ro, kSize), std::vector<std::byte>(kSize, std::byte{0x33}));
  EXPECT_EQ(read_back(wr, kSize), std::vector<std::byte>(kSize, std::byte{0x44}));
}

TEST_F(SwapIncrementalTest, UnannotatedLaunchStaysConservative) {
  constexpr u64 kSize = 16 * 1024;
  const VirtualPtr a = alloc_filled(kSize, std::byte{0x55});
  const VirtualPtr b = alloc_filled(kSize, std::byte{0x66});
  // No dev_out argument: every referenced entry must be treated as written.
  auto prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_,
                                  {sim::KernelArg::dev(a), sim::KernelArg::dev(b)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  const u64 before = down_a();
  ASSERT_EQ(mm_->swap_context(ctx_), Status::Ok);
  EXPECT_EQ(down_a() - before, 2 * kSize);
  EXPECT_EQ(mm_->stats().clean_swap_skips, 0u);
}

TEST_F(SwapIncrementalTest, TranslatedArgsPreserveAnnotationKind) {
  const VirtualPtr p = alloc_filled(1024, std::byte{0x01});
  auto prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_,
                                  {sim::KernelArg::dev_out(p), sim::KernelArg::dev(p)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_TRUE(prep.translated[0].is_written());
  EXPECT_TRUE(prep.translated[1].is_dev_ptr());
  EXPECT_FALSE(prep.translated[1].is_written());
}

TEST_F(SwapIncrementalTest, SparseEntryUploadsOnlyValidatedRanges) {
  // 64 KiB entry, only 4 KiB ever populated: materialization must ship the
  // validated range, not the whole footprint (never-touched bytes are zero
  // in swap and on a fresh device allocation alike).
  constexpr u64 kSize = 64 * 1024;
  auto p = mm_->on_malloc(ctx_, kSize);
  ASSERT_TRUE(p.has_value());
  std::vector<std::byte> head(4 * 1024, std::byte{0x77});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), head, std::nullopt), Status::Ok);

  const VirtualPtr out_buf = alloc_filled(1024, std::byte{0});
  const u64 before = up_a();
  // Annotated launch reading the sparse entry: it must not be re-marked
  // dirty, and its upload is exactly the validated 4 KiB.
  auto prep = mm_->prepare_launch(
      ctx_, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p.value()), sim::KernelArg::dev_out(out_buf)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(up_a() - before, 4 * 1024u + 1024u);

  // Bounce: evict (clean for the sparse entry) and re-materialize -- the
  // upload is again only the validated range.
  ASSERT_EQ(mm_->swap_context(ctx_), Status::Ok);
  const u64 before2 = up_a();
  prep = mm_->prepare_launch(
      ctx_, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p.value()), sim::KernelArg::dev_out(out_buf)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(up_a() - before2, 4 * 1024u + 1024u);

  auto out = read_back(p.value(), kSize);
  for (u64 i = 0; i < kSize; ++i) {
    ASSERT_EQ(out[i], i < 4 * 1024 ? std::byte{0x77} : std::byte{0x00}) << "byte " << i;
  }
}

TEST_F(SwapIncrementalTest, CheckpointRestorePreservesSwapValidity) {
  constexpr u64 kSize = 64 * 1024;
  auto p = mm_->on_malloc(ctx_, kSize);
  ASSERT_TRUE(p.has_value());
  std::vector<std::byte> mid(8 * 1024, std::byte{0x88});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value() + 16 * 1024, mid, std::nullopt), Status::Ok);

  auto image = mm_->export_image(ctx_);
  ASSERT_TRUE(image.has_value());
  const ContextId ctx2{2};
  mm_->add_context(ctx2);
  ASSERT_EQ(mm_->import_image(ctx2, image.value()), Status::Ok);

  // Materializing the restored entry ships only the 8 KiB validated range.
  const u64 before = up_b();
  auto prep = mm_->prepare_launch(ctx2, gpu_b_, slot_b_, {sim::KernelArg::dev(p.value())});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(up_b() - before, 8 * 1024u);

  std::vector<std::byte> out(kSize);
  ASSERT_EQ(mm_->on_copy_d2h(ctx2, out, p.value(), kSize), Status::Ok);
  for (u64 i = 0; i < kSize; ++i) {
    const bool in_mid = i >= 16 * 1024 && i < 24 * 1024;
    ASSERT_EQ(out[i], in_mid ? std::byte{0x88} : std::byte{0x00}) << "byte " << i;
  }
}

TEST_F(SwapIncrementalTest, DeviceLossPreservesSwapValidity) {
  constexpr u64 kSize = 64 * 1024;
  auto p = mm_->on_malloc(ctx_, kSize);
  ASSERT_TRUE(p.has_value());
  std::vector<std::byte> head(4 * 1024, std::byte{0x99});
  ASSERT_EQ(mm_->on_copy_h2d(ctx_, p.value(), head, std::nullopt), Status::Ok);

  const VirtualPtr out_buf = alloc_filled(1024, std::byte{0});
  auto prep = mm_->prepare_launch(
      ctx_, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p.value()), sim::KernelArg::dev_out(out_buf)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);

  ASSERT_EQ(machine_.fail_gpu(gpu_a_), Status::Ok);
  mm_->on_device_lost(ctx_, gpu_a_);

  // Recovery on the healthy device ships only the validated ranges (4 KiB
  // sparse entry + the small output buffer), not both full footprints.
  const u64 before = up_b();
  prep = mm_->prepare_launch(
      ctx_, gpu_b_, slot_b_,
      {sim::KernelArg::dev(p.value()), sim::KernelArg::dev_out(out_buf)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(up_b() - before, 4 * 1024u + 1024u);

  auto out = read_back(p.value(), kSize);
  for (u64 i = 0; i < kSize; ++i) {
    ASSERT_EQ(out[i], i < 4 * 1024 ? std::byte{0x99} : std::byte{0x00}) << "byte " << i;
  }
}

TEST_F(SwapIncrementalTest, IndexedLruEvictsOldestUnreferencedEntry) {
  // Four 240 KiB entries materialized at distinct virtual times, then a
  // fifth 240 KiB entry that forces exactly one eviction (it fits exactly
  // in the victim's hole): the victim must be the least recently used
  // (e1), exactly what the old linear scan picked.
  constexpr u64 kSize = 240 * 1024;
  std::vector<VirtualPtr> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back(alloc_filled(kSize, static_cast<std::byte>(0x10 + i)));
    auto prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev(entries.back())});
    ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    dom_.sleep_for(vt::from_micros(10));  // distinct last_use stamps
  }

  const VirtualPtr big = alloc_filled(kSize, std::byte{0x77});
  auto prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev(big)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm_->stats().swapped_entries, 1u);

  // Entries e2..e4 are still resident: re-preparing them moves no bytes.
  u64 transfers = mm_->stats().bulk_transfers;
  for (int i = 1; i < 4; ++i) {
    prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev(entries[i])});
    ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    dom_.sleep_for(vt::from_micros(10));
  }
  EXPECT_EQ(mm_->stats().bulk_transfers, transfers) << "e2..e4 must still be resident";

  // e1 was the victim: bringing it back forces evictions (of now-older
  // entries) and a bulk transfer.
  transfers = mm_->stats().bulk_transfers;
  prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev(entries[0])});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_GT(mm_->stats().bulk_transfers, transfers) << "e1 must have been the eviction victim";
}

TEST_F(SwapIncrementalTest, VictimCandidatesOrderedByLastUse) {
  const ContextId ctx2{2};
  mm_->add_context(ctx2);

  const VirtualPtr p1 = alloc_filled(8 * 1024, std::byte{1});
  auto prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev(p1)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  dom_.sleep_for(vt::from_micros(50));

  auto p2 = mm_->on_malloc(ctx2, 8 * 1024);
  ASSERT_TRUE(p2.has_value());
  std::vector<std::byte> data(8 * 1024, std::byte{2});
  ASSERT_EQ(mm_->on_copy_h2d(ctx2, p2.value(), data, std::nullopt), Status::Ok);
  prep = mm_->prepare_launch(ctx2, gpu_a_, slot_a_, {sim::KernelArg::dev(p2.value())});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);

  // LRU first: ctx_ used the GPU earlier than ctx2.
  auto victims = mm_->victim_candidates(gpu_a_, 1, ContextId{999});
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], ctx_);
  EXPECT_EQ(victims[1], ctx2);

  // Touch ctx_ again: the order flips.
  dom_.sleep_for(vt::from_micros(50));
  prep = mm_->prepare_launch(ctx_, gpu_a_, slot_a_, {sim::KernelArg::dev(p1)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  victims = mm_->victim_candidates(gpu_a_, 1, ContextId{999});
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], ctx2);
  EXPECT_EQ(victims[1], ctx_);

  // Requester exclusion and the needed-bytes filter still apply.
  EXPECT_EQ(mm_->victim_candidates(gpu_a_, 1, ctx2).size(), 1u);
  EXPECT_TRUE(mm_->victim_candidates(gpu_a_, 1 << 30, ContextId{999}).empty());
}

TEST_F(SwapIncrementalTest, NaiveModeMatchesIncrementalByteForByte) {
  // The same operation sequence under the naive (whole-buffer) engine and
  // the incremental engine must produce identical observable bytes; the
  // incremental engine must move no more device traffic.
  MemoryConfig naive_cfg;
  naive_cfg.incremental_swap = false;
  MM naive(*rt_, naive_cfg);
  const ContextId nctx{7};
  naive.add_context(nctx);

  const auto drive = [&](MM& mm, ContextId ctx, ClientId slot) {
    auto a = mm.on_malloc(ctx, 48 * 1024);
    auto b = mm.on_malloc(ctx, 48 * 1024);
    EXPECT_TRUE(a.has_value() && b.has_value());
    std::vector<std::byte> init(48 * 1024, std::byte{0xAB});
    EXPECT_EQ(mm.on_copy_h2d(ctx, a.value(), init, std::nullopt), Status::Ok);
    auto prep = mm.prepare_launch(ctx, gpu_a_, slot,
                                  {sim::KernelArg::dev(a.value()),
                                   sim::KernelArg::dev_out(b.value())});
    EXPECT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    std::vector<std::byte> patch(1024, std::byte{0xCD});
    EXPECT_EQ(mm.on_copy_h2d(ctx, a.value() + 1024, patch, std::nullopt), Status::Ok);
    EXPECT_EQ(mm.swap_context(ctx), Status::Ok);
    prep = mm.prepare_launch(ctx, gpu_a_, slot,
                             {sim::KernelArg::dev(a.value()),
                              sim::KernelArg::dev_out(b.value())});
    EXPECT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    std::vector<std::byte> out_a(48 * 1024);
    std::vector<std::byte> out_b(48 * 1024);
    EXPECT_EQ(mm.on_copy_d2h(ctx, out_a, a.value(), out_a.size()), Status::Ok);
    EXPECT_EQ(mm.on_copy_d2h(ctx, out_b, b.value(), out_b.size()), Status::Ok);
    return std::pair{out_a, out_b};
  };

  const u64 traffic_before_inc = up_a() + down_a();
  const auto inc = drive(*mm_, ctx_, slot_a_);
  const u64 inc_traffic = up_a() + down_a() - traffic_before_inc;
  const auto nav = drive(naive, nctx, slot_a_);
  const u64 nav_traffic = up_a() + down_a() - traffic_before_inc - inc_traffic;

  EXPECT_EQ(inc.first, nav.first);
  EXPECT_EQ(inc.second, nav.second);
  EXPECT_LT(inc_traffic, nav_traffic);
  EXPECT_GT(mm_->stats().dirty_bytes_saved, 0u);
  EXPECT_EQ(naive.stats().dirty_bytes_saved, 0u);
}

}  // namespace
}  // namespace gpuvm::core
