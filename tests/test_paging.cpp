// Tests for the page-granular memory engine (MemoryConfig::paging):
//  - IntervalSet page-alignment helpers (page_floor/page_ceil, page_rounded,
//    pages, intersected)
//  - the paging policy registries (typed unknown-name errors, sorted name
//    lists, later-registration-wins shadowing) and the built-in policies'
//    scoring/prediction behaviour
//  - the paged engine itself: hint-scoped uploads, demand faulting of cold
//    pages, TLB hit/miss accounting, write-hint-scoped writeback, async
//    prefetch, policy-driven victim selection
//  - differential proofs that the paged engine is byte-identical to the
//    entry-granular baseline for the same operation sequence (with strictly
//    less device traffic), through checkpoint/restore, and at the chaos
//    harness level through fault plans and live migration -- with
//    bit-identical determinism under replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chaos/harness.hpp"
#include "common/interval_set.hpp"
#include "core/memory_manager.hpp"
#include "core/paging_policy.hpp"
#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

using MM = MemoryManager;
constexpr u64 kPage = 4 * 1024;

// ---- IntervalSet page helpers ----------------------------------------------

TEST(PageHelpers, FloorAndCeil) {
  EXPECT_EQ(page_floor(0, kPage), 0u);
  EXPECT_EQ(page_floor(kPage - 1, kPage), 0u);
  EXPECT_EQ(page_floor(kPage, kPage), kPage);
  EXPECT_EQ(page_ceil(0, kPage), 0u);
  EXPECT_EQ(page_ceil(1, kPage), kPage);
  EXPECT_EQ(page_ceil(kPage, kPage), kPage);
  EXPECT_EQ(page_ceil(kPage + 1, kPage), 2 * kPage);
}

TEST(PageHelpers, PageRoundedExpandsOutwardAndClampsToLimit) {
  IntervalSet s;
  s.add(100, 200);            // interior of page 0
  s.add(kPage + 904, kPage + 1004);  // interior of page 1
  const IntervalSet r = s.page_rounded(kPage, /*limit=*/kPage + 1004);
  // Both ranges round to whole pages; page 1's end clamps to the entry
  // size; the two rounded pages meet and coalesce into one range.
  ASSERT_EQ(r.ranges().size(), 1u);
  EXPECT_EQ(r.ranges()[0], (ByteRange{0, kPage + 1004}));

  IntervalSet far;
  far.add(10, 20);
  far.add(10 * kPage + 1, 10 * kPage + 2);
  const IntervalSet rf = far.page_rounded(kPage, 64 * kPage);
  ASSERT_EQ(rf.ranges().size(), 2u);
  EXPECT_EQ(rf.ranges()[0], (ByteRange{0, kPage}));
  EXPECT_EQ(rf.ranges()[1], (ByteRange{10 * kPage, 11 * kPage}));
}

TEST(PageHelpers, PagesDeduplicatesAndHonorsLimit) {
  IntervalSet s;
  s.add(0, 10);
  s.add(20, 30);             // same page as the first range
  s.add(kPage, kPage + 1);   // page 1
  s.add(3 * kPage, 4 * kPage);  // pages past the limit are dropped
  const auto pages = s.pages(kPage, /*limit=*/2 * kPage);
  EXPECT_EQ(pages, (std::vector<u64>{0, 1}));
  // A range straddling a page boundary names both pages.
  IntervalSet straddle;
  straddle.add(kPage - 1, kPage + 1);
  EXPECT_EQ(straddle.pages(kPage, 4 * kPage), (std::vector<u64>{0, 1}));
}

TEST(PageHelpers, IntersectedComputesExactOverlap) {
  IntervalSet a;
  a.add(0, 100);
  a.add(200, 300);
  IntervalSet b;
  b.add(50, 250);
  const IntervalSet i = a.intersected(b);
  ASSERT_EQ(i.ranges().size(), 2u);
  EXPECT_EQ(i.ranges()[0], (ByteRange{50, 100}));
  EXPECT_EQ(i.ranges()[1], (ByteRange{200, 250}));
  EXPECT_TRUE(a.intersected(IntervalSet{}).empty());
}

// ---- Policy tables ----------------------------------------------------------

TEST(PagingPolicyRegistry, UnknownNamesAreTypedErrors) {
  EXPECT_EQ(make_eviction_policy("no-such-policy").status(), Status::ErrorInvalidValue);
  EXPECT_EQ(make_prefetch_policy("no-such-policy").status(), Status::ErrorInvalidValue);
}

TEST(PagingPolicyRegistry, BuiltinsAreListedSorted) {
  const auto ev = eviction_policy_names();
  EXPECT_TRUE(std::is_sorted(ev.begin(), ev.end()));
  EXPECT_NE(std::find(ev.begin(), ev.end(), "page-lru"), ev.end());
  EXPECT_NE(std::find(ev.begin(), ev.end(), "working-set"), ev.end());
  const auto pf = prefetch_policy_names();
  EXPECT_TRUE(std::is_sorted(pf.begin(), pf.end()));
  EXPECT_NE(std::find(pf.begin(), pf.end(), "none"), pf.end());
  EXPECT_NE(std::find(pf.begin(), pf.end(), "sequential"), pf.end());
  EXPECT_NE(std::find(pf.begin(), pf.end(), "stride"), pf.end());
}

// ---- Built-in policy behaviour ----------------------------------------------

TEST(PagingPolicies, PageLruRanksByHottestPageWithEntryFallback) {
  auto policy = make_eviction_policy("page-lru").value();
  const std::vector<i64> cold{100, 0, 0};
  const std::vector<i64> warm{100, 900, 0};
  EvictionCandidate a{1, 3 * kPage, kPage, 50, std::span<const i64>(cold)};
  EvictionCandidate b{2, 3 * kPage, kPage, 50, std::span<const i64>(warm)};
  EXPECT_LT(policy->score(a, 1000), policy->score(b, 1000));
  // No page stamps: ranks by the entry LRU stamp, i.e. exactly like the
  // entry-granular baseline.
  EvictionCandidate unstamped{3, 3 * kPage, kPage, 700, {}};
  EXPECT_GT(policy->score(unstamped, 1000), policy->score(a, 1000));
}

TEST(PagingPolicies, WorkingSetPopulationDominatesRecency) {
  auto policy = make_eviction_policy("working-set").value();
  // One hot page, very recent vs. three pages all inside the window but
  // older: the small working set must score lower (evict first).
  const std::vector<i64> one_hot{0, 0, 10'000};
  const std::vector<i64> streaming{4'000, 5'000, 6'000};
  EvictionCandidate small{1, 3 * kPage, kPage, 0, std::span<const i64>(one_hot)};
  EvictionCandidate wide{2, 3 * kPage, kPage, 0, std::span<const i64>(streaming)};
  EXPECT_LT(policy->score(small, 10'000), policy->score(wide, 10'000));
}

TEST(PagingPolicies, SequentialPredictsFollowingPagesWithinEntry) {
  auto policy = make_prefetch_policy("sequential").value();
  const std::vector<u64> accessed{2, 3};
  std::vector<u64> out;
  policy->predict({0x10, kPage, 6, std::span<const u64>(accessed)}, 2, &out);
  EXPECT_EQ(out, (std::vector<u64>{4, 5}));
  out.clear();
  policy->predict({0x10, kPage, 5, std::span<const u64>(accessed)}, 4, &out);
  EXPECT_EQ(out, (std::vector<u64>{4}));  // stops at the entry's last page
}

TEST(PagingPolicies, StrideDetectsUniformStrideOrStaysQuiet) {
  auto policy = make_prefetch_policy("stride").value();
  const std::vector<u64> strided{0, 2, 4};
  std::vector<u64> out;
  policy->predict({0x10, kPage, 16, std::span<const u64>(strided)}, 2, &out);
  EXPECT_EQ(out, (std::vector<u64>{6, 8}));
  // Irregular access: no stride, no prediction (never blind readahead).
  const std::vector<u64> irregular{0, 1, 5};
  out.clear();
  policy->predict({0x20, kPage, 16, std::span<const u64>(irregular)}, 2, &out);
  EXPECT_TRUE(out.empty());
  // Single-page launches fall back to the stride between launches.
  const std::vector<u64> first{3};
  const std::vector<u64> second{6};
  out.clear();
  policy->predict({0x30, kPage, 32, std::span<const u64>(first)}, 2, &out);
  EXPECT_TRUE(out.empty());  // no history yet
  policy->predict({0x30, kPage, 32, std::span<const u64>(second)}, 2, &out);
  EXPECT_EQ(out, (std::vector<u64>{9, 12}));
}

// ---- Paged engine -----------------------------------------------------------

class PagedEngineTest : public ::testing::Test {
 protected:
  PagedEngineTest() : guard_(dom_), machine_(dom_, sim::SimParams{1}) {
    gpu_a_ = machine_.add_gpu(sim::test_gpu(1 << 20));
    gpu_b_ = machine_.add_gpu(sim::test_gpu(1 << 20));
    rt_ = std::make_unique<cudart::CudaRt>(machine_, cudart::CudaRtConfig{4 * 1024, 8});
    slot_a_ = rt_->create_client();
    (void)rt_->set_device(slot_a_, 0);
    slot_b_ = rt_->create_client();
    (void)rt_->set_device(slot_b_, 1);
  }

  static MemoryConfig paged_config() {
    MemoryConfig cfg;
    cfg.paging = true;
    cfg.page_bytes = kPage;
    cfg.prefetch_policy = "none";  // tests opt into prefetch explicitly
    return cfg;
  }

  u64 up_a() { return machine_.gpu(gpu_a_)->stats().bytes_to_device; }
  u64 down_a() { return machine_.gpu(gpu_a_)->stats().bytes_from_device; }

  VirtualPtr alloc_filled(MM& mm, ContextId ctx, u64 size, std::byte fill) {
    auto p = mm.on_malloc(ctx, size);
    EXPECT_TRUE(p.has_value());
    std::vector<std::byte> data(size, fill);
    EXPECT_EQ(mm.on_copy_h2d(ctx, p.value(), data, std::nullopt), Status::Ok);
    return p.value();
  }

  std::vector<std::byte> read_back(MM& mm, ContextId ctx, VirtualPtr p, u64 size) {
    std::vector<std::byte> out(size);
    EXPECT_EQ(mm.on_copy_d2h(ctx, out, p, size), Status::Ok);
    return out;
  }

  vt::Domain dom_;
  vt::AttachGuard guard_;
  sim::SimMachine machine_;
  GpuId gpu_a_;
  GpuId gpu_b_;
  std::unique_ptr<cudart::CudaRt> rt_;
  ClientId slot_a_;
  ClientId slot_b_;
};

TEST_F(PagedEngineTest, HintedLaunchUploadsOnlyHintedPagesAndFaultsColdOnesLater) {
  MM mm(*rt_, paged_config());
  const ContextId ctx{1};
  mm.add_context(ctx);
  constexpr u64 kSize = 64 * 1024;  // 16 pages
  const VirtualPtr p = alloc_filled(mm, ctx, kSize, std::byte{0x11});

  // First launch declares page 0 only: exactly one page ships.
  const u64 before = up_a();
  auto prep = mm.prepare_launch(ctx, gpu_a_, slot_a_,
                                {sim::KernelArg::dev(p), sim::KernelArg::access_hint(0, 0, kPage)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(up_a() - before, kPage);
  EXPECT_EQ(mm.stats().page_faults, 1u);

  // A later launch naming cold pages demand-faults exactly those.
  const u64 before2 = up_a();
  prep = mm.prepare_launch(
      ctx, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p), sim::KernelArg::access_hint(0, 2 * kPage, 2 * kPage)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(up_a() - before2, 2 * kPage);
  EXPECT_EQ(mm.stats().page_faults, 3u);

  // Read-only hinted launches dirty nothing; swap still holds the truth.
  EXPECT_EQ(read_back(mm, ctx, p, kSize), std::vector<std::byte>(kSize, std::byte{0x11}));
}

TEST_F(PagedEngineTest, TlbMissesOnFirstWalkHitsOnRepeat) {
  MM mm(*rt_, paged_config());
  const ContextId ctx{1};
  mm.add_context(ctx);
  const VirtualPtr p = alloc_filled(mm, ctx, 4 * kPage, std::byte{0x22});

  // Unhinted reference: every page of the entry is walked.
  auto prep = mm.prepare_launch(ctx, gpu_a_, slot_a_, {sim::KernelArg::dev(p)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm.stats().tlb_misses, 4u);
  EXPECT_EQ(mm.stats().tlb_hits, 0u);

  prep = mm.prepare_launch(ctx, gpu_a_, slot_a_, {sim::KernelArg::dev(p)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm.stats().tlb_misses, 4u);
  EXPECT_EQ(mm.stats().tlb_hits, 4u);
}

TEST_F(PagedEngineTest, TinyTlbThrashesDeterministically) {
  MM mm(*rt_, paged_config());
  const ContextId ctx{1};
  mm.add_context(ctx);
  // A working set of 66 pages overflows the fixed 64-entry TLB.
  constexpr u64 kPages = 66;
  const VirtualPtr p = alloc_filled(mm, ctx, kPages * kPage, std::byte{0x33});
  for (int i = 0; i < 3; ++i) {
    auto prep = mm.prepare_launch(ctx, gpu_a_, slot_a_, {sim::KernelArg::dev(p)});
    ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  }
  // The LRU slot is always evicted before its page comes around again.
  EXPECT_EQ(mm.stats().tlb_hits, 0u);
  EXPECT_EQ(mm.stats().tlb_misses, 3 * kPages);
}

TEST_F(PagedEngineTest, WrittenHintsScopeWritebackToWrittenPages) {
  MM mm(*rt_, paged_config());
  const ContextId ctx{1};
  mm.add_context(ctx);
  constexpr u64 kSize = 4 * kPage;
  const VirtualPtr p = alloc_filled(mm, ctx, kSize, std::byte{0x44});

  auto prep = mm.prepare_launch(
      ctx, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p), sim::KernelArg::access_hint(0, kPage, kPage, /*written=*/true)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  // "Run the kernel": poke exactly the hinted-written page on the device.
  std::vector<std::byte> poke(kPage, std::byte{0x55});
  ASSERT_EQ(machine_.gpu(gpu_a_)->poke(prep.translated[0].as_ptr() + kPage, poke), Status::Ok);

  // Eviction writes back only the declared write-set: one page.
  const u64 before = down_a();
  ASSERT_EQ(mm.swap_context(ctx), Status::Ok);
  EXPECT_EQ(down_a() - before, kPage);
  EXPECT_EQ(mm.stats().page_evictions, 4u);  // all pages of the entry freed

  auto out = read_back(mm, ctx, p, kSize);
  for (u64 i = 0; i < kSize; ++i) {
    const std::byte want = (i >= kPage && i < 2 * kPage) ? std::byte{0x55} : std::byte{0x44};
    ASSERT_EQ(out[i], want) << "byte " << i;
  }
}

TEST_F(PagedEngineTest, SequentialPrefetchShipsPredictedPagesAsynchronously) {
  MemoryConfig cfg = paged_config();
  cfg.prefetch_policy = "sequential";
  MM mm(*rt_, cfg);
  const ContextId ctx{1};
  mm.add_context(ctx);
  const VirtualPtr p = alloc_filled(mm, ctx, 8 * kPage, std::byte{0x66});

  auto prep = mm.prepare_launch(ctx, gpu_a_, slot_a_,
                                {sim::KernelArg::dev(p), sim::KernelArg::access_hint(0, 0, kPage)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm.stats().page_faults, 1u);       // page 0 demand-faulted
  EXPECT_EQ(mm.stats().prefetched_pages, 2u);  // pages 1, 2 predicted

  // The next launch's pages already landed: no synchronous fault.
  prep = mm.prepare_launch(
      ctx, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p), sim::KernelArg::access_hint(0, kPage, kPage)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm.stats().page_faults, 1u);
  EXPECT_EQ(read_back(mm, ctx, p, 8 * kPage), std::vector<std::byte>(8 * kPage, std::byte{0x66}));
}

TEST_F(PagedEngineTest, PageLruEvictsEntryWithColdestHottestPage) {
  MM mm(*rt_, paged_config());  // eviction_policy defaults to page-lru
  const ContextId ctx{1};
  mm.add_context(ctx);
  constexpr u64 kSize = 240 * 1024;
  dom_.sleep_for(vt::from_micros(1));  // page stamps at exactly 0 read as never-touched
  std::vector<VirtualPtr> entries;
  for (int i = 0; i < 4; ++i) {
    entries.push_back(alloc_filled(mm, ctx, kSize, static_cast<std::byte>(0x10 + i)));
    auto prep = mm.prepare_launch(
        ctx, gpu_a_, slot_a_,
        {sim::KernelArg::dev(entries.back()), sim::KernelArg::access_hint(0, 0, kPage)});
    ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    dom_.sleep_for(vt::from_micros(10));  // distinct page stamps
  }

  // A fifth entry forces one eviction; the policy must pick e0 (its only
  // touched page is the coldest), matching the entry-LRU baseline.
  const VirtualPtr big = alloc_filled(mm, ctx, kSize, std::byte{0x77});
  auto prep = mm.prepare_launch(ctx, gpu_a_, slot_a_, {sim::KernelArg::dev(big)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm.stats().swapped_entries, 1u);

  u64 transfers = mm.stats().bulk_transfers;
  for (int i = 1; i < 4; ++i) {
    prep = mm.prepare_launch(
        ctx, gpu_a_, slot_a_,
        {sim::KernelArg::dev(entries[i]), sim::KernelArg::access_hint(0, 0, kPage)});
    ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    dom_.sleep_for(vt::from_micros(10));
  }
  EXPECT_EQ(mm.stats().bulk_transfers, transfers) << "e1..e3 must still be resident";

  transfers = mm.stats().bulk_transfers;
  prep = mm.prepare_launch(
      ctx, gpu_a_, slot_a_,
      {sim::KernelArg::dev(entries[0]), sim::KernelArg::access_hint(0, 0, kPage)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_GT(mm.stats().bulk_transfers, transfers) << "e0 must have been the victim";
}

TEST_F(PagedEngineTest, WorkingSetEvictsSmallestRecentFootprint) {
  MemoryConfig cfg = paged_config();
  cfg.eviction_policy = "working-set";
  MM mm(*rt_, cfg);
  const ContextId ctx{1};
  mm.add_context(ctx);
  constexpr u64 kSize = 240 * 1024;

  // e0 streams through all of its pages; e1..e3 touch one page each, later.
  // Under working-set the victim is e1 (smallest window population, oldest
  // stamp on the tie) even though e0's stamps are older. Start off t=0:
  // a page stamped at exactly 0 is indistinguishable from never-touched.
  dom_.sleep_for(vt::from_micros(1));
  std::vector<VirtualPtr> entries;
  entries.push_back(alloc_filled(mm, ctx, kSize, std::byte{0x10}));
  auto prep = mm.prepare_launch(
      ctx, gpu_a_, slot_a_,
      {sim::KernelArg::dev(entries[0]), sim::KernelArg::access_hint(0, 0, kSize)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  dom_.sleep_for(vt::from_micros(10));
  for (int i = 1; i < 4; ++i) {
    entries.push_back(alloc_filled(mm, ctx, kSize, static_cast<std::byte>(0x10 + i)));
    prep = mm.prepare_launch(
        ctx, gpu_a_, slot_a_,
        {sim::KernelArg::dev(entries.back()), sim::KernelArg::access_hint(0, 0, kPage)});
    ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    dom_.sleep_for(vt::from_micros(10));
  }

  const VirtualPtr big = alloc_filled(mm, ctx, kSize, std::byte{0x77});
  prep = mm.prepare_launch(ctx, gpu_a_, slot_a_, {sim::KernelArg::dev(big)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_EQ(mm.stats().swapped_entries, 1u);

  u64 transfers = mm.stats().bulk_transfers;
  for (const int i : {0, 2, 3}) {
    prep = mm.prepare_launch(
        ctx, gpu_a_, slot_a_,
        {sim::KernelArg::dev(entries[static_cast<size_t>(i)]),
         sim::KernelArg::access_hint(0, 0, kPage)});
    ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    dom_.sleep_for(vt::from_micros(10));
  }
  EXPECT_EQ(mm.stats().bulk_transfers, transfers) << "e0, e2, e3 must still be resident";

  transfers = mm.stats().bulk_transfers;
  prep = mm.prepare_launch(
      ctx, gpu_a_, slot_a_,
      {sim::KernelArg::dev(entries[1]), sim::KernelArg::access_hint(0, 0, kPage)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  EXPECT_GT(mm.stats().bulk_transfers, transfers) << "e1 must have been the victim";
}

// ---- Differential: paged vs entry-granular ----------------------------------

TEST_F(PagedEngineTest, PagedEngineMatchesEntryEngineByteForByteWithLessTraffic) {
  MM entry_mm(*rt_);  // entry-granular baseline (hints ignored)
  MM paged_mm(*rt_, paged_config());
  const ContextId e_ctx{1};
  const ContextId p_ctx{2};
  entry_mm.add_context(e_ctx);
  paged_mm.add_context(p_ctx);

  // The same operation sequence, with accurate AccessHints, against both
  // engines: hinted reads of a, hinted writes (device pokes) into b, a
  // partial host write, a full eviction, and a re-materializing launch.
  const auto drive = [&](MM& mm, ContextId ctx) {
    constexpr u64 kSize = 8 * kPage;
    const VirtualPtr a = alloc_filled(mm, ctx, kSize, std::byte{0xAA});
    const VirtualPtr b = alloc_filled(mm, ctx, kSize, std::byte{0xBB});
    auto prep = mm.prepare_launch(
        ctx, gpu_a_, slot_a_,
        {sim::KernelArg::dev(a), sim::KernelArg::dev_out(b),
         sim::KernelArg::access_hint(0, 0, 2 * kPage),
         sim::KernelArg::access_hint(1, kPage, kPage, /*written=*/true)});
    EXPECT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    std::vector<std::byte> poke(kPage, std::byte{0xCC});
    EXPECT_EQ(machine_.gpu(gpu_a_)->poke(prep.translated[1].as_ptr() + kPage, poke), Status::Ok);

    std::vector<std::byte> patch(512, std::byte{0xDD});
    EXPECT_EQ(mm.on_copy_h2d(ctx, a + 3 * kPage, patch, std::nullopt), Status::Ok);
    EXPECT_EQ(mm.swap_context(ctx), Status::Ok);

    prep = mm.prepare_launch(
        ctx, gpu_a_, slot_a_,
        {sim::KernelArg::dev(a), sim::KernelArg::dev(b),
         sim::KernelArg::access_hint(0, 3 * kPage, kPage),
         sim::KernelArg::access_hint(1, kPage, kPage)});
    EXPECT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
    return std::pair{read_back(mm, ctx, a, kSize), read_back(mm, ctx, b, kSize)};
  };

  const u64 t0 = up_a() + down_a();
  const auto entry_result = drive(entry_mm, e_ctx);
  const u64 entry_traffic = up_a() + down_a() - t0;
  const auto paged_result = drive(paged_mm, p_ctx);
  const u64 paged_traffic = up_a() + down_a() - t0 - entry_traffic;

  EXPECT_EQ(entry_result.first, paged_result.first);
  EXPECT_EQ(entry_result.second, paged_result.second);
  EXPECT_LT(paged_traffic, entry_traffic);
  EXPECT_GT(paged_mm.stats().page_faults, 0u);
}

TEST_F(PagedEngineTest, CheckpointRestoreRoundTripsPagedContext) {
  MM mm(*rt_, paged_config());
  const ContextId ctx{1};
  mm.add_context(ctx);
  constexpr u64 kSize = 4 * kPage;
  const VirtualPtr p = alloc_filled(mm, ctx, kSize, std::byte{0x5A});

  auto prep = mm.prepare_launch(
      ctx, gpu_a_, slot_a_,
      {sim::KernelArg::dev(p), sim::KernelArg::access_hint(0, 2 * kPage, kPage, /*written=*/true)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  std::vector<std::byte> poke(kPage, std::byte{0x5B});
  ASSERT_EQ(machine_.gpu(gpu_a_)->poke(prep.translated[0].as_ptr() + 2 * kPage, poke), Status::Ok);
  ASSERT_EQ(mm.checkpoint(ctx), Status::Ok);

  // Restore into a second context; paged metadata (TLB, page stamps) is
  // performance-only state the image never carries.
  auto image = mm.export_image(ctx);
  ASSERT_TRUE(image.has_value());
  const ContextId ctx2{2};
  mm.add_context(ctx2);
  ASSERT_EQ(mm.import_image(ctx2, image.value()), Status::Ok);

  prep = mm.prepare_launch(ctx2, gpu_b_, slot_b_,
                           {sim::KernelArg::dev(p), sim::KernelArg::access_hint(0, 0, kPage)});
  ASSERT_EQ(prep.outcome, MM::PrepareOutcome::Ready);
  auto out = read_back(mm, ctx2, p, kSize);
  for (u64 i = 0; i < kSize; ++i) {
    const std::byte want =
        (i >= 2 * kPage && i < 3 * kPage) ? std::byte{0x5B} : std::byte{0x5A};
    ASSERT_EQ(out[i], want) << "byte " << i;
  }
}

// ---- Harness-level differential + determinism -------------------------------

TEST(PagingScenario, FaultFreeOutcomesMatchEntryEngine) {
  chaos::ScenarioConfig config;
  config.tenants = 4;
  config.kernels_per_tenant = 5;
  config.plan.seed = 5;  // no events: both engines must agree exactly

  chaos::ScenarioConfig paged = config;
  paged.paging = true;
  const chaos::ScenarioResult entry_run = chaos::run_scenario(config);
  const chaos::ScenarioResult paged_run = chaos::run_scenario(paged);

  ASSERT_EQ(entry_run.outcomes.size(), paged_run.outcomes.size());
  for (size_t i = 0; i < entry_run.outcomes.size(); ++i) {
    EXPECT_EQ(entry_run.outcomes[i], paged_run.outcomes[i]) << "tenant " << i;
    EXPECT_EQ(paged_run.outcomes[i].final_status, Status::Ok);
    EXPECT_TRUE(paged_run.outcomes[i].data_ok);
  }
  EXPECT_TRUE(entry_run.violations.empty());
  EXPECT_TRUE(paged_run.violations.empty());
}

TEST(PagingScenario, ChaosReplayIsBitIdentical) {
  chaos::ScenarioConfig config;
  config.tenants = 4;
  config.paging = true;
  config.plan = chaos::FaultPlan::random(/*seed=*/9, config.nodes, config.gpus_per_node,
                                         /*event_count=*/8, vt::from_millis(30));
  const chaos::ScenarioResult first = chaos::run_scenario(config);
  const chaos::ScenarioResult second = chaos::run_scenario(config);
  EXPECT_TRUE(first.deterministic_equal(second)) << first.diff(second);
  EXPECT_TRUE(first.violations.empty());
}

TEST(PagingScenario, LiveMigrationPreservesDataUnderPaging) {
  chaos::ScenarioConfig config;
  config.tenants = 4;
  config.paging = true;
  config.plan.seed = 13;
  for (int m = 0; m < 2; ++m) {
    chaos::FaultEvent ev;
    ev.kind = chaos::FaultKind::Migrate;
    ev.at = vt::from_millis(5.0 + 8.0 * m);
    ev.node = m % config.nodes;
    ev.count = 0;  // least-loaded peer
    config.plan.add(ev);
  }
  const chaos::ScenarioResult result = chaos::run_scenario(config);
  EXPECT_TRUE(result.violations.empty());
  for (const auto& t : result.outcomes) {
    EXPECT_EQ(t.final_status, Status::Ok) << "tenant " << t.tenant;
    EXPECT_TRUE(t.data_ok) << "tenant " << t.tenant;
  }
}

}  // namespace
}  // namespace gpuvm::core
