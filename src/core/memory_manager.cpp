#include "core/memory_manager.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/log.hpp"
#include "common/wire.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpuvm::core {

namespace {

/// Transfer consolidation on the swap path: dirty ranges separated by a
/// clean gap of at most this many bytes ship as one transfer, trading a few
/// redundant bytes for one less per-transfer PCIe latency.
constexpr u64 kCoalesceGapBytes = 4096;
/// Modeled charge per TLB miss on the prepare_launch path (paged engine).
constexpr u64 kTlbMissNs = 600;
/// Per-context TLB capacity in (entry, page) translations (paged engine).
constexpr u64 kTlbEntries = 64;
/// Pages the prefetch policy may queue per entry per launch (paged engine).
constexpr u64 kPrefetchLookahead = 2;

obs::Histogram& swap_bytes_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kMmSwapBytes, obs::default_bytes_edges());
  return h;
}

obs::Counter& async_writebacks_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmAsyncWritebacks);
  return c;
}

obs::Counter& writeback_fences_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmWritebackFences);
  return c;
}

obs::Counter& dirty_bytes_saved_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmDirtyBytesSaved);
  return c;
}

obs::Counter& swap_in_bytes_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmSwapInBytes);
  return c;
}

obs::Histogram& bulk_h2d_bytes_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kMmBulkH2dBytes, obs::default_bytes_edges());
  return h;
}

obs::Counter& page_faults_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmPageFaults);
  return c;
}

obs::Counter& tlb_hits_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmTlbHits);
  return c;
}

obs::Counter& tlb_misses_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmTlbMisses);
  return c;
}

obs::Counter& prefetched_pages_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmPrefetchedPages);
  return c;
}

obs::Counter& page_evictions_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMmPageEvictions);
  return c;
}

obs::Histogram& page_fault_seconds_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kMmPageFaultSeconds, obs::default_seconds_edges());
  return h;
}

}  // namespace

MemoryManager::MemoryManager(cudart::CudaRt& rt, MemoryConfig config)
    : rt_(&rt), config_(std::move(config)) {}

void MemoryManager::add_context(ContextId ctx) {
  auto mem = std::make_shared<CtxMem>();
  mem->self = ctx;
  // Per-context policy instances: stateful prefetchers learn one tenant's
  // access pattern, never a neighbour's. An unknown name leaves the slot
  // null and fails the context's launches; the Runtime refuses connections
  // before that can happen.
  if (auto evict = make_eviction_policy(config_.eviction_policy)) {
    mem->evict = std::move(evict).value();
  }
  if (auto prefetch = make_prefetch_policy(config_.prefetch_policy)) {
    mem->prefetch = std::move(prefetch).value();
  }
  contexts_.emplace(ctx, std::move(mem));
}

void MemoryManager::remove_context(ContextId ctx) {
  CtxMemPtr mem = contexts_.take(ctx);
  if (mem == nullptr) return;
  ctx_lru_remove(*mem);  // before the CtxMem dies: the directory holds raw pointers
  // Free device allocations; swap buffers die with the map. Uncosted free
  // path (like a process teardown). In-flight write-back drains are moot:
  // the data is discarded, nothing will read it.
  for (auto& [vptr, pte] : mem->entries) {
    if (pte->is_allocated) (void)rt_->free(pte->owner_client, pte->device_ptr);
  }
}

MemoryManager::CtxMemPtr MemoryManager::find(ContextId ctx) const {
  return contexts_.find(ctx);
}

MemoryManager::Located MemoryManager::locate(CtxMem& mem, VirtualPtr ptr) {
  if (ptr == kNullVirtualPtr || mem.entries.empty()) return {};
  auto it = mem.entries.upper_bound(ptr);
  if (it == mem.entries.begin()) return {};
  --it;
  PageTableEntry* pte = it->second.get();
  if (ptr < pte->virtual_ptr || ptr >= pte->virtual_ptr + pte->size) return {};
  return {pte, ptr - pte->virtual_ptr};
}

void MemoryManager::lru_touch(CtxMem& mem, PageTableEntry& pte, vt::TimePoint stamp) {
  mem.lru.erase({pte.last_use.count(), pte.virtual_ptr});
  pte.last_use = stamp;
  mem.lru[{stamp.count(), pte.virtual_ptr}] = &pte;
}

void MemoryManager::lru_remove(CtxMem& mem, PageTableEntry& pte) {
  mem.lru.erase({pte.last_use.count(), pte.virtual_ptr});
}

void MemoryManager::ctx_lru_touch(CtxMem& mem, u64 gpu, i64 now_ns) const {
  std::scoped_lock lk(ctx_lru_.mu);
  const u64 id = mem.self.value;
  const std::tuple<u64, i64, u64> key{gpu, now_ns, id};
  auto w = ctx_lru_.where.find(id);
  if (w != ctx_lru_.where.end()) {
    if (w->second == key) return;
    ctx_lru_.order.erase(w->second);
    w->second = key;
  } else {
    w = ctx_lru_.where.emplace(id, key).first;
  }
  ctx_lru_.order.emplace(key, &mem);
}

void MemoryManager::ctx_lru_remove(CtxMem& mem) const {
  std::scoped_lock lk(ctx_lru_.mu);
  auto w = ctx_lru_.where.find(mem.self.value);
  if (w == ctx_lru_.where.end()) return;
  ctx_lru_.order.erase(w->second);
  ctx_lru_.where.erase(w);
}

std::vector<ByteRange> MemoryManager::transfer_plan(const PageTableEntry& pte,
                                                    const IntervalSet& dirty) const {
  IntervalSet plan;
  for (const ByteRange& r : dirty.coalesced(kCoalesceGapBytes)) plan.add(r.begin, r.end);
  return plan.intersected(pte.mapped).ranges();
}

std::vector<ByteRange> MemoryManager::writeback_ranges(const PageTableEntry& pte,
                                                       ByteRange range) const {
  const IntervalSet whole = IntervalSet::of(range.begin, range.end);
  return transfer_plan(pte, config_.incremental_swap ? pte.dev_dirty.intersected(whole) : whole);
}

std::vector<ByteRange> MemoryManager::upload_ranges(const PageTableEntry& pte) const {
  return transfer_plan(pte,
                       config_.incremental_swap ? pte.host_dirty : IntervalSet::of(0, pte.size));
}

void MemoryManager::mark_host_dirty(PageTableEntry& pte, u64 begin, u64 end) {
  const IntervalSet dirty = pte.mapped.intersected(IntervalSet::of(begin, end));
  for (const ByteRange& r : dirty.ranges()) pte.host_dirty.add(r.begin, r.end);
}

StatusOr<VirtualPtr> MemoryManager::on_malloc(ContextId ctx, u64 size) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  if (size == 0) return Status::ErrorInvalidValue;

  auto pte = std::make_unique<PageTableEntry>();
  pte->size = size;
  try {
    pte->swap.resize(size);  // the swap area backs every allocation
  } catch (const std::bad_alloc&) {
    return Status::ErrorSwapAllocation;
  }

  // Virtual addresses come from a lock-free bump allocator. Spans are
  // 256-aligned multiples of 256 with a guard gap, so every address is
  // aligned and interior arithmetic never crosses into a neighbour.
  const u64 span = (std::max<u64>(size, 256) + 256 + 255) / 256 * 256;
  const VirtualPtr vptr = va_next_.fetch_add(span, std::memory_order_relaxed);
  if (vptr + span < vptr) return Status::ErrorNoVirtualAddress;  // wrapped
  pte->virtual_ptr = vptr;
  mem->entries.emplace(vptr, std::move(pte));
  mem->total_bytes.fetch_add(size, std::memory_order_relaxed);
  // A migration in flight must ship the new entry's metadata even if no
  // byte is ever written (an empty recorded set still serializes it).
  if (mem->epoch.active) mem->epoch.dirty[vptr];
  return vptr;
}

Status MemoryManager::on_copy_h2d(ContextId ctx, VirtualPtr dst, std::span<const std::byte> src,
                                  std::optional<ClientId> bound_client) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [pte, offset] = locate(*mem, dst);
  if (pte == nullptr) return Status::ErrorNoValidPte;
  if (offset + src.size() > pte->size) {
    stats_.bounds_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::ErrorSwapSizeMismatch;  // caught before reaching the GPU
  }

  const bool eager = !config_.defer_transfers && bound_client.has_value() && pte->is_allocated &&
                     pte->mapped.contains(offset, offset + src.size());
  if (eager) {
    // Eager configuration: ship straight to the device (costed), keep the
    // swap copy in sync so later swaps are cheap reads. Only the written
    // range is in sync again: a kernel's output around it stays dirty.
    const Status s = rt_->memcpy_h2d(*bound_client, pte->device_ptr + offset, src);
    if (!ok(s)) return s;
    std::memcpy(pte->swap.data() + offset, src.data(), src.size());
    pte->swap_valid.add(offset, offset + src.size());
    pte->host_dirty.erase(offset, offset + src.size());
    pte->dev_dirty.erase(offset, offset + src.size());
    pte->to_copy_2_dev = !pte->host_dirty.empty();
    pte->to_copy_2_swap = !pte->dev_dirty.empty();
    epoch_mark(*mem, *pte, offset, offset + src.size());
    return Status::Ok;
  }

  // Deferred configuration (Table 1: "Move data to swap"): repeated writes
  // into one entry coalesce into a single bulk transfer at launch. A
  // *partial* write to an entry whose authoritative copy is dirty on the
  // device must pull the device copy into swap first -- otherwise the next
  // bulk transfer would overwrite the untouched part of the device data
  // with stale swap bytes.
  const bool partial = offset != 0 || src.size() != pte->size;
  if (partial && pte->to_copy_2_swap) {
    if (const Status s = write_back(*pte, {0, pte->size}, false); !ok(s)) return s;
  }
  std::memcpy(pte->swap.data() + offset, src.data(), src.size());
  pte->to_copy_2_dev = true;
  pte->to_copy_2_swap = false;
  pte->dev_dirty.clear();  // partial: synced above; full: superseded by this write
  pte->swap_valid.add(offset, offset + src.size());
  mark_host_dirty(*pte, offset, offset + src.size());
  epoch_mark(*mem, *pte, offset, offset + src.size());
  return Status::Ok;
}

Status MemoryManager::write_back(PageTableEntry& pte, ByteRange range, bool async) {
  if (!pte.is_allocated) return Status::ErrorNoValidPte;
  // Incremental engine: ship only the range's device-dirty bytes (the
  // kernel's write-set, consolidated); the naive baseline ships the range.
  // Async: the bytes land in swap now (content-correct immediately, like
  // staging into a pinned buffer) and the copy engine is reserved without
  // sleeping; swap readers fence on writeback_done.
  Status s = Status::Ok;
  u64 moved = 0;
  for (const ByteRange& r : writeback_ranges(pte, range)) {
    const auto dst = std::span(pte.swap).subspan(r.begin, r.size());
    if (async) {
      auto done = rt_->memcpy_d2h_async(pte.owner_client, dst, pte.device_ptr + r.begin,
                                        r.size());
      s = done.status();
      if (ok(s)) pte.writeback_done = std::max(pte.writeback_done, done.value());
    } else {
      s = rt_->memcpy_d2h(pte.owner_client, dst, pte.device_ptr + r.begin, r.size());
    }
    if (!ok(s)) break;
    pte.swap_valid.add(r.begin, r.end);
    moved += r.size();
  }
  // The swap image holds virtual (position-independent) pointers again.
  if (!pte.nested.empty()) rewrite_nested_to_virtual(pte);
  if (s == Status::ErrorDeviceUnavailable) {
    // Device died with the only up-to-date copy: recover to the last
    // swap-consistent state (the implicit checkpoint).
    pte.to_copy_2_swap = false;
    pte.to_copy_2_dev = true;
    pte.dev_dirty.clear();
    pte.host_dirty = pte.swap_valid.intersected(pte.mapped);  // re-upload from swap
  }
  if (!ok(s)) return s;
  pte.dev_dirty.erase(range.begin, range.end);
  pte.to_copy_2_swap = !pte.dev_dirty.empty();
  stats_.swap_out_bytes.fetch_add(moved, std::memory_order_relaxed);
  if (async) {
    stats_.async_writebacks.fetch_add(1, std::memory_order_relaxed);
    async_writebacks_counter().add(1);
  }
  if (range.size() == pte.size) count_saved(pte.size - moved);
  return Status::Ok;
}

void MemoryManager::fence_writeback(PageTableEntry& pte) {
  if (pte.writeback_done == vt::TimePoint{}) return;
  vt::Domain& dom = rt_->machine().domain();
  if (pte.writeback_done > dom.now()) {
    stats_.writeback_fences.fetch_add(1, std::memory_order_relaxed);
    writeback_fences_counter().add(1);
    dom.sleep_until(pte.writeback_done);
  }
  pte.writeback_done = vt::TimePoint{};
}

void MemoryManager::fence_upload(PageTableEntry& pte) {
  if (pte.upload_done == vt::TimePoint{}) return;
  vt::Domain& dom = rt_->machine().domain();
  if (pte.upload_done > dom.now()) dom.sleep_until(pte.upload_done);
  pte.upload_done = vt::TimePoint{};
}

void MemoryManager::tlb_flush_entry(CtxMem& mem, const PageTableEntry& pte) {
  auto it = mem.tlb.slot.lower_bound({pte.virtual_ptr, 0});
  while (it != mem.tlb.slot.end() && it->first.first == pte.virtual_ptr) {
    mem.tlb.order.erase(it->second);
    it = mem.tlb.slot.erase(it);
  }
}

bool MemoryManager::tlb_access(CtxMem& mem, const PageTableEntry& pte, u64 page) {
  CtxMem::Tlb& tlb = mem.tlb;
  const std::pair<u64, u64> key{pte.virtual_ptr, page};
  const u64 tick = ++tlb.tick;
  if (const auto it = tlb.slot.find(key); it != tlb.slot.end()) {
    tlb.order.erase(it->second);
    it->second = tick;
    tlb.order.emplace(tick, key);
    return true;
  }
  if (tlb.slot.size() >= kTlbEntries) {
    const auto lru = tlb.order.begin();
    tlb.slot.erase(lru->second);
    tlb.order.erase(lru);
  }
  tlb.slot.emplace(key, tick);
  tlb.order.emplace(tick, key);
  return false;
}

u64 MemoryManager::page_bytes_of(const PageTableEntry& pte) const {
  return config_.paging ? config_.page_bytes : pte.size;
}

u64 MemoryManager::page_count_of(const PageTableEntry& pte) const {
  const u64 page = page_bytes_of(pte);
  return (pte.size + page - 1) / page;
}

void MemoryManager::stamp_pages(PageTableEntry& pte, const std::vector<u64>& pages,
                                i64 now_ns) {
  if (pages.empty()) return;
  const u64 count = page_count_of(pte);
  if (pte.page_use_ns.size() < count) pte.page_use_ns.resize(count, 0);
  for (const u64 p : pages) {
    if (p < pte.page_use_ns.size()) pte.page_use_ns[p] = now_ns;
  }
}

ByteRange MemoryManager::page_range(const PageTableEntry& pte, u64 page) const {
  const u64 bytes = page_bytes_of(pte);
  const u64 begin = page * bytes;
  return ByteRange{begin, std::min(begin + bytes, pte.size)};
}

void MemoryManager::tlb_flush_page(CtxMem& mem, const PageTableEntry& pte, u64 page) {
  const auto it = mem.tlb.slot.find({pte.virtual_ptr, page});
  if (it == mem.tlb.slot.end()) return;
  mem.tlb.order.erase(it->second);
  mem.tlb.slot.erase(it);
}

void MemoryManager::note_mapped(CtxMem& mem, PageTableEntry& pte, u64 begin, u64 end,
                                i64 now_ns) const {
  pte.mapped.add(begin, end);
  const IntervalSet stale = pte.swap_valid.intersected(IntervalSet::of(begin, end));
  for (const ByteRange& r : stale.ranges()) pte.host_dirty.add(r.begin, r.end);
  if (!stale.empty()) pte.to_copy_2_dev = true;
  mem.resident_bytes.fetch_add(end - begin, std::memory_order_relaxed);
  mem.resident_gpu.store(pte.resident_gpu.value, std::memory_order_relaxed);
  ctx_lru_touch(mem, pte.resident_gpu.value, now_ns);
}

void MemoryManager::note_unmapped(CtxMem& mem, u64 bytes) const {
  // fetch_sub's return value decides "all resident bytes gone": a separate
  // load could race with a concurrent materialization elsewhere.
  if (mem.resident_bytes.fetch_sub(bytes, std::memory_order_relaxed) == bytes) {
    mem.resident_gpu.store(0, std::memory_order_relaxed);
    ctx_lru_remove(mem);
  }
}

void MemoryManager::retire_prefetched(PageTableEntry& pte, u64 begin, u64 end) {
  if (!pte.prefetched_untouched.overlaps(begin, end)) return;
  const u64 unused = pte.prefetched_untouched.intersected(IntervalSet::of(begin, end))
                         .pages(page_bytes_of(pte), pte.size)
                         .size();
  stats_.prefetch_unused_pages.fetch_add(unused, std::memory_order_relaxed);
  pte.prefetched_untouched.erase(begin, end);
}

void MemoryManager::audit_residency(const PageTableEntry& pte) {
  if (pte.dev_dirty.intersected(pte.mapped) == pte.dev_dirty) return;
  stats_.residency_violations.fetch_add(1, std::memory_order_relaxed);
  log::error("mm: entry 0x%llx has device-dirty bytes outside its mapped pages",
             static_cast<unsigned long long>(pte.virtual_ptr));
}

MemoryManager::PageVictim MemoryManager::coldest_page(
    CtxMem& mem, GpuId gpu, const std::map<PageTableEntry*, IntervalSet>& keep, i64 now_ns,
    bool take_prefetched) const {
  PageVictim victim;
  bool best_prefetched = false;
  double best = 0.0;
  for (const auto& [key, candidate] : mem.lru) {
    if (GpuId{candidate->resident_gpu} != gpu || candidate->mapped.empty()) continue;
    const auto kept = keep.find(candidate);
    const u64 page_bytes = page_bytes_of(*candidate);
    const EvictionCandidate c{candidate->virtual_ptr, candidate->size, page_bytes,
                              candidate->last_use.count(),
                              std::span<const i64>(candidate->page_use_ns)};
    for (const u64 p : candidate->mapped.pages(page_bytes, candidate->size)) {
      const ByteRange r = page_range(*candidate, p);
      if (kept != keep.end() && kept->second.overlaps(r.begin, r.end)) continue;
      const bool prefetched = candidate->prefetched_untouched.overlaps(r.begin, r.end);
      if (prefetched && !take_prefetched) continue;
      const double score = mem.evict->page_score(c, p, now_ns);
      if (victim.pte == nullptr || std::tie(prefetched, score) < std::tie(best_prefetched, best)) {
        victim = PageVictim{candidate, p};
        best_prefetched = prefetched;
        best = score;
      }
    }
  }
  return victim;
}

Status MemoryManager::evict_page(CtxMem& mem, PageTableEntry& pte, u64 page) {
  const ByteRange r = page_range(pte, page);
  // Write back the page's device-dirty bytes (overlapping the caller's
  // work, like swap_entry, when async); a clean page just unmaps.
  const bool dirty = pte.dev_dirty.overlaps(r.begin, r.end);
  if (dirty) {
    if (const Status s = write_back(pte, r, config_.async_writeback); !ok(s)) return s;
  }
  if (const Status s = rt_->unmap(pte.owner_client, pte.device_ptr + r.begin, r.size());
      !ok(s)) {
    return s;
  }
  pte.mapped.erase(r.begin, r.end);
  pte.host_dirty.erase(r.begin, r.end);
  retire_prefetched(pte, r.begin, r.end);
  tlb_flush_page(mem, pte, page);
  note_unmapped(mem, r.size());
  stats_.page_evictions.fetch_add(1, std::memory_order_relaxed);
  page_evictions_counter().add(1);
  // The entry's only page: the whole entry left the device.
  if (r.size() == pte.size) count_entry_swap(pte, dirty);
  audit_residency(pte);
  return Status::Ok;
}

Status MemoryManager::map_page(CtxMem& mem, PageTableEntry& pte, u64 page,
                               const std::map<PageTableEntry*, IntervalSet>& keep,
                               i64 now_ns, bool demand, u64* evicted) {
  const ByteRange r = page_range(pte, page);
  for (;;) {
    const Status s = rt_->map(pte.owner_client, pte.device_ptr + r.begin, r.size());
    if (ok(s)) {
      note_mapped(mem, pte, r.begin, r.end, now_ns);
      return Status::Ok;
    }
    if (s != Status::ErrorMemoryAllocation) return s;
    const PageVictim victim = coldest_page(mem, GpuId{pte.resident_gpu}, keep, now_ns, demand);
    if (victim.pte == nullptr) return Status::ErrorMemoryAllocation;
    if (const Status e = evict_page(mem, *victim.pte, victim.page); !ok(e)) return e;
    ++*evicted;
  }
}

Status MemoryManager::on_copy_d2h(ContextId ctx, std::span<std::byte> dst, VirtualPtr src,
                                  u64 size) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [pte, offset] = locate(*mem, src);
  if (pte == nullptr) return Status::ErrorNoValidPte;
  if (offset + size > pte->size || dst.size() < size) {
    stats_.bounds_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::ErrorSwapSizeMismatch;
  }
  // Table 1: "If (PTE.toCopy2Swap) cudaMemcpyDH" -- sync then serve from swap.
  if (pte->to_copy_2_swap) {
    if (const Status s = write_back(*pte, {0, pte->size}, false); !ok(s)) return s;
  }
  fence_writeback(*pte);  // an async eviction drain may still be in flight
  // Nested parents keep virtual pointers in their swap image; serve those.
  if (!pte->nested.empty()) rewrite_nested_to_virtual(*pte);
  std::memcpy(dst.data(), pte->swap.data() + offset, size);
  return Status::Ok;
}

Status MemoryManager::on_copy_d2d(ContextId ctx, VirtualPtr dst, VirtualPtr src, u64 size) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [spte, src_off] = locate(*mem, src);
  const auto [dpte, dst_off] = locate(*mem, dst);
  if (spte == nullptr || dpte == nullptr) return Status::ErrorNoValidPte;
  if (src_off + size > spte->size || dst_off + size > dpte->size) {
    stats_.bounds_rejections.fetch_add(1, std::memory_order_relaxed);
    return Status::ErrorSwapSizeMismatch;
  }
  // Resolve the source's authoritative copy into swap, then stage the
  // destination write there: a deferred device-to-device copy costs no
  // device work at all unless either side was dirty on device (the
  // destination must sync too when the write is partial -- same stale-swap
  // hazard as partial host writes).
  if (spte->to_copy_2_swap) {
    if (const Status s = write_back(*spte, {0, spte->size}, false); !ok(s)) return s;
  }
  fence_writeback(*spte);  // reading the source's swap bytes
  const bool partial = dst_off != 0 || size != dpte->size;
  if (partial && dpte->to_copy_2_swap) {
    if (const Status s = write_back(*dpte, {0, dpte->size}, false); !ok(s)) return s;
  }
  std::memmove(dpte->swap.data() + dst_off, spte->swap.data() + src_off, size);
  dpte->to_copy_2_dev = true;
  dpte->to_copy_2_swap = false;
  dpte->dev_dirty.clear();
  dpte->swap_valid.add(dst_off, dst_off + size);
  mark_host_dirty(*dpte, dst_off, dst_off + size);
  epoch_mark(*mem, *dpte, dst_off, dst_off + size);
  return Status::Ok;
}

Status MemoryManager::on_free(ContextId ctx, VirtualPtr ptr) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto it = mem->entries.find(ptr);  // frees must name the base address
  if (it == mem->entries.end()) return Status::ErrorNoValidPte;
  PageTableEntry* pte = it->second.get();
  // Table 1: "If (PTE.isAllocated) cudaFree".
  if (pte->is_allocated) release_device(*mem, *pte);
  mem->total_bytes.fetch_sub(pte->size, std::memory_order_relaxed);
  if (mem->epoch.active) {
    mem->epoch.dirty.erase(ptr);
    mem->epoch.freed.push_back(ptr);  // tombstone: the target frees it too
  }
  mem->entries.erase(it);
  return Status::Ok;
}

Status MemoryManager::register_nested(ContextId ctx, VirtualPtr parent,
                                      const std::vector<NestedRef>& refs) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  const auto [pte, offset] = locate(*mem, parent);
  if (pte == nullptr || offset != 0) return Status::ErrorNoValidPte;
  for (const NestedRef& ref : refs) {
    if (ref.offset + sizeof(u64) > pte->size) return Status::ErrorSwapSizeMismatch;
    const auto child = locate(*mem, ref.target);
    if (child.pte == nullptr || child.offset != 0) return Status::ErrorNoValidPte;
    child.pte->is_nested_member = true;
  }
  pte->nested = refs;
  // The swap image stores the virtual pointers (position independent).
  for (const NestedRef& ref : refs) {
    std::memcpy(pte->swap.data() + ref.offset, &ref.target, sizeof(u64));
    pte->swap_valid.add(ref.offset, ref.offset + sizeof(u64));
    mark_host_dirty(*pte, ref.offset, ref.offset + sizeof(u64));
    epoch_mark(*mem, *pte, ref.offset, ref.offset + sizeof(u64));
  }
  pte->to_copy_2_dev = true;
  return Status::Ok;
}

std::vector<PageTableEntry*> MemoryManager::nested_closure(CtxMem& mem,
                                                           std::vector<PageTableEntry*> roots) {
  std::vector<PageTableEntry*> ordered;
  std::set<PageTableEntry*> visited;
  // Children-first depth-first order so parents are patched after children
  // are placed.
  std::function<void(PageTableEntry*)> visit = [&](PageTableEntry* pte) {
    if (!visited.insert(pte).second) return;
    for (const NestedRef& ref : pte->nested) {
      if (const auto child = locate(mem, ref.target); child.pte != nullptr) visit(child.pte);
    }
    ordered.push_back(pte);
  };
  for (PageTableEntry* root : roots) visit(root);
  return ordered;
}

Status MemoryManager::patch_nested_on_device(CtxMem& mem, PageTableEntry& pte) {
  for (const NestedRef& ref : pte.nested) {
    const auto child = locate(mem, ref.target);
    if (child.pte == nullptr || !child.pte->is_allocated) return Status::ErrorNoValidPte;
    sim::SimGpu* gpu = rt_->machine().gpu(GpuId{pte.resident_gpu});
    if (gpu == nullptr) return Status::ErrorInvalidDevice;
    const u64 dev_target = child.pte->device_ptr;
    const Status s = gpu->poke(pte.device_ptr + ref.offset,
                               std::as_bytes(std::span(&dev_target, 1)));
    if (!ok(s)) return s;
    // The device slot now differs from swap (device vs virtual pointer);
    // track it so a later write-back ships it (rewrite_nested_to_virtual
    // restores the position-independent form afterwards, as before).
    pte.dev_dirty.add(ref.offset, ref.offset + sizeof(u64));
  }
  return Status::Ok;
}

void MemoryManager::rewrite_nested_to_virtual(PageTableEntry& pte) {
  for (const NestedRef& ref : pte.nested) {
    std::memcpy(pte.swap.data() + ref.offset, &ref.target, sizeof(u64));
  }
}

Status MemoryManager::swap_entry(CtxMem& mem, PageTableEntry& pte) {
  if (!pte.is_allocated) return Status::Ok;
  if (pte.mapped.empty()) {
    // Every page was evicted already: nothing to write back or count.
    release_device(mem, pte);
    return Status::Ok;
  }
  // A clean entry's swap copy is already authoritative: no D2H at all.
  const bool dirty = pte.to_copy_2_swap;
  const Status sync =
      dirty ? write_back(pte, {0, pte.size}, config_.async_writeback) : Status::Ok;
  const u64 mapped_pages = pte.mapped.pages(page_bytes_of(pte), pte.size).size();
  release_device(mem, pte);
  pte.to_copy_2_dev = true;    // next use re-materializes from swap
  pte.to_copy_2_swap = false;  // the device copy is gone
  pte.dev_dirty.clear();
  pte.host_dirty.clear();      // recomputed from swap_valid at re-materialization
  // The page-use stamps survive: they still describe the entry's heat.
  stats_.page_evictions.fetch_add(mapped_pages, std::memory_order_relaxed);
  page_evictions_counter().add(mapped_pages);
  count_entry_swap(pte, dirty);
  return sync == Status::ErrorDeviceUnavailable ? Status::Ok : sync;
}

void MemoryManager::count_saved(u64 bytes) {
  if (!config_.incremental_swap) return;
  stats_.dirty_bytes_saved.fetch_add(bytes, std::memory_order_relaxed);
  dirty_bytes_saved_counter().add(bytes);
}

void MemoryManager::count_entry_swap(const PageTableEntry& pte, bool dirty) {
  if (!dirty) {
    stats_.clean_swap_skips.fetch_add(1, std::memory_order_relaxed);
    count_saved(pte.size);
  }
  stats_.swapped_entries.fetch_add(1, std::memory_order_relaxed);
  stats_.swap_bytes.fetch_add(pte.size, std::memory_order_relaxed);
  swap_bytes_hist().observe(static_cast<double>(pte.size));
}

void MemoryManager::release_device(CtxMem& mem, PageTableEntry& pte) {
  (void)rt_->free(pte.owner_client, pte.device_ptr);  // unmaps every page too
  pte.is_allocated = false;
  pte.device_ptr = kNullDevicePtr;
  // Translations die with the device copy; an in-flight prefetch into it is
  // moot (content already landed in the span just freed).
  tlb_flush_entry(mem, pte);
  pte.upload_done = vt::TimePoint{};
  retire_prefetched(pte, 0, pte.size);
  lru_remove(mem, pte);
  note_unmapped(mem, pte.mapped.total_bytes());
  pte.mapped.clear();
}

MemoryManager::PrepareResult MemoryManager::prepare_launch(
    ContextId ctx, GpuId gpu, ClientId client, const std::vector<sim::KernelArg>& args) {
  PrepareResult result;
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) {
    result.error = Status::ErrorNoValidPte;
    return result;
  }
  if (mem->evict == nullptr || mem->prefetch == nullptr) {
    result.error = Status::ErrorInvalidValue;  // unknown policy name (add_context)
    return result;
  }
  const vt::TimePoint now_stamp = rt_->machine().domain().now();
  mem->last_use_ns.store(now_stamp.count(), std::memory_order_relaxed);
  if (const u64 gpu_now = mem->resident_gpu.load(std::memory_order_relaxed); gpu_now != 0) {
    ctx_lru_touch(*mem, gpu_now, now_stamp.count());
  }

  // Resolve referenced entries and their offsets.
  std::vector<Located> refs(args.size());
  std::vector<PageTableEntry*> roots;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i].is_dev_ptr()) continue;
    if (args[i].bits == 0) continue;  // null pointer passes through
    const Located ref = locate(*mem, args[i].as_ptr());
    if (ref.pte == nullptr) {
      result.error = Status::ErrorNoValidPte;
      return result;
    }
    refs[i] = ref;
    roots.push_back(ref.pte);
  }
  std::vector<PageTableEntry*> closure = nested_closure(*mem, std::move(roots));

  // Paged engine: scope this launch's data movement to the pages its
  // AccessHint annotations declare (page-rounded byte ranges per hinted
  // entry). An entry referenced by any unhinted pointer argument -- or one
  // carrying nested pointers, whose image is patched whole, or one reached
  // only through the nested closure -- moves at entry granularity exactly
  // like the baseline. These maps are pointer-keyed for lookup only: every
  // order-sensitive walk below iterates `closure`, whose order is
  // deterministic (heap addresses are not).
  std::map<PageTableEntry*, IntervalSet> hint_needed;
  std::map<PageTableEntry*, IntervalSet> hint_written;
  if (config_.paging) {
    std::map<u64, std::vector<const sim::KernelArg*>> hints_by_arg;
    for (const sim::KernelArg& a : args) {
      if (a.is_access_hint()) hints_by_arg[a.hint_arg()].push_back(&a);
    }
    std::set<PageTableEntry*> whole;
    for (size_t i = 0; i < args.size(); ++i) {
      PageTableEntry* pte = refs[i].pte;
      if (pte == nullptr) continue;
      const auto h = hints_by_arg.find(i);
      if (h == hints_by_arg.end() || !pte->nested.empty() || pte->is_nested_member) {
        whole.insert(pte);
        continue;
      }
      IntervalSet& need = hint_needed[pte];
      IntervalSet& written = hint_written[pte];
      for (const sim::KernelArg* hint : h->second) {
        // Hint ranges are relative to the (possibly interior) pointer the
        // argument carries; rebase onto the entry and clamp.
        const u64 begin = std::min(refs[i].offset + hint->hint_offset(), pte->size);
        const u64 end = std::min(begin + hint->hint_length(), pte->size);
        if (begin >= end) continue;
        need.add(begin, end);
        if (hint->hint_written()) written.add(begin, end);
      }
    }
    for (PageTableEntry* pte : closure) {
      if (hint_needed.find(pte) == hint_needed.end()) whole.insert(pte);
    }
    for (PageTableEntry* pte : whole) {
      hint_needed.erase(pte);
      hint_written.erase(pte);
    }
    for (auto& [pte, set] : hint_needed) {
      set = set.page_rounded(page_bytes_of(*pte), pte->size);
    }
    for (auto& [pte, set] : hint_written) {
      set = set.page_rounded(page_bytes_of(*pte), pte->size);
    }
  }
  // The bytes each entry must have mapped for this launch -- its hinted
  // pages, or all of it -- and what they add up to. A launch needing more
  // than the whole device can never run: fail hard instead of asking the
  // caller to retry forever.
  std::map<PageTableEntry*, IntervalSet> must_map;
  u64 launch_bytes = 0;
  for (PageTableEntry* pte : closure) {
    IntervalSet& need = must_map[pte];
    if (const auto h = hint_needed.find(pte); h != hint_needed.end()) {
      need = h->second;
    } else {
      need.add(0, pte->size);
    }
    launch_bytes += need.total_bytes();
  }
  if (const sim::SimGpu* dev = rt_->machine().gpu(gpu);
      dev == nullptr || launch_bytes + rt_->context_reservation_bytes() > dev->capacity_bytes()) {
    result.error = Status::ErrorMemoryAllocation;
    return result;
  }

  // Intra-application swaps count once per launch, however many victims.
  bool counted_intra = false;
  const auto count_intra_swap = [&] {
    if (counted_intra) return;
    counted_intra = true;
    stats_.intra_app_swaps.fetch_add(1, std::memory_order_relaxed);
    obs::emit_instant("intra-app-swap", "swap", obs::kRuntimePid, ctx.value, ctx.value);
  };
  for (PageTableEntry* pte : closure) {
    // Stragglers resident on a different (or dead) device migrate -- via a
    // direct GPU-to-GPU copy of their mapped pages in CUDA 4 mode, through
    // the swap area otherwise. Pages evicted before the move are mapped and
    // uploaded below like any other.
    if (pte->is_allocated) {
      if (GpuId{pte->resident_gpu} != gpu) {
        if (!config_.cuda4_semantics || !try_peer_move(*mem, *pte, gpu, client)) {
          (void)swap_entry(*mem, *pte);
        }
      } else {
        sim::SimGpu* dev = rt_->machine().gpu(gpu);
        if (dev == nullptr || !dev->healthy()) {
          on_device_lost(ctx, gpu);
        }
      }
    }
    // Reserve the span once, then map the launch's pages inside it,
    // evicting this context's coldest pages the launch does not need while
    // the device is full (intra-application swap: what lets a single app
    // exceed device capacity, section 4.5's matmul example).
    if (!pte->is_allocated) {
      auto span = rt_->reserve(client, pte->size);
      if (!span) {
        result.error = span.status();
        return result;
      }
      pte->device_ptr = span.value();
      pte->owner_client = client;
      pte->resident_gpu = gpu;
      pte->is_allocated = true;
    }
    u64 evicted = 0;
    Status mapped = Status::Ok;
    u64 missing = 0;
    for (const u64 p : must_map[pte].pages(page_bytes_of(*pte), pte->size)) {
      const ByteRange r = page_range(*pte, p);
      if (pte->mapped.contains(r.begin, r.end)) continue;
      mapped = map_page(*mem, *pte, p, must_map, now_stamp.count(), /*demand=*/true, &evicted);
      if (!ok(mapped)) {
        missing = r.size();
        break;
      }
    }
    if (evicted > 0) count_intra_swap();
    if (mapped == Status::ErrorMemoryAllocation) {
      result.outcome = PrepareOutcome::WouldBlock;
      result.needed_bytes = missing;
      return result;
    }
    if (!ok(mapped)) {
      result.error = mapped;
      return result;
    }
    lru_touch(*mem, *pte, now_stamp);
  }

  // Paged engine: the launch's page walk. Every page the kernel touches
  // (its hinted pages; all pages for entry-granular references) costs one
  // TLB access; the misses charge the modeled walk latency once, up front.
  // In-flight prefetch page-ins must land before the kernel consumes the
  // bytes -- the H2D mirror of the writeback fence.
  std::map<PageTableEntry*, std::vector<u64>> touched;
  if (config_.paging) {
    u64 hits = 0;
    u64 misses = 0;
    for (PageTableEntry* pte : closure) {
      fence_upload(*pte);
      std::vector<u64> pages;
      if (const auto h = hint_needed.find(pte); h != hint_needed.end()) {
        pages = h->second.pages(page_bytes_of(*pte), pte->size);
      } else {
        pages.resize(page_count_of(*pte));
        std::iota(pages.begin(), pages.end(), u64{0});
      }
      for (const u64 p : pages) {
        if (tlb_access(*mem, *pte, p)) {
          ++hits;
        } else {
          ++misses;
        }
      }
      stamp_pages(*pte, pages, now_stamp.count());
      if (!pte->prefetched_untouched.empty()) {
        for (const u64 p : pages) {
          const ByteRange r = page_range(*pte, p);
          pte->prefetched_untouched.erase(r.begin, r.end);
        }
      }
      touched.emplace(pte, std::move(pages));
    }
    stats_.tlb_hits.fetch_add(hits, std::memory_order_relaxed);
    stats_.tlb_misses.fetch_add(misses, std::memory_order_relaxed);
    if (hits > 0) tlb_hits_counter().add(hits);
    if (misses > 0) {
      tlb_misses_counter().add(misses);
      rt_->machine().domain().sleep_for(vt::Duration{misses * kTlbMissNs});
    }
  }

  // Bulk transfers for deferred data, then nested pointer patching
  // (children were materialized first). Only the dirty/validated ranges
  // ship (whole entries in naive mode); consolidation bridges small gaps.
  u64 bulk_bytes = 0;      // bytes actually shipped
  u64 flagged_bytes = 0;   // footprint of the entries flagged for upload
  struct Upload {
    PageTableEntry* pte;
    std::vector<ByteRange> ranges;
  };
  std::vector<Upload> uploads;
  for (PageTableEntry* pte : closure) {
    if (!pte->to_copy_2_dev) continue;
    Upload up{pte, {}};
    if (const auto h = hint_needed.find(pte); h != hint_needed.end()) {
      // Demand paging: only the pages this launch declared, of the ranges
      // swap actually holds newer data for. Undeclared host-dirty pages
      // stay behind and page in when a later launch names them. All hinted
      // pages already resident: nothing to ship, no writeback fence, and no
      // bulk transfer counted (the entry stays flagged for its cold pages).
      up.ranges = transfer_plan(*pte, pte->host_dirty.intersected(h->second));
      if (up.ranges.empty()) continue;
    } else {
      up.ranges = upload_ranges(*pte);
    }
    flagged_bytes += pte->size;
    for (const ByteRange& r : up.ranges) bulk_bytes += r.size();
    uploads.push_back(std::move(up));
  }
  if (!uploads.empty()) {
    const vt::TimePoint fault_start = rt_->machine().domain().now();
    obs::SpanScope sp("bulk-h2d", "swap", obs::kRuntimePid, ctx.value, ctx.value, bulk_bytes);
    for (const Upload& up : uploads) {
      PageTableEntry* pte = up.pte;
      fence_writeback(*pte);  // re-materializing reads the swap bytes
      for (const ByteRange& r : up.ranges) {
        const Status s = rt_->memcpy_h2d(
            pte->owner_client, pte->device_ptr + r.begin,
            std::span<const std::byte>(pte->swap).subspan(r.begin, r.size()));
        if (!ok(s)) {
          result.error = s;
          return result;
        }
      }
      if (const auto h = hint_needed.find(pte); h != hint_needed.end()) {
        for (const ByteRange& r : h->second.ranges()) pte->host_dirty.erase(r.begin, r.end);
        pte->to_copy_2_dev = !pte->host_dirty.empty();
      } else {
        pte->to_copy_2_dev = false;
        pte->host_dirty.clear();
      }
      stats_.bulk_transfers.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.swap_in_bytes.fetch_add(bulk_bytes, std::memory_order_relaxed);
    swap_in_bytes_counter().add(bulk_bytes);
    if (flagged_bytes > bulk_bytes) count_saved(flagged_bytes - bulk_bytes);
    bulk_h2d_bytes_hist().observe(static_cast<double>(bulk_bytes));
    if (config_.paging) {
      // Every synchronously uploaded page was a demand fault this launch
      // stalled on; the histogram records the modeled service time.
      u64 faults = 0;
      for (const Upload& up : uploads) {
        IntervalSet shipped;
        for (const ByteRange& r : up.ranges) shipped.add(r.begin, r.end);
        faults += shipped.pages(page_bytes_of(*up.pte), up.pte->size).size();
      }
      if (faults > 0) {
        stats_.page_faults.fetch_add(faults, std::memory_order_relaxed);
        page_faults_counter().add(faults);
      }
      page_fault_seconds_hist().observe(
          vt::to_seconds(rt_->machine().domain().now() - fault_start));
    }
  }
  for (PageTableEntry* pte : closure) {
    if (pte->nested.empty()) continue;
    if (const Status s = patch_nested_on_device(*mem, *pte); !ok(s)) {
      result.error = s;
      return result;
    }
  }
  // Dirty marking. An *annotated* launch (any dev_out argument) declares
  // its write-set: only the written arguments (and their nested closure,
  // since a written parent can reach children through stored pointers)
  // become device-dirty. An unannotated launch keeps Figure 4's pessimistic
  // assumption: every referenced entry may be written.
  bool annotated = false;
  if (config_.incremental_swap) {
    for (const sim::KernelArg& arg : args) {
      if (arg.is_written()) {
        annotated = true;
        break;
      }
    }
  }
  if (annotated) {
    std::vector<PageTableEntry*> written_roots;
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].is_written() && refs[i].pte != nullptr) written_roots.push_back(refs[i].pte);
    }
    for (PageTableEntry* pte : nested_closure(*mem, std::move(written_roots))) {
      if (hint_needed.find(pte) != hint_needed.end()) continue;  // hints govern below
      pte->to_copy_2_swap = true;
      pte->dev_dirty.add(0, pte->size);
      epoch_mark(*mem, *pte, 0, pte->size);
    }
  } else {
    for (PageTableEntry* pte : closure) {
      if (hint_needed.find(pte) != hint_needed.end()) continue;  // hints govern below
      pte->to_copy_2_swap = true;
      pte->dev_dirty.add(0, pte->size);
      epoch_mark(*mem, *pte, 0, pte->size);
    }
  }
  // Hinted entries: the declared written pages are the exact write-set,
  // subsuming the coarse dev/dev_out annotation. Written pages are a
  // subset of the needed pages uploaded (and host-undirtied) above, so
  // marking them device-dirty never violates the one-direction-dirty
  // invariant. A read-only hinted launch dirties nothing.
  for (PageTableEntry* pte : closure) {
    const auto w = hint_written.find(pte);
    if (w == hint_written.end() || w->second.empty()) continue;
    for (const ByteRange& r : w->second.ranges()) {
      pte->dev_dirty.add(r.begin, r.end);
      epoch_mark(*mem, *pte, r.begin, r.end);
    }
    pte->to_copy_2_swap = true;
  }

  // Prefetch: predicted pages ride the async copy engine and overlap the
  // kernel that triggered the prediction; the next launch referencing the
  // entry fences on upload_done. Content lands immediately -- predictions
  // can only move modeled time, never change results. Only pages swap
  // holds newer data for actually ship. A predicted page that is not
  // mapped is mapped first, at the cost of this context's own coldest
  // walked page outside the launch (never another tenant's, never another
  // prediction still waiting for its launch); it is stamped with its
  // landing time, so it ranks as fresh, not as never touched.
  u64 evicted = 0;
  for (PageTableEntry* pte : closure) {
    if (hint_needed.find(pte) == hint_needed.end()) continue;
    const auto t = touched.find(pte);
    if (t == touched.end() || t->second.empty()) continue;
    const PrefetchQuery q{pte->virtual_ptr, page_bytes_of(*pte), page_count_of(*pte),
                          std::span<const u64>(t->second)};
    std::vector<u64> predicted;
    mem->prefetch->predict(q, kPrefetchLookahead, &predicted);
    u64 shipped_pages = 0;
    u64 shipped_bytes = 0;
    for (const u64 p : predicted) {
      if (p >= page_count_of(*pte)) continue;  // out-of-range prediction: dropped
      const ByteRange page = page_range(*pte, p);
      if (!pte->mapped.contains(page.begin, page.end)) {
        if (!pte->swap_valid.overlaps(page.begin, page.end)) continue;  // never populated
        // Prefetch is best-effort: no memory, no page-in.
        if (!ok(map_page(*mem, *pte, p, must_map, now_stamp.count(), /*demand=*/false,
                         &evicted))) {
          continue;
        }
      }
      const IntervalSet ship = pte->host_dirty.intersected(IntervalSet::of(page.begin, page.end));
      if (ship.empty()) continue;  // already resident
      vt::TimePoint landed{};
      for (const ByteRange& r : ship.ranges()) {
        auto done = rt_->memcpy_h2d_async(
            pte->owner_client, pte->device_ptr + r.begin,
            std::span<const std::byte>(pte->swap).subspan(r.begin, r.size()));
        if (!done.has_value()) break;  // prefetch is best-effort
        pte->upload_done = std::max(pte->upload_done, done.value());
        pte->host_dirty.erase(r.begin, r.end);
        shipped_bytes += r.size();
        landed = std::max(landed, done.value());
      }
      if (landed == vt::TimePoint{}) continue;
      ++shipped_pages;
      stamp_pages(*pte, {p}, landed.count());
      pte->prefetched_untouched.add(page.begin, page.end);
      must_map[pte].add(page.begin, page.end);  // later predictions keep it
    }
    if (shipped_pages > 0) {
      pte->to_copy_2_dev = !pte->host_dirty.empty();
      stats_.prefetched_pages.fetch_add(shipped_pages, std::memory_order_relaxed);
      prefetched_pages_counter().add(shipped_pages);
      stats_.swap_in_bytes.fetch_add(shipped_bytes, std::memory_order_relaxed);
      swap_in_bytes_counter().add(shipped_bytes);
    }
  }
  if (evicted > 0) count_intra_swap();
  for (PageTableEntry* pte : closure) audit_residency(*pte);

  result.translated.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    if (refs[i].pte == nullptr) {
      result.translated.push_back(args[i]);
    } else {
      // Preserve the argument kind (dev vs dev_out) through translation.
      result.translated.push_back(
          sim::KernelArg{args[i].kind, refs[i].pte->device_ptr + refs[i].offset});
    }
  }
  result.outcome = PrepareOutcome::Ready;
  result.error = Status::Ok;
  return result;
}

bool MemoryManager::try_peer_move(CtxMem& mem, PageTableEntry& pte, GpuId gpu,
                                  ClientId client) {
  if (pte.mapped.empty()) return false;  // nothing to copy: swap_entry just releases
  sim::SimGpu* src_dev = rt_->machine().gpu(GpuId{pte.resident_gpu});
  sim::SimGpu* dst_dev = rt_->machine().gpu(gpu);
  if (src_dev == nullptr || dst_dev == nullptr || !src_dev->healthy() || !dst_dev->healthy()) {
    return false;
  }
  // The destination mirrors the source's residency: the same pages inside
  // a fresh span.
  auto dptr = rt_->reserve(client, pte.size);
  if (!dptr) return false;
  bool moved = true;  // false: destination full, fall back to the swap path
  for (const u64 p : pte.mapped.pages(page_bytes_of(pte), pte.size)) {
    const ByteRange r = page_range(pte, p);
    moved = moved && ok(rt_->map(client, dptr.value() + r.begin, r.size()));
  }
  for (const ByteRange& r : pte.mapped.ranges()) {
    moved = moved && ok(rt_->memcpy_peer(client, dptr.value() + r.begin,
                                         pte.device_ptr + r.begin, r.size()));
  }
  if (!moved) {
    (void)rt_->free(client, dptr.value());
    return false;
  }
  (void)rt_->free(pte.owner_client, pte.device_ptr);
  pte.device_ptr = dptr.value();
  pte.owner_client = client;
  pte.resident_gpu = gpu;
  // Dirty state is unchanged: the device copy moved devices; the swap copy
  // is exactly as (in)valid as before.
  mem.resident_gpu.store(gpu.value, std::memory_order_relaxed);
  ctx_lru_touch(mem, gpu.value, mem.last_use_ns.load(std::memory_order_relaxed));
  stats_.peer_copies.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status MemoryManager::swap_context(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  obs::SpanScope sp("swap-out", "swap", obs::kRuntimePid, ctx.value, ctx.value);
  u64 swapped = 0;
  Status first_error = Status::Ok;
  for (auto& [vptr, pte] : mem->entries) {
    if (!pte->is_allocated) continue;
    swapped += pte->mapped.total_bytes();
    const Status s = swap_entry(*mem, *pte);
    if (!ok(s) && ok(first_error)) first_error = s;
  }
  sp.set_bytes(swapped);
  return first_error;
}

Status MemoryManager::checkpoint(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  // All or nothing: a device lost part-way must not leave some entries at
  // this checkpoint and others at the previous one, or a replay of the work
  // since would run on a torn image. The swap bytes each write-back
  // overwrites are saved first and put back if the device goes away.
  struct Saved {
    PageTableEntry* pte;
    ByteRange range;
    std::vector<std::byte> bytes;
  };
  std::vector<Saved> undo;
  for (auto& [vptr, pte] : mem->entries) {
    if (pte->to_copy_2_swap) {
      for (const ByteRange& r : writeback_ranges(*pte, {0, pte->size})) {
        const auto old = std::span(pte->swap).subspan(r.begin, r.size());
        undo.push_back(Saved{pte.get(), r, std::vector<std::byte>(old.begin(), old.end())});
      }
      const Status s = write_back(*pte, {0, pte->size}, false);
      if (s == Status::ErrorDeviceUnavailable) {
        for (const Saved& u : undo) {
          std::copy(u.bytes.begin(), u.bytes.end(),
                    u.pte->swap.begin() + static_cast<std::ptrdiff_t>(u.range.begin));
        }
        return s;
      }
      if (!ok(s)) return s;
    }
    if (!pte->nested.empty()) rewrite_nested_to_virtual(*pte);
  }
  return Status::Ok;
}

void MemoryManager::on_device_lost(ContextId ctx, GpuId gpu) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return;
  for (auto& [vptr, pte] : mem->entries) {
    if (!pte->is_allocated || GpuId{pte->resident_gpu} != gpu) continue;
    pte->is_allocated = false;
    pte->device_ptr = kNullDevicePtr;
    pte->to_copy_2_dev = true;   // recover from the swap copy
    pte->to_copy_2_swap = false; // device-only data since the last
                                 // checkpoint is lost
    pte->dev_dirty.clear();      // lost with the device
    pte->host_dirty.clear();     // recomputed from swap_valid on re-materialization
    tlb_flush_entry(*mem, *pte);
    pte->upload_done = vt::TimePoint{};
    pte->prefetched_untouched.clear();
    lru_remove(*mem, *pte);
    mem->resident_bytes.fetch_sub(pte->mapped.total_bytes(), std::memory_order_relaxed);
    pte->mapped.clear();
  }
  if (mem->resident_bytes.load(std::memory_order_relaxed) == 0) {
    mem->resident_gpu.store(0, std::memory_order_relaxed);
    ctx_lru_remove(*mem);
  }
}

u64 MemoryManager::resident_bytes(ContextId ctx, GpuId gpu) const {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return 0;
  if (GpuId{mem->resident_gpu.load(std::memory_order_relaxed)} != gpu) return 0;
  return mem->resident_bytes.load(std::memory_order_relaxed);
}

u64 MemoryManager::resident_bytes_on(GpuId gpu) const {
  // Every context with residency is in the LRU directory.
  std::scoped_lock lk(ctx_lru_.mu);
  u64 total = 0;
  for (const auto& [key, mem] : ctx_lru_.order) {
    if (GpuId{mem->resident_gpu.load(std::memory_order_relaxed)} != gpu) continue;
    total += mem->resident_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

std::optional<GpuId> MemoryManager::residency(ContextId ctx) const {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return std::nullopt;
  const u64 gpu = mem->resident_gpu.load(std::memory_order_relaxed);
  if (gpu == 0) return std::nullopt;
  return GpuId{gpu};
}

u64 MemoryManager::mem_usage(ContextId ctx) const {
  CtxMemPtr mem = find(ctx);
  return mem == nullptr ? 0 : mem->total_bytes.load(std::memory_order_relaxed);
}

std::vector<ContextId> MemoryManager::victim_candidates(GpuId gpu, u64 needed,
                                                        ContextId requester) const {
  // In-order walk of this gpu's slice of the LRU directory: the key order
  // (gpu, last_use_ns, ctx) reproduces the old sort over a full scan of
  // every context.
  std::vector<ContextId> out;
  std::scoped_lock lk(ctx_lru_.mu);
  auto it = ctx_lru_.order.lower_bound(
      std::tuple<u64, i64, u64>{gpu.value, std::numeric_limits<i64>::min(), 0});
  for (; it != ctx_lru_.order.end() && std::get<0>(it->first) == gpu.value; ++it) {
    const CtxMem* mem = it->second;
    const ContextId ctx{std::get<2>(it->first)};
    if (ctx == requester) continue;
    // Stale-entry guards: residency may have moved since the last touch.
    if (GpuId{mem->resident_gpu.load(std::memory_order_relaxed)} != gpu) continue;
    if (mem->resident_bytes.load(std::memory_order_relaxed) < needed) continue;
    out.push_back(ctx);
  }
  return out;
}

namespace {

// Memory-state codec: checkpoint images and migration deltas share one
// little-endian layout (see the header comment):
//   u32 magic, u32 version,
//   u64 tombstone count, u64 vptr per tombstone,
//   u64 entry count, per entry:
//     u64 vptr, u64 size, u8 type, u8 is_nested_member,
//     u64 nested count, (u64 offset, u64 target) per reference,
//     u64 swap_valid range count, (u64 begin, u64 end) per range,
//     u64 shipped range count, (u64 begin, u64 end, u64 n, n bytes) per range.
constexpr u32 kStateMagic = 0x6c646d67;  // "gmdl"
constexpr u32 kStateVersion = 1;
// Decoder caps: a corrupt count fails the parse instead of sizing a loop.
constexpr u64 kMaxRecords = u64{1} << 24;
constexpr u64 kMaxNestedRefs = u64{1} << 20;

/// An entry to encode and the swap ranges whose bytes it ships.
struct Shipment {
  const PageTableEntry* pte = nullptr;
  IntervalSet ranges;
};

/// Counts the bytes a WireWriter would append, copying none.
struct WireSizer {
  u64 bytes = 0;
  template <typename T>
  void put(const T&) {
    bytes += sizeof(T);
  }
  void put_bytes(std::span<const u8> data) { bytes += sizeof(u64) + data.size(); }
};

template <typename Sink>
void encode_state(Sink& w, std::span<const VirtualPtr> freed,
                  const std::vector<Shipment>& entries) {
  w.put(kStateMagic);
  w.put(kStateVersion);
  w.put(static_cast<u64>(freed.size()));
  for (const VirtualPtr vptr : freed) w.put(vptr);
  w.put(static_cast<u64>(entries.size()));
  for (const Shipment& e : entries) {
    const PageTableEntry& pte = *e.pte;
    w.put(pte.virtual_ptr);
    w.put(pte.size);
    w.put(static_cast<u8>(pte.type));
    w.put(static_cast<u8>(pte.is_nested_member ? 1 : 0));
    w.put(static_cast<u64>(pte.nested.size()));
    for (const NestedRef& ref : pte.nested) {
      w.put(ref.offset);
      w.put(ref.target);
    }
    w.put(static_cast<u64>(pte.swap_valid.ranges().size()));
    for (const ByteRange& r : pte.swap_valid.ranges()) {
      w.put(r.begin);
      w.put(r.end);
    }
    w.put(static_cast<u64>(e.ranges.ranges().size()));
    for (const ByteRange& r : e.ranges.ranges()) {
      w.put(r.begin);
      w.put(r.end);
      w.put_bytes({reinterpret_cast<const u8*>(pte.swap.data()) + r.begin, r.size()});
    }
  }
}

struct DecodedEntry {
  VirtualPtr vptr = kNullVirtualPtr;
  u64 size = 0;
  EntryType type = EntryType::Linear;
  bool is_nested_member = false;
  std::vector<NestedRef> nested;
  std::vector<ByteRange> valid;
  /// Shipped ranges and their bytes (borrowed from the encoded buffer).
  std::vector<std::pair<ByteRange, std::span<const u8>>> shipped;
};

struct DecodedState {
  std::vector<VirtualPtr> freed;
  std::vector<DecodedEntry> entries;
};

/// Parses and validates a whole encoding; nullopt when it is malformed.
std::optional<DecodedState> decode_state(std::span<const u8> buf) {
  WireReader r(buf);
  if (r.get<u32>() != kStateMagic || r.get<u32>() != kStateVersion) return std::nullopt;
  DecodedState out;
  const u64 freed = r.get<u64>();
  if (!r.ok() || freed > kMaxRecords) return std::nullopt;
  for (u64 i = 0; i < freed && r.ok(); ++i) out.freed.push_back(r.get<u64>());
  const std::set<VirtualPtr> dead(out.freed.begin(), out.freed.end());
  const u64 count = r.get<u64>();
  if (!r.ok() || count > kMaxRecords) return std::nullopt;
  for (u64 i = 0; i < count && r.ok(); ++i) {
    DecodedEntry e;
    e.vptr = r.get<u64>();
    e.size = r.get<u64>();
    e.type = static_cast<EntryType>(r.get<u8>());
    e.is_nested_member = r.get<u8>() != 0;
    // An entry wrapping the address space, or one both freed and shipped.
    if (e.vptr + e.size < e.vptr || dead.count(e.vptr) != 0) return std::nullopt;
    const u64 refs = r.get<u64>();
    if (!r.ok() || refs > kMaxNestedRefs) return std::nullopt;
    for (u64 j = 0; j < refs && r.ok(); ++j) {
      NestedRef ref;
      ref.offset = r.get<u64>();
      ref.target = r.get<u64>();
      if (ref.offset > e.size || e.size - ref.offset < sizeof(u64)) return std::nullopt;
      e.nested.push_back(ref);
    }
    const u64 valid = r.get<u64>();
    if (!r.ok() || valid > kMaxRecords) return std::nullopt;
    for (u64 j = 0; j < valid && r.ok(); ++j) {
      const u64 begin = r.get<u64>();
      const u64 end = r.get<u64>();
      if (begin > end || end > e.size) return std::nullopt;
      e.valid.push_back(ByteRange{begin, end});
    }
    const u64 shipped = r.get<u64>();
    if (!r.ok() || shipped > kMaxRecords) return std::nullopt;
    for (u64 j = 0; j < shipped && r.ok(); ++j) {
      const u64 begin = r.get<u64>();
      const u64 end = r.get<u64>();
      if (begin > end || end > e.size) return std::nullopt;
      const auto bytes = r.get_span();
      if (!r.ok() || bytes.size() != end - begin) return std::nullopt;
      e.shipped.emplace_back(ByteRange{begin, end}, bytes);
    }
    out.entries.push_back(std::move(e));
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return out;
}

}  // namespace

StatusOr<std::vector<u8>> MemoryManager::export_image(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  // Make the swap area authoritative (costed writeback of dirty entries),
  // and let any overlapped eviction drains land before serializing. Every
  // entry ships its validated ranges: the rest is zero on both sides.
  if (const Status s = checkpoint(ctx); !ok(s)) return s;
  std::vector<Shipment> all;
  for (auto& [vptr, pte] : mem->entries) {
    fence_writeback(*pte);
    all.push_back(Shipment{pte.get(), pte->swap_valid});
  }
  WireWriter w;
  encode_state(w, {}, all);
  return w.take();
}

Status MemoryManager::import_image(ContextId ctx, std::span<const u8> image) {
  return load_state(ctx, image, /*replace=*/true, Status::ErrorCheckpointNotFound);
}

Status MemoryManager::load_state(ContextId ctx, std::span<const u8> buf, bool replace,
                                 Status malformed) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  std::optional<DecodedState> state = decode_state(buf);
  if (!state) return malformed;
  // Still without touching the context: check every entry against the one
  // it refreshes and build the swap areas of new ones, so installing below
  // cannot fail half way.
  std::map<VirtualPtr, std::unique_ptr<PageTableEntry>> fresh;
  for (const DecodedEntry& e : state->entries) {
    const PageTableEntry* known = nullptr;
    if (const auto it = fresh.find(e.vptr); it != fresh.end()) {
      known = it->second.get();
    } else if (const auto at = mem->entries.find(e.vptr); !replace && at != mem->entries.end()) {
      known = at->second.get();
    }
    if (known != nullptr) {
      if (known->size != e.size) return malformed;  // virtual addresses never resize
      continue;
    }
    auto pte = std::make_unique<PageTableEntry>();
    pte->virtual_ptr = e.vptr;
    pte->size = e.size;
    try {
      pte->swap.resize(e.size);  // zero outside the shipped ranges
    } catch (const std::bad_alloc&) {
      return Status::ErrorSwapAllocation;
    } catch (const std::length_error&) {
      return malformed;  // larger than any swap area can be
    }
    fresh.emplace(e.vptr, std::move(pte));
  }

  if (replace) {
    // Drop the current state (device + swap).
    for (auto& [vptr, pte] : mem->entries) {
      if (pte->is_allocated) (void)rt_->free(pte->owner_client, pte->device_ptr);
    }
    mem->entries.clear();
    mem->lru.clear();
    mem->tlb = CtxMem::Tlb{};  // every old translation points at dead entries
    ctx_lru_remove(*mem);
    mem->total_bytes.store(0, std::memory_order_relaxed);
    mem->resident_bytes.store(0, std::memory_order_relaxed);
    mem->resident_gpu.store(0, std::memory_order_relaxed);
  }
  for (const VirtualPtr vptr : state->freed) {
    const auto it = mem->entries.find(vptr);
    if (it == mem->entries.end()) continue;  // freed before it ever shipped
    PageTableEntry* pte = it->second.get();
    if (pte->is_allocated) release_device(*mem, *pte);
    mem->total_bytes.fetch_sub(pte->size, std::memory_order_relaxed);
    mem->entries.erase(it);
  }
  u64 max_vptr_end = 0;
  for (const DecodedEntry& e : state->entries) {
    auto it = mem->entries.find(e.vptr);
    if (it == mem->entries.end()) {
      it = mem->entries.emplace(e.vptr, std::move(fresh.at(e.vptr))).first;
      mem->total_bytes.fetch_add(e.size, std::memory_order_relaxed);
    }
    PageTableEntry& pte = *it->second;
    pte.type = e.type;
    pte.is_nested_member = e.is_nested_member;
    pte.nested = e.nested;
    for (const ByteRange& v : e.valid) pte.swap_valid.add(v.begin, v.end);
    for (const auto& [range, bytes] : e.shipped) {
      std::memcpy(pte.swap.data() + range.begin, bytes.data(), bytes.size());
      mark_host_dirty(pte, range.begin, range.end);
    }
    pte.to_copy_2_dev = true;  // swap is authoritative: re-materialize from it
    max_vptr_end = std::max(max_vptr_end, e.vptr + e.size);
  }

  // Future allocations must not collide with installed virtual addresses
  // (CAS-max: the bump allocator may race ahead concurrently).
  if (max_vptr_end != 0) {
    const u64 want = (max_vptr_end + 511) / 256 * 256;
    u64 cur = va_next_.load(std::memory_order_relaxed);
    while (cur < want &&
           !va_next_.compare_exchange_weak(cur, want, std::memory_order_relaxed)) {
    }
  }
  return Status::Ok;
}

void MemoryManager::epoch_mark(CtxMem& mem, const PageTableEntry& pte, u64 begin, u64 end) {
  if (!mem.epoch.active) return;
  IntervalSet& set = mem.epoch.dirty[pte.virtual_ptr];
  if (end > begin) set.add(begin, end);
}

Status MemoryManager::begin_migration(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  mem->epoch.active = true;
  mem->epoch.dirty.clear();
  mem->epoch.freed.clear();
  return Status::Ok;
}

void MemoryManager::end_migration(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return;
  mem->epoch.active = false;
  mem->epoch.dirty.clear();
  mem->epoch.freed.clear();
}

StatusOr<std::vector<u8>> MemoryManager::collect_migration_delta(ContextId ctx) {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return Status::ErrorNoValidPte;
  if (!mem->epoch.active) return Status::ErrorInvalidValue;

  // Entries recorded dirty that still exist (freed ones became tombstones).
  std::vector<Shipment> live;
  for (const auto& [vptr, set] : mem->epoch.dirty) {
    const auto it = mem->entries.find(vptr);
    if (it == mem->entries.end()) continue;
    PageTableEntry& pte = *it->second;
    // Make swap authoritative for the recorded ranges. A device lost mid-
    // round is not fatal: write_back recovers the entry to its last swap-
    // consistent state, which is exactly what the job itself replays from.
    if (pte.to_copy_2_swap) {
      const Status s = write_back(pte, {0, pte.size}, false);
      if (!ok(s) && s != Status::ErrorDeviceUnavailable) return s;
    }
    fence_writeback(pte);
    if (!pte.nested.empty()) rewrite_nested_to_virtual(pte);
    // Ship only recorded-dirty ∩ swap-valid: bytes outside swap_valid are
    // zero on both sides (the target unions the same validity map).
    live.push_back(Shipment{&pte, set.intersected(pte.swap_valid)});
  }
  WireWriter w;
  encode_state(w, mem->epoch.freed, live);
  mem->epoch.dirty.clear();
  mem->epoch.freed.clear();
  return w.take();
}

Status MemoryManager::apply_migration_delta(ContextId ctx, std::span<const u8> delta) {
  return load_state(ctx, delta, /*replace=*/false, Status::ErrorProtocol);
}

u64 MemoryManager::naive_image_bytes(ContextId ctx) const {
  CtxMemPtr mem = find(ctx);
  if (mem == nullptr) return 0;
  // The codec's size with every entry shipped whole, validated or not.
  std::vector<Shipment> whole;
  for (const auto& [vptr, pte] : mem->entries) {
    whole.push_back(Shipment{pte.get(), IntervalSet::of(0, pte->size)});
  }
  WireSizer sizer;
  encode_state(sizer, {}, whole);
  return sizer.bytes;
}

u64 MemoryManager::evict_pages(ContextId ctx, GpuId gpu, u64 needed) {
  CtxMemPtr mem = find(ctx);
  const sim::SimGpu* dev = rt_->machine().gpu(gpu);
  if (mem == nullptr || dev == nullptr) return 0;
  const i64 now_ns = rt_->machine().domain().now().count();
  // The victim is idle (no launch pending), so every mapped page is a
  // candidate. At least one page goes even when a hole already fits: the
  // requester's map failed, whatever the reason.
  u64 freed = 0;
  do {
    const PageVictim victim = coldest_page(*mem, gpu, {}, now_ns, /*take_prefetched=*/true);
    if (victim.pte == nullptr) break;
    const u64 bytes = page_range(*victim.pte, victim.page).size();
    if (!ok(evict_page(*mem, *victim.pte, victim.page))) break;
    freed += bytes;
  } while (dev->largest_free_block() < needed);
  if (freed > 0) {
    obs::emit_instant("inter-app-page-evict", "swap", obs::kRuntimePid, ctx.value, ctx.value);
  }
  return freed;
}

void MemoryManager::count_inter_app_swap() {
  stats_.inter_app_swaps.fetch_add(1, std::memory_order_relaxed);
}

Status MemoryManager::preempt_swap_out(ContextId ctx) {
  const Status s = swap_context(ctx);
  if (ok(s)) stats_.preempt_swaps.fetch_add(1, std::memory_order_relaxed);
  return s;
}

MemStats MemoryManager::stats() const {
  MemStats out;
  out.intra_app_swaps = stats_.intra_app_swaps.load(std::memory_order_relaxed);
  out.inter_app_swaps = stats_.inter_app_swaps.load(std::memory_order_relaxed);
  out.swapped_entries = stats_.swapped_entries.load(std::memory_order_relaxed);
  out.swap_bytes = stats_.swap_bytes.load(std::memory_order_relaxed);
  out.bulk_transfers = stats_.bulk_transfers.load(std::memory_order_relaxed);
  out.bounds_rejections = stats_.bounds_rejections.load(std::memory_order_relaxed);
  out.peer_copies = stats_.peer_copies.load(std::memory_order_relaxed);
  out.async_writebacks = stats_.async_writebacks.load(std::memory_order_relaxed);
  out.writeback_fences = stats_.writeback_fences.load(std::memory_order_relaxed);
  out.swap_out_bytes = stats_.swap_out_bytes.load(std::memory_order_relaxed);
  out.swap_in_bytes = stats_.swap_in_bytes.load(std::memory_order_relaxed);
  out.dirty_bytes_saved = stats_.dirty_bytes_saved.load(std::memory_order_relaxed);
  out.clean_swap_skips = stats_.clean_swap_skips.load(std::memory_order_relaxed);
  out.preempt_swaps = stats_.preempt_swaps.load(std::memory_order_relaxed);
  out.page_faults = stats_.page_faults.load(std::memory_order_relaxed);
  out.tlb_hits = stats_.tlb_hits.load(std::memory_order_relaxed);
  out.tlb_misses = stats_.tlb_misses.load(std::memory_order_relaxed);
  out.prefetched_pages = stats_.prefetched_pages.load(std::memory_order_relaxed);
  out.prefetch_unused_pages = stats_.prefetch_unused_pages.load(std::memory_order_relaxed);
  out.page_evictions = stats_.page_evictions.load(std::memory_order_relaxed);
  out.residency_violations = stats_.residency_violations.load(std::memory_order_relaxed);
  return out;
}

}  // namespace gpuvm::core
