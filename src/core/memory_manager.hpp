// MemoryManager: the virtual-memory abstraction for GPUs.
//
// The central contribution of the paper. Two ideas (section 4.5): (1)
// applications never see device addresses -- they see runtime-generated
// virtual addresses; (2) data lives in host memory (the swap area) and
// moves to the device only on demand, making host memory a lower level of
// the memory hierarchy.
//
// Every allocation is a PageTableEntry carrying the three pointers
// (virtual, swap, device) and the three flags (isAllocated, toCopy2Dev,
// toCopy2Swap) whose transitions follow Figure 4 of the paper:
//
//     malloc            -> (F,F,F)   entry exists, nothing staged
//     copyHD (deferred) -> (F,T,F)   data staged in swap, device stale
//     launch            -> (T,F,T)   allocated+copied, device copy dirty
//     copyHD when bound -> (T,T,F)/(T,F,T) deferred/eager configurations
//     copyDH            -> device synced to swap first when dirty
//     swap              -> (F,T,F)   device span freed, swap holds the data
//     page eviction     -> (T,*,F)   span kept, the evicted pages unmapped
//
// Deferral enables: executing malloc/copyHD with no device at all (delayed
// binding), coalescing multiple host writes into one bulk transfer, intra-
// and inter-application swapping, and detection of out-of-bounds operations
// before they reach the device (Table 1's runtime-level errors).
//
// Concurrency: the per-context page tables live in a sharded map, so
// tenants' malloc/memcpy/free never contend with each other; virtual
// addresses come from a lock-free atomic bump allocator; counters are
// relaxed atomics. The only remaining cross-tenant serialization is the
// scheduler and the device engines themselves.
//
// One write-back (write_back): every device->swap copy -- copyDH, partial
// host writes, checkpoints, migration rounds, entry swaps and page
// evictions -- ships the range's dirty bytes through one helper. Evictions
// run it asynchronously (MemoryConfig::async_writeback): the device bytes
// land in swap immediately (the staging copy of a pinned-buffer
// write-behind) and the copy engine is reserved without blocking -- the
// evictor overlaps the D2H drain with its own kernel work. Paths that
// *consume* swap bytes (copyDH, bulk re-materialization, image export)
// fence on the entry's modeled drain completion, so no reader ever
// observes bytes "before the DMA delivered them".
//
// Checkpoints (section 4.6): "Our mechanism can be combined with BLCR in
// order to enable these mechanisms also after a full restart of a node."
// After checkpoint() the swap area is the authoritative copy, so a
// context's complete memory state -- every page-table entry's metadata,
// nested-reference table and validated swap bytes -- serializes to a flat
// image that restores into a fresh context on any node (the same one after
// a restart, or a different one for cross-node job migration). No device
// state is captured and -- unlike NVCR -- restoring replays no allocation
// history: entries re-materialize on demand at the next kernel launch.
// Images and live-migration deltas share one codec: an image is a delta
// that ships every entry's validated bytes and frees nothing.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "common/interval_set.hpp"
#include "common/sharded_map.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"
#include "core/gpu_api.hpp"
#include "core/paging_policy.hpp"
#include "cudart/cudart.hpp"
#include "obs/metrics.hpp"

namespace gpuvm::core {

enum class EntryType : u8 { Linear = 0, Pitched = 1 };

struct PageTableEntry {
  VirtualPtr virtual_ptr = kNullVirtualPtr;
  std::vector<std::byte> swap;  ///< swap_ptr: host copy of the data
  DevicePtr device_ptr = kNullDevicePtr;
  u64 size = 0;

  /// device_ptr holds a reserved device span, mapped page by page (one
  /// page spanning the whole entry in the entry engine).
  bool is_allocated = false;
  bool to_copy_2_dev = false; ///< authoritative data only in swap
  bool to_copy_2_swap = false;///< authoritative data only on device

  EntryType type = EntryType::Linear;
  /// Pointer slots within this entry (registered nested structure).
  std::vector<NestedRef> nested;
  bool is_nested_member = false;

  /// Device bookkeeping when allocated.
  GpuId resident_gpu{};
  ClientId owner_client{};  ///< cudart client that owns device_ptr

  vt::TimePoint last_use{};

  /// Modeled completion time of an in-flight asynchronous swap write-back
  /// of this entry. The swap bytes are already content-correct (snapshot at
  /// eviction); readers of swap must sleep until this point first. Zero =
  /// nothing in flight.
  vt::TimePoint writeback_done{};

  // ---- Incremental swap-engine state (MemoryConfig::incremental_swap) ----
  // The three interval sets refine the boolean flags to byte granularity.
  // Discipline: a byte is dirty in at most one direction at a time -- a
  // partial host write to a device-dirty entry syncs the device ranges into
  // swap first (same hazard the boolean path already handles), so the gaps
  // between dirty ranges are always in sync on both sides and transfer
  // consolidation may bridge them freely.

  /// Device ranges newer than swap (refines to_copy_2_swap): written by
  /// kernel launches (per the launch's write-set annotation) and nested
  /// pointer pokes; drained by write_back.
  IntervalSet dev_dirty;
  /// Swap ranges newer than the device copy (refines to_copy_2_dev while
  /// allocated): staged deferred host/d2d writes; re-initialized to
  /// swap_valid at (re-)materialization, when the fresh device allocation
  /// holds zeroes and everything ever populated must be uploaded.
  IntervalSet host_dirty;
  /// Swap-validity map: ranges ever populated with data. Bytes outside are
  /// zero in swap *and* on any fresh (value-initialized) device allocation,
  /// so a bounce (swap-out then swap-in with no intervening host mutation)
  /// uploads only the validated ranges and never-touched tails travel for
  /// free. Survives swap-out, device loss and checkpoint/restore.
  IntervalSet swap_valid;

  /// Device bytes backed by mapped memory inside the span: page-aligned
  /// ranges (the last page clamped to size) mapped one page at a time --
  /// [0, size) or nothing in the entry engine, whose one page is the entry.
  /// Discipline: dev_dirty and host_dirty never leave `mapped` -- only
  /// mapped bytes can be newer on either side -- and every transfer plan is
  /// clipped to it, so no copy ever touches an unmapped page.
  IntervalSet mapped;

  // ---- Paged-engine state (MemoryConfig::paging) --------------------------
  // Pure performance metadata: never serialized (checkpoint images and
  // migration deltas are engine-agnostic) and never consulted for content
  // decisions -- losing it costs extra transfers, not correctness.

  /// Per-page last-use stamps (ns), sized to the entry's page count on
  /// first paged touch; 0 = never touched. A launch stamps the pages it
  /// walks, a prefetch the pages it ships (at their landing time). Feeds
  /// EvictionPolicy ranking.
  std::vector<i64> page_use_ns;
  /// Pages a prefetch mapped that no launch has walked since; unmapping
  /// one counts a wasted prefetch (MemStats::prefetch_unused_pages).
  IntervalSet prefetched_untouched;
  /// Modeled completion time of an in-flight asynchronous prefetch page-in
  /// (H2D). Bytes land immediately; the next launch referencing the entry
  /// fences on this point -- the mirror of writeback_done. Zero = none.
  vt::TimePoint upload_done{};
};

/// Counters for the experiments (Figures 7-9 annotate swap counts). One
/// field list serves both copies: the MemoryManager counts into
/// BasicMemStats<obs::Counter> (relaxed atomics) and stats() returns the
/// MemStats snapshot.
template <typename Count>
struct BasicMemStats {
  Count intra_app_swaps{};    ///< launch-triggered evictions of own entries
  Count inter_app_swaps{};    ///< whole-context evictions for another app
  Count swapped_entries{};    ///< individual PTEs written back + freed
  Count swap_bytes{};
  Count bulk_transfers{};     ///< coalesced host->device materializations
  Count bounds_rejections{};  ///< bad ops stopped before touching the device
  Count peer_copies{};        ///< direct GPU-to-GPU migrations (CUDA 4 mode)
  Count async_writebacks{};   ///< evictions whose D2H overlapped other work
  Count writeback_fences{};   ///< swap reads that had to await an async drain
  Count swap_out_bytes{};     ///< bytes actually shipped D2H on the swap path
  Count swap_in_bytes{};      ///< bytes actually shipped H2D re-materializing
  Count dirty_bytes_saved{};  ///< bytes the incremental engine did not move
  Count clean_swap_skips{};   ///< evictions that skipped the D2H entirely
  Count preempt_swaps{};      ///< whole-context swap-outs on quantum expiry
  // Paged engine (MemoryConfig::paging); all zero in entry-granular mode.
  Count page_faults{};        ///< pages uploaded synchronously at launch
  Count tlb_hits{};
  Count tlb_misses{};
  Count prefetched_pages{};   ///< pages paged in asynchronously
  /// Prefetched pages unmapped (evicted or freed) before any launch
  /// touched them: the share of prefetch traffic that bought nothing.
  Count prefetch_unused_pages{};
  // Both engines (an entry-engine entry is one page).
  Count page_evictions{};     ///< mapped pages freed by victim eviction
  /// Entries found with device-dirty bytes outside their mapped pages at a
  /// prepare or page-eviction exit. An invariant: must stay 0.
  Count residency_violations{};

  /// Calls f("<field>", s.<field>...) once per field, in declaration order.
  template <typename F, typename... S>
  static void for_each_field(F&& f, S&... s) {
    f("intra_app_swaps", s.intra_app_swaps...);
    f("inter_app_swaps", s.inter_app_swaps...);
    f("swapped_entries", s.swapped_entries...);
    f("swap_bytes", s.swap_bytes...);
    f("bulk_transfers", s.bulk_transfers...);
    f("bounds_rejections", s.bounds_rejections...);
    f("peer_copies", s.peer_copies...);
    f("async_writebacks", s.async_writebacks...);
    f("writeback_fences", s.writeback_fences...);
    f("swap_out_bytes", s.swap_out_bytes...);
    f("swap_in_bytes", s.swap_in_bytes...);
    f("dirty_bytes_saved", s.dirty_bytes_saved...);
    f("clean_swap_skips", s.clean_swap_skips...);
    f("preempt_swaps", s.preempt_swaps...);
    f("page_faults", s.page_faults...);
    f("tlb_hits", s.tlb_hits...);
    f("tlb_misses", s.tlb_misses...);
    f("prefetched_pages", s.prefetched_pages...);
    f("prefetch_unused_pages", s.prefetch_unused_pages...);
    f("page_evictions", s.page_evictions...);
    f("residency_violations", s.residency_violations...);
  }
};
using MemStats = BasicMemStats<u64>;

/// Memory-manager settings. RuntimeConfig inherits this struct, so a
/// daemon's config hands it to the MemoryManager verbatim.
struct MemoryConfig {
  /// Defer host->device transfers until kernel launch (the paper's
  /// default experimental configuration). When false, copies go straight
  /// to the device once the entry is materialized (overlap-friendly,
  /// higher swap cost).
  bool defer_transfers = true;
  /// CUDA 4.0 semantics (paper section 4.8): migrate entries between
  /// healthy devices with a direct GPU-to-GPU copy instead of a swap round
  /// trip ("faster thread-to-GPU remapping"); the Runtime additionally
  /// shares one context among connections carrying the same application id.
  bool cuda4_semantics = false;
  /// Overlap eviction D2H write-backs with subsequent work instead of
  /// blocking the evictor (see the header comment). Readers of the swap
  /// bytes fence on the modeled drain completion.
  bool async_writeback = true;
  /// Incremental swap engine: move only dirty byte intervals on the swap
  /// path (write-back the kernel's write-set, upload only invalidated /
  /// validated ranges) instead of whole entries. False restores the naive
  /// whole-buffer baseline for ablation (bench_swap).
  bool incremental_swap = true;

  // ---- Paged engine -------------------------------------------------------

  /// Page size of the one residency path. Every entry reserves its device
  /// span once and maps, uploads, writes back and evicts pages inside it.
  /// True: fixed-size pages (page_bytes), scoped by the launch's AccessHint
  /// annotations, with a per-context TLB model charging miss costs on
  /// prepare_launch and page-in prediction. False: the entry-granular
  /// engine, one page spanning the whole entry; hints are ignored, and
  /// there is no TLB charge and no prefetch. Kernel bodies always address
  /// one contiguous span.
  bool paging = false;
  /// Fixed page size of the paged engine. Must be nonzero: the Runtime
  /// refuses every handshake when it is 0.
  u64 page_bytes = 64 * 1024;
  /// Victim-ranking policy (core/paging_policy.hpp). Ranks intra-app page
  /// victims in both engines; without page stamps (the entry engine never
  /// sets them) every built-in ranks by the entry LRU stamp. An unknown
  /// name makes the Runtime refuse every handshake with ErrorInvalidValue.
  std::string eviction_policy = "page-lru";
  /// Page-in prediction policy; "none" = demand paging only.
  std::string prefetch_policy = "stride";
};

class MemoryManager {
 public:
  explicit MemoryManager(cudart::CudaRt& rt) : MemoryManager(rt, MemoryConfig{}) {}
  MemoryManager(cudart::CudaRt& rt, MemoryConfig config);

  // ---- Context lifecycle ---------------------------------------------------
  void add_context(ContextId ctx);
  /// Frees everything the context still holds (device + swap).
  void remove_context(ContextId ctx);

  // ---- Table-1 operations (caller holds the context's ContextLock) --------
  StatusOr<VirtualPtr> on_malloc(ContextId ctx, u64 size);
  /// `bound_client`: the vGPU client this context is currently bound to, if
  /// any -- enables the eager (non-deferred) configuration.
  Status on_copy_h2d(ContextId ctx, VirtualPtr dst, std::span<const std::byte> src,
                     std::optional<ClientId> bound_client);
  Status on_copy_d2h(ContextId ctx, std::span<std::byte> dst, VirtualPtr src, u64 size);
  Status on_copy_d2d(ContextId ctx, VirtualPtr dst, VirtualPtr src, u64 size);
  Status on_free(ContextId ctx, VirtualPtr ptr);
  Status register_nested(ContextId ctx, VirtualPtr parent, const std::vector<NestedRef>& refs);

  // ---- Launch-time materialization ----------------------------------------
  enum class PrepareOutcome {
    Ready,       ///< all referenced entries resident; `translated` valid
    WouldBlock,  ///< device memory exhausted and no local eviction possible:
                 ///< the caller should run inter-app swap or unbind+retry
    Error,       ///< a hard error (see `error`)
  };

  struct PrepareResult {
    PrepareOutcome outcome = PrepareOutcome::Error;
    Status error = Status::Ok;
    /// On WouldBlock: size of the page that failed to map (the whole entry
    /// in the entry engine).
    u64 needed_bytes = 0;
    std::vector<sim::KernelArg> translated;  ///< virtual -> device pointers
  };

  /// Materializes every page-table entry referenced by `args` on the GPU
  /// behind `client` (reserve each span once and map the launch's pages --
  /// the whole entry in the entry engine -- bulk-copy deferred data, patch
  /// nested pointers, evict own idle pages on OOM) and translates the
  /// pointer arguments. A launch needing more than the whole device fails
  /// with ErrorMemoryAllocation. Marks referenced entries device-dirty.
  PrepareResult prepare_launch(ContextId ctx, GpuId gpu, ClientId client,
                               const std::vector<sim::KernelArg>& args);

  // ---- Swapping / checkpoint ------------------------------------------------
  /// Writes back and frees every resident entry of `ctx` (inter-application
  /// swap victim path, migration, and the paper's Swap internal call).
  /// Caller holds the victim's ContextLock.
  Status swap_context(ContextId ctx);

  /// Inter-application page eviction (paged engine): writes back and
  /// unmaps `ctx`'s coldest pages on `gpu` until the device has a hole of
  /// `needed` bytes or the context has no mapped page left there. Returns
  /// the bytes freed. The context keeps its spans and its hotter pages.
  /// Caller holds the victim's ContextLock.
  u64 evict_pages(ContextId ctx, GpuId gpu, u64 needed);

  /// Preemptive swap-out (quantum expiry): the same dirty-interval
  /// write-back as swap_context, counted separately so rotation traffic is
  /// distinguishable from OOM-driven inter-application swap. Caller holds
  /// the victim's ContextLock.
  Status preempt_swap_out(ContextId ctx);

  /// Synchronizes all dirty entries to swap but keeps them resident:
  /// afterwards the swap area is a consistent checkpoint. On
  /// ErrorDeviceUnavailable the swap area is left at the previous
  /// checkpoint instead (all entries, not some).
  Status checkpoint(ContextId ctx);

  /// Serializes the context's full memory state (PTE metadata, nested
  /// references, validated swap bytes) into a flat image; checkpoints
  /// first, so entries still dirty on device are synced (costed). Caller
  /// holds the ContextLock.
  StatusOr<std::vector<u8>> export_image(ContextId ctx);

  /// Replaces the context's memory state with a previously exported image
  /// (or fails with ErrorCheckpointNotFound and leaves it untouched).
  /// Virtual addresses are preserved exactly, so pointers the application
  /// captured -- including those stored inside registered nested
  /// structures -- stay valid; device residency starts empty (data
  /// re-materializes from swap on the next launch).
  Status import_image(ContextId ctx, std::span<const u8> image);

  /// Marks every entry resident on `gpu` as lost: data recovers from the
  /// swap copy (the implicit checkpoint) at next materialization. Caller
  /// holds the context's ContextLock.
  void on_device_lost(ContextId ctx, GpuId gpu);

  // ---- Live migration (caller holds the ContextLock) ------------------------
  //
  // Pre-copy protocol: the source arms dirty tracking, exports the sparse
  // image (round 0) and keeps serving the job; each collect call drains the
  // byte ranges mutated since the previous one into a position-independent
  // delta. The target applies every round, the image included, as a delta.
  // The final collect happens with the connection quiesced (the
  // stop-and-copy), after which the target holds an exact replica.

  /// Arms pre-copy dirty tracking. Call under the same ContextLock hold as
  /// the round-0 export_image so no mutation falls between them.
  Status begin_migration(ContextId ctx);
  /// Serializes every entry mutated since begin/last collect (syncing its
  /// device-dirty ranges to swap first -- costed D2H) plus freed-entry
  /// tombstones, then clears the recorded set. Tracking stays armed.
  StatusOr<std::vector<u8>> collect_migration_delta(ContextId ctx);
  /// Disarms pre-copy tracking (migration committed or aborted).
  void end_migration(ContextId ctx);
  /// Applies a collected delta (or an image) on the migration target:
  /// creates or refreshes entries, processes tombstones. A malformed delta
  /// fails with ErrorProtocol and changes nothing. Touched entries re-
  /// materialize from swap on the next launch.
  Status apply_migration_delta(ContextId ctx, std::span<const u8> delta);
  /// Bytes a naive freeze-ship-resume would move: the size of an image
  /// shipping every entry whole -- the bench_migration baseline.
  u64 naive_image_bytes(ContextId ctx) const;

  // ---- Queries (thread-safe, no context lock needed) ------------------------
  /// Bytes of `ctx` data currently resident (mapped) on `gpu`.
  u64 resident_bytes(ContextId ctx, GpuId gpu) const;
  /// Bytes mapped on `gpu` across every context.
  u64 resident_bytes_on(GpuId gpu) const;
  /// GPU where this context has resident data (unique by construction), if any.
  std::optional<GpuId> residency(ContextId ctx) const;
  /// Total allocation footprint of the context (MemUsage in the paper).
  u64 mem_usage(ContextId ctx) const;
  /// Contexts other than `requester` with at least `needed` resident bytes
  /// on `gpu` -- inter-application swap victim candidates, LRU first.
  std::vector<ContextId> victim_candidates(GpuId gpu, u64 needed, ContextId requester) const;

  /// Called by the runtime when an inter-application swap victim was
  /// evicted (the memory manager performs the eviction via swap_context but
  /// cannot tell why it was asked).
  void count_inter_app_swap();

  MemStats stats() const;
  /// Page-table shard-lock acquisitions that found the shard busy.
  u64 shard_contention() const { return contexts_.contention(); }

 private:
  /// Pre-copy dirty tracking for one migration attempt. Guarded -- like
  /// `entries` -- by the caller's ContextLock: every recording site already
  /// holds it. Ranges are swap-level: a device write counts when its
  /// write-set is declared (prepare_launch dirty marking), and the collect
  /// pass syncs those ranges into swap before reading them.
  struct MigrationEpoch {
    bool active = false;
    std::map<VirtualPtr, IntervalSet> dirty;  ///< keyed by entry base vptr
    std::vector<VirtualPtr> freed;            ///< tombstones since last collect
  };

  struct CtxMem {
    ContextId self{};  ///< owning context (for the cross-context LRU index)
    std::map<VirtualPtr, std::unique_ptr<PageTableEntry>> entries;
    /// Indexed LRU over *allocated* entries, keyed by (last_use, vptr):
    /// begin() is the exact entry the old O(entries) victim scan would have
    /// picked (oldest stamp, lowest virtual address on ties). Maintained on
    /// every last_use update / allocation / eviction, guarded -- like
    /// `entries` -- by the caller's ContextLock.
    std::map<std::pair<i64, u64>, PageTableEntry*> lru;
    std::atomic<u64> total_bytes{0};
    std::atomic<u64> resident_bytes{0};
    std::atomic<u64> resident_gpu{0};  // GpuId.value; 0 = none
    std::atomic<i64> last_use_ns{0};
    MigrationEpoch epoch;  ///< guarded by the caller's ContextLock

    // ---- Paged-engine per-context state (MemoryConfig::paging) --------------
    // Guarded -- like `entries` -- by the caller's ContextLock. Deterministic
    // by construction: the LRU order is a tick counter bumped per access,
    // never wall-clock, so identical launch sequences replay identical
    // hit/miss streams (the chaos determinism suite holds us to it).

    /// Software TLB over (entry vptr, page index) translations.
    struct Tlb {
      std::map<std::pair<u64, u64>, u64> slot;  ///< key -> tick of last access
      std::map<u64, std::pair<u64, u64>> order; ///< tick -> key (LRU = begin)
      u64 tick = 0;
    };
    Tlb tlb;
    /// Per-context policy instances (stateful prefetchers must not share
    /// observations across tenants). Null only when the configured name is
    /// unknown; prepare_launch then fails with ErrorInvalidValue.
    std::unique_ptr<EvictionPolicy> evict;
    std::unique_ptr<PrefetchPolicy> prefetch;
  };

  using CtxMemPtr = std::shared_ptr<CtxMem>;

  CtxMemPtr find(ContextId ctx) const;

  /// A located page-table entry: the entry containing a (possibly interior)
  /// virtual pointer and the offset within it. `pte == nullptr` = miss.
  struct Located {
    PageTableEntry* pte = nullptr;
    u64 offset = 0;
  };
  static Located locate(CtxMem& mem, VirtualPtr ptr);

  // ---- Indexed LRU maintenance (caller holds the ContextLock) -------------
  /// Re-stamps the entry's last_use and moves it to the MRU position.
  static void lru_touch(CtxMem& mem, PageTableEntry& pte, vt::TimePoint stamp);
  /// Unlinks the entry (eviction, free, device loss).
  static void lru_remove(CtxMem& mem, PageTableEntry& pte);

  // ---- Cross-context LRU directory (its own mutex; no ContextLock) --------
  /// Records that `mem` has residency on `gpu` as of `now_ns`.
  void ctx_lru_touch(CtxMem& mem, u64 gpu, i64 now_ns) const;
  /// Drops the context from the directory (residency gone).
  void ctx_lru_remove(CtxMem& mem) const;

  /// Transfer plan for the `dirty` bytes of `pte`: the consolidated
  /// ranges, clipped to the mapped pages so a bridged gap never crosses an
  /// unmapped one.
  std::vector<ByteRange> transfer_plan(const PageTableEntry& pte, const IntervalSet& dirty) const;
  /// The byte ranges a D2H write-back of `range` of this entry ships (the
  /// whole range in naive mode, its consolidated dev_dirty otherwise).
  std::vector<ByteRange> writeback_ranges(const PageTableEntry& pte, ByteRange range) const;
  /// The byte ranges a re-materializing H2D upload must ship.
  std::vector<ByteRange> upload_ranges(const PageTableEntry& pte) const;
  /// Marks swap bytes [begin, end) newer than the device copy -- only the
  /// mapped part: an unmapped page uploads from swap when it is mapped.
  static void mark_host_dirty(PageTableEntry& pte, u64 begin, u64 end);

  /// The one device->swap write-back (the paper's `Swap`, minus the free):
  /// ships writeback_ranges(pte, range) D2H -- asynchronously when `async`,
  /// stamping writeback_done -- extends swap_valid, clears the range's
  /// device-dirty state and rewrites nested pointers to their virtual form.
  /// Counts swap_out_bytes, async_writebacks and, for a whole-entry range,
  /// the bytes it did not ship. On ErrorDeviceUnavailable the swap copy
  /// becomes authoritative again (the implicit checkpoint). The caller
  /// decides whether the range is dirty.
  Status write_back(PageTableEntry& pte, ByteRange range, bool async);

  /// Blocks until any in-flight asynchronous write-back of this entry has
  /// drained (modeled time only; the bytes are already in place). Call
  /// before *reading* the entry's swap bytes.
  void fence_writeback(PageTableEntry& pte);

  /// Writes back (if dirty) and frees the device span. Updates accounting
  /// unless no page was mapped. The paper's `Swap` internal call, for one
  /// entry. With async_writeback the D2H drain overlaps the caller's
  /// subsequent work.
  Status swap_entry(CtxMem& mem, PageTableEntry& pte);

  /// Decodes an image or delta and installs it into `ctx`: replacing
  /// every entry (`replace`, an image) or merging into them (a delta). The
  /// whole buffer is parsed and checked against the context before any
  /// change; a malformed one returns `malformed` and changes nothing.
  Status load_state(ContextId ctx, std::span<const u8> buf, bool replace, Status malformed);

  /// Counts `bytes` incremental write-back did not have to ship.
  void count_saved(u64 bytes);
  /// Counts one entry leaving the device whole -- by swap_entry, or by
  /// evicting its only page. A clean entry moved nothing and saved all of
  /// it; a dirty entry's write-back counts its own savings.
  void count_entry_swap(const PageTableEntry& pte, bool dirty);

  /// Frees the entry's device span and dissolves its residency: mapped
  /// pages, TLB translations, in-flight prefetch, LRU slot and resident-
  /// byte accounting (dropping the context from the LRU directory when
  /// nothing stays resident). Leaves the swap-side flags to the caller.
  void release_device(CtxMem& mem, PageTableEntry& pte);

  // ---- Mapped-byte accounting (caller holds the ContextLock) --------------
  /// Records [begin, end) of the allocated entry as freshly mapped: the
  /// new device bytes read zero, so every validated swap byte in the range
  /// must upload (host_dirty), and the bytes count as resident.
  void note_mapped(CtxMem& mem, PageTableEntry& pte, u64 begin, u64 end, i64 now_ns) const;
  /// Drops `bytes` of mapped residency from the context (and the context
  /// from the LRU directory when nothing stays resident).
  void note_unmapped(CtxMem& mem, u64 bytes) const;
  /// Counts the prefetched pages in [begin, end) no launch touched as
  /// wasted, and forgets them.
  void retire_prefetched(PageTableEntry& pte, u64 begin, u64 end);

  /// CUDA 4 direct migration of one resident entry's mapped pages to `gpu`;
  /// false when none is mapped or on any obstacle (caller falls back to the
  /// swap path).
  bool try_peer_move(CtxMem& mem, PageTableEntry& pte, GpuId gpu, ClientId client);

  /// After device->swap writeback of a nested parent, the swap image must
  /// hold virtual (position-independent) pointers again.
  static void rewrite_nested_to_virtual(PageTableEntry& pte);
  /// After materialization, pointer slots on the device must hold the
  /// children's device addresses.
  Status patch_nested_on_device(CtxMem& mem, PageTableEntry& pte);

  /// Transitive closure over nested references, children first.
  static std::vector<PageTableEntry*> nested_closure(CtxMem& mem,
                                                     std::vector<PageTableEntry*> roots);

  /// Records `[begin, end)` of `pte` in the armed migration epoch (no-op
  /// when tracking is off). Call wherever the swap-level content or
  /// metadata of an entry changes.
  static void epoch_mark(CtxMem& mem, const PageTableEntry& pte, u64 begin, u64 end);

  // ---- Paged engine (caller holds the ContextLock) -------------------------
  /// Blocks until any in-flight asynchronous prefetch page-in of this entry
  /// has landed (modeled time; bytes are already in place). Call before a
  /// launch consumes the entry's device bytes.
  void fence_upload(PageTableEntry& pte);
  /// Drops every TLB translation of the entry (eviction, free, device loss,
  /// image import -- any point its device residency dissolves).
  static void tlb_flush_entry(CtxMem& mem, const PageTableEntry& pte);
  /// One TLB access for (entry, page); returns true on hit. Evicts the
  /// least-recently-ticked translation at capacity.
  bool tlb_access(CtxMem& mem, const PageTableEntry& pte, u64 page);
  /// The entry's page size: MemoryConfig::page_bytes in the paged engine,
  /// the whole entry in the entry engine.
  u64 page_bytes_of(const PageTableEntry& pte) const;
  /// Entry page count under its page size (>= 1 for size > 0).
  u64 page_count_of(const PageTableEntry& pte) const;
  /// Stamps page-use recency for the touched pages (grows page_use_ns
  /// lazily on first paged touch).
  void stamp_pages(PageTableEntry& pte, const std::vector<u64>& pages, i64 now_ns);
  /// Byte range of page `page` of the entry (the last page clamped).
  ByteRange page_range(const PageTableEntry& pte, u64 page) const;
  /// Drops the TLB translation of one page, if cached.
  static void tlb_flush_page(CtxMem& mem, const PageTableEntry& pte, u64 page);

  /// A page the victim walk picked: page `page` of `pte`.
  struct PageVictim {
    PageTableEntry* pte = nullptr;
    u64 page = 0;
  };
  /// The context's coldest mapped page on `gpu` outside `keep` (per entry,
  /// the byte ranges a pending launch needs), by the eviction policy's page
  /// score; ties go to the entry LRU walk order, then the lower page.
  /// Prefetched pages no launch has walked yet rank after every walked
  /// page -- a prediction names a future use, a walked page's next use is
  /// unknown -- and are skipped entirely unless `take_prefetched`.
  PageVictim coldest_page(CtxMem& mem, GpuId gpu,
                          const std::map<PageTableEntry*, IntervalSet>& keep, i64 now_ns,
                          bool take_prefetched) const;
  /// Writes back one mapped page's device-dirty bytes and unmaps it. The
  /// span stays reserved. Evicting a one-page entry counts as a swapped
  /// entry, like swap_entry.
  Status evict_page(CtxMem& mem, PageTableEntry& pte, u64 page);
  /// Maps page `page` of the allocated entry, evicting the context's own
  /// coldest pages outside `keep` while the device is full (a prefetch,
  /// `!demand`, never evicts another prefetched page). Returns
  /// ErrorMemoryAllocation when nothing is left to evict; `*evicted` counts
  /// the pages it evicted.
  Status map_page(CtxMem& mem, PageTableEntry& pte, u64 page,
                  const std::map<PageTableEntry*, IntervalSet>& keep, i64 now_ns, bool demand,
                  u64* evicted);
  /// Counts a paged entry whose device-dirty bytes left its mapped pages.
  void audit_residency(const PageTableEntry& pte);

  cudart::CudaRt* rt_;
  MemoryConfig config_;

  /// Per-context page tables, sharded by context id: tenants' memory ops
  /// touch only their own shard (leaf lock, held for map lookup only).
  ShardedMap<ContextId, CtxMemPtr> contexts_;
  /// Lock-free virtual-address bump allocator (256-aligned spans).
  std::atomic<u64> va_next_{1ull << 48};

  mutable BasicMemStats<obs::Counter> stats_;

  /// Inter-application victim directory: contexts with device residency,
  /// keyed by (gpu, last_use_ns, ctx) so victim_candidates() is an in-order
  /// walk of one gpu's slice instead of a scan over every context. Guarded
  /// by its own leaf mutex (held for map surgery only).
  struct CtxLruDirectory {
    mutable std::mutex mu;
    std::map<std::tuple<u64, i64, u64>, CtxMem*> order;  // (gpu, stamp, ctx)
    std::map<u64, std::tuple<u64, i64, u64>> where;      // ctx -> current key
  };
  mutable CtxLruDirectory ctx_lru_;
};

}  // namespace gpuvm::core
