// Canonical metric names, centralized so producers and consumers share one
// spelling.
//
// Every counter/gauge/histogram registered in the MetricsRegistry is keyed
// by a string; a typo'd string at any call site silently creates a second,
// forever-empty metric. Referencing these constants instead turns the typo
// into a build error and gives grep one place to find who owns a name.
//
// Naming scheme: `<layer>.<what>[_unit]` for live instruments updated on
// the hot path, and `stats.<layer>.<field>` for the gauges published from
// the per-layer stats structs at snapshot time (see
// Runtime::publish_metrics, which also emits per-node
// `stats.node.<name>.*` and per-device `stats.gpu<N>.*` families -- those
// names are data-dependent and stay dynamic, assembled from the prefixes
// below).
#pragma once

namespace gpuvm::obs::names {

// ---- cudart / sim ----------------------------------------------------------
inline constexpr char kCudartCalls[] = "cudart.calls";
inline constexpr char kGpuKernelSeconds[] = "gpu.kernel_seconds";
inline constexpr char kGpuTransferBytes[] = "gpu.transfer_bytes";

// ---- transport -------------------------------------------------------------
inline constexpr char kTransportMessagesSent[] = "transport.messages_sent";
inline constexpr char kTransportBytesSent[] = "transport.bytes_sent";
inline constexpr char kTransportRetries[] = "transport.retries";
inline constexpr char kTransportDroppedMessages[] = "transport.dropped_messages";
inline constexpr char kTransportBrokenChannels[] = "transport.broken_channels";
inline constexpr char kTransportReconnects[] = "transport.reconnects";

// ---- core runtime ----------------------------------------------------------
inline constexpr char kRuntimeLaunchSeconds[] = "runtime.launch_seconds";
inline constexpr char kRuntimeRecoveries[] = "runtime.recoveries";
inline constexpr char kRuntimeOffloadFallbacks[] = "runtime.offload_fallbacks";
inline constexpr char kRuntimeDispatchLockContended[] = "runtime.dispatch_lock_contended";
inline constexpr char kRuntimeDispatchLockWaitSeconds[] =
    "runtime.dispatch_lock_wait_seconds";

// ---- scheduler -------------------------------------------------------------
inline constexpr char kSchedQueueWaitSeconds[] = "sched.queue_wait_seconds";
inline constexpr char kSchedRequeues[] = "sched.requeues";
inline constexpr char kSchedMigrations[] = "sched.migrations";
/// Bindings revoked by quantum expiry (preemptive policies).
inline constexpr char kSchedPreemptions[] = "sched.preemptions";
/// Current preemption quantum (gauge, nanoseconds) after governor trips.
inline constexpr char kSchedQuantumNs[] = "sched.quantum_ns";
/// Anti-thrashing governor quantum escalations.
inline constexpr char kSchedThrashTrips[] = "sched.thrash_trips";
/// How long bindings were held before release or preemption (histogram).
inline constexpr char kSchedHeldSeconds[] = "sched.held_seconds";

// ---- memory manager --------------------------------------------------------
inline constexpr char kMmSwapBytes[] = "mm.swap_bytes";
inline constexpr char kMmSwapInBytes[] = "mm.swap_in_bytes";
inline constexpr char kMmAsyncWritebacks[] = "mm.async_writebacks";
inline constexpr char kMmWritebackFences[] = "mm.writeback_fences";
inline constexpr char kMmDirtyBytesSaved[] = "mm.dirty_bytes_saved";
inline constexpr char kMmBulkH2dBytes[] = "mm.bulk_h2d_bytes";

// ---- paged memory engine (MemoryConfig::paging) ----------------------------
/// Pages uploaded synchronously on the launch path (demand paging).
inline constexpr char kMmPageFaults[] = "mm.page_faults";
inline constexpr char kMmTlbHits[] = "mm.tlb_hits";
inline constexpr char kMmTlbMisses[] = "mm.tlb_misses";
/// Pages paged in asynchronously by the prefetch policy.
inline constexpr char kMmPrefetchedPages[] = "mm.prefetched_pages";
/// Pages freed by paged-engine victim eviction.
inline constexpr char kMmPageEvictions[] = "mm.page_evictions";
/// Modeled seconds a launch spent servicing its page faults (histogram).
inline constexpr char kMmPageFaultSeconds[] = "mm.page_fault_seconds";

// ---- cluster control plane -------------------------------------------------
inline constexpr char kClusterOffloadHysteresisRejections[] =
    "cluster.offload_hysteresis_rejections";
inline constexpr char kClusterDirectoryStaleReports[] = "cluster.directory_stale_reports";
/// + DispatchPolicy::name(): one counter per placement policy.
inline constexpr char kClusterDispatchPrefix[] = "cluster.dispatch.";

// ---- live migration --------------------------------------------------------
inline constexpr char kClusterMigrations[] = "cluster.migrations";
inline constexpr char kMigrationBytes[] = "migration.bytes";
inline constexpr char kMigrationPrecopyBytes[] = "migration.precopy_bytes";
inline constexpr char kMigrationStopCopyBytes[] = "migration.stop_copy_bytes";
inline constexpr char kMigrationStopCopyMs[] = "migration.stop_copy_ms";
inline constexpr char kMigrationRefused[] = "migration.refused";

// ---- chaos -----------------------------------------------------------------
inline constexpr char kChaosEvents[] = "chaos.events";

// ---- virtual clock engine (vt::Domain::clock_stats) ------------------------
/// Quiescence advances performed by the domain clock.
inline constexpr char kStatsVtAdvances[] = "stats.vt.advances";
/// Sleepers woken + task-runner callbacks executed.
inline constexpr char kStatsVtEventsDispatched[] = "stats.vt.events_dispatched";
/// Peak concurrent sleeper-queue population.
inline constexpr char kStatsVtSleepersPeak[] = "stats.vt.sleepers_peak";

// ---- published stats gauges (fixed names; see header comment) --------------
inline constexpr char kStatsMmIntraAppSwaps[] = "stats.mm.intra_app_swaps";
inline constexpr char kStatsMmInterAppSwaps[] = "stats.mm.inter_app_swaps";
inline constexpr char kStatsMmSwapBytes[] = "stats.mm.swap_bytes";
inline constexpr char kStatsRuntimePrefix[] = "stats.runtime.";
inline constexpr char kStatsSchedPrefix[] = "stats.sched.";
inline constexpr char kStatsMmPrefix[] = "stats.mm.";
inline constexpr char kStatsNodePrefix[] = "stats.node.";

// ---- cluster aggregation (obs/aggregate.hpp) -------------------------------
/// Aggregated snapshots namespace per-node views as `node.<name>.<metric>`
/// and cluster-wide rollups as `cluster.total.<metric>`.
inline constexpr char kAggregateNodePrefix[] = "node.";
inline constexpr char kAggregateClusterPrefix[] = "cluster.total.";

}  // namespace gpuvm::obs::names
