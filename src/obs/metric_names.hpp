// Canonical metric names, centralized so producers and consumers share one
// spelling.
//
// Every counter/gauge/histogram registered in the MetricsRegistry is keyed
// by a string; a typo'd string at any call site silently creates a second,
// forever-empty metric. Referencing these constants instead turns the typo
// into a build error and gives grep one place to find who owns a name.
//
// Naming scheme: one name per number.
// - `stats.<layer>.<field>`: a per-instance count. The per-layer stats
//   structs (RuntimeStats, SchedulerStats, MemStats, GpuStats) are the only
//   place such an event is counted; Runtime::publish_metrics walks each
//   struct's field list and publishes every field under this name, plus the
//   per-node `stats.node.<name>.*` and per-device `stats.gpu<N>.*` copies,
//   assembled from the prefixes below.
// - `<layer>.<what>[_unit]`: only histograms and process-level counters
//   (transport, cudart, dispatch policy, chaos, migration bytes), updated on
//   the hot path. Never a second count of an event a stats struct counts.
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
inline constexpr char kRuntimeDispatchLockWaitSeconds[] =
    "runtime.dispatch_lock_wait_seconds";

// ---- scheduler -------------------------------------------------------------
inline constexpr char kSchedQueueWaitSeconds[] = "sched.queue_wait_seconds";
/// How long bindings were held before release or preemption (histogram).
inline constexpr char kSchedHeldSeconds[] = "sched.held_seconds";

// ---- memory manager --------------------------------------------------------
inline constexpr char kMmSwapBytes[] = "mm.swap_bytes";
inline constexpr char kMmBulkH2dBytes[] = "mm.bulk_h2d_bytes";

// ---- paged memory engine (MemoryConfig::paging) ----------------------------
/// Modeled seconds a launch spent servicing its page faults (histogram).
inline constexpr char kMmPageFaultSeconds[] = "mm.page_fault_seconds";

// ---- cluster control plane -------------------------------------------------
inline constexpr char kClusterOffloadHysteresisRejections[] =
    "cluster.offload_hysteresis_rejections";
inline constexpr char kClusterDirectoryStaleReports[] = "cluster.directory_stale_reports";
/// + DispatchPolicy::name(): one counter per placement policy.
inline constexpr char kClusterDispatchPrefix[] = "cluster.dispatch.";

// ---- live migration --------------------------------------------------------
inline constexpr char kMigrationBytes[] = "migration.bytes";
inline constexpr char kMigrationPrecopyBytes[] = "migration.precopy_bytes";
inline constexpr char kMigrationStopCopyBytes[] = "migration.stop_copy_bytes";
inline constexpr char kMigrationStopCopyMs[] = "migration.stop_copy_ms";

// ---- chaos -----------------------------------------------------------------
inline constexpr char kChaosEvents[] = "chaos.events";

// ---- virtual clock engine (vt::Domain::clock_stats) ------------------------
/// Quiescence advances performed by the domain clock.
inline constexpr char kStatsVtAdvances[] = "stats.vt.advances";
/// Sleepers woken + task-runner callbacks executed.
inline constexpr char kStatsVtEventsDispatched[] = "stats.vt.events_dispatched";
/// Peak concurrent sleeper-queue population.
inline constexpr char kStatsVtSleepersPeak[] = "stats.vt.sleepers_peak";

// ---- published stats gauges (see header comment) ---------------------------
inline constexpr char kStatsRuntimePrefix[] = "stats.runtime.";
inline constexpr char kStatsSchedPrefix[] = "stats.sched.";
inline constexpr char kStatsMmPrefix[] = "stats.mm.";
/// + node name + ".": RuntimeStats per named node (co-hosted daemons).
inline constexpr char kStatsNodePrefix[] = "stats.node.";
/// + GpuId + ".": GpuStats per device.
inline constexpr char kStatsGpuPrefix[] = "stats.gpu";
/// Current preemption quantum (nanoseconds) after governor trips.
inline constexpr char kStatsSchedQuantumNs[] = "stats.sched.quantum_ns";
/// Page-table shard-lock acquisitions that found the shard busy.
inline constexpr char kStatsMmShardContention[] = "stats.mm.shard_contention";

// ---- cluster aggregation (obs/aggregate.hpp) -------------------------------
/// Aggregated snapshots namespace per-node views as `node.<name>.<metric>`
/// and cluster-wide rollups as `cluster.total.<metric>`.
inline constexpr char kAggregateNodePrefix[] = "node.";
inline constexpr char kAggregateClusterPrefix[] = "cluster.total.";

}  // namespace gpuvm::obs::names
