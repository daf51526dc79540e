// Runtime: the gpuvm node daemon.
//
// The stand-alone process of the paper (Figure 3): a connection manager
// accepts one connection per application thread; dispatcher logic services
// the CUDA calls -- registration eagerly, device management overridden,
// memory operations through the MemoryManager in terms of virtual
// addresses only -- and delays application-to-vGPU binding until the first
// kernel launch. Virtual GPUs time-share the physical devices; the memory
// manager provides intra-/inter-application swap; failed contexts recover
// onto surviving devices; overload can be shed to a peer node daemon
// (inter-node offloading).
//
// Threading model (DispatchMode::Sharded, the default): each connection is
// served by its own thread; a call locks only its context's ContextLock, the
// context table and per-context page tables are sharded maps, counters are
// relaxed atomics, and the daemon-wide mu_ guards nothing but connection
// bookkeeping and the CUDA-4 app-context registry. Tenants contend only on
// the scheduler (when competing for vGPUs) and on the device engines
// themselves. DispatchMode::GlobalLock is the legacy discipline -- one
// daemon-wide vt-aware lock held across every call -- kept as an explicit
// baseline for the throughput benchmark; it requires at least as many vGPUs
// as concurrently launching tenants (a tenant blocked in acquire() holds the
// dispatch lock).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/sharded_map.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "core/context.hpp"
#include "core/memory_manager.hpp"
#include "core/scheduler.hpp"
#include "cudart/cudart.hpp"
#include "obs/metrics.hpp"
#include "transport/channel.hpp"

namespace gpuvm::core {

/// How the dispatcher serializes concurrent application calls.
enum class DispatchMode {
  /// One daemon-wide lock held for the full duration of every call (the
  /// pre-sharding discipline). Correct but serializes all tenants; kept as
  /// the labeled baseline for bench_throughput.
  GlobalLock,
  /// Per-context locks, sharded context/page tables, atomic counters.
  Sharded,
};

/// The daemon's settings. The memory-manager fields (transfer deferral,
/// swap engine, paging, CUDA 4 semantics) are inherited from MemoryConfig
/// and handed to the MemoryManager verbatim; cuda4_semantics also makes
/// connections carrying the same application id share one context. An
/// unknown paging or scheduling policy name, or a zero page_bytes, makes
/// the Runtime refuse every handshake with ErrorInvalidValue.
struct RuntimeConfig : MemoryConfig {
  /// Scheduling knobs (vGPUs per device, policy, migration, grace period),
  /// passed to the Scheduler verbatim -- see SchedulerConfig.
  SchedulerConfig scheduler;

  DispatchMode dispatch_mode = DispatchMode::Sharded;

  /// Node load (contexts waiting for a vGPU) above which newly arriving
  /// connections are offloaded to the peer node. <0 disables offloading.
  int offload_threshold = -1;

  /// Auto-checkpoint after any kernel whose execution took at least this
  /// long (0 disables). Bounds the restart penalty after a GPU failure.
  double auto_checkpoint_after_kernel_seconds = 0.0;

  /// Attempts to re-run a context's device call on another GPU after a
  /// device failure before giving up.
  int max_recovery_attempts = 3;

  /// Capabilities this daemon is willing to negotiate. Defaults to
  /// everything this build speaks; masking bits off emulates an older peer
  /// (e.g. ~caps::kQueryLoad behaves like a protocol-v2 daemon without load
  /// telemetry, which the NodeDirectory must tolerate).
  u32 caps_mask = protocol::caps::kAll;
};

/// Per-daemon event counts. One field list serves both copies: the Runtime
/// counts into BasicRuntimeStats<obs::Counter> (relaxed atomics) and
/// stats() returns the RuntimeStats snapshot; stats() and publish_metrics()
/// walk for_each_field rather than naming the fields again.
template <typename Count>
struct BasicRuntimeStats {
  Count connections{};
  Count offloaded_connections{};
  Count launches{};
  Count recoveries{};           ///< device calls replayed after a GPU failure
  Count auto_checkpoints{};
  Count swap_retry_backoffs{};  ///< launch attempts that unbound and retried
  Count offload_fallbacks{};    ///< offload attempts that fell back to local
                                ///< servicing (peer unreachable mid-handshake)
  Count dispatch_lock_contended{};  ///< dispatch-lock acquisitions that waited
  Count migrations_out{};      ///< contexts live-migrated to a peer node
  Count migrations_in{};       ///< contexts resumed from a peer's migration
  Count migrations_refused{};  ///< attempts aborted before commit (no kMigrate
                               ///< peer, busy context, transport failure)

  /// Calls f("<field>", s.<field>...) once per field, in declaration order.
  template <typename F, typename... S>
  static void for_each_field(F&& f, S&... s) {
    f("connections", s.connections...);
    f("offloaded_connections", s.offloaded_connections...);
    f("launches", s.launches...);
    f("recoveries", s.recoveries...);
    f("auto_checkpoints", s.auto_checkpoints...);
    f("swap_retry_backoffs", s.swap_retry_backoffs...);
    f("offload_fallbacks", s.offload_fallbacks...);
    f("dispatch_lock_contended", s.dispatch_lock_contended...);
    f("migrations_out", s.migrations_out...);
    f("migrations_in", s.migrations_in...);
    f("migrations_refused", s.migrations_refused...);
  }
};
using RuntimeStats = BasicRuntimeStats<u64>;

/// Knobs for one live-migration attempt (Runtime::migrate_context).
struct MigrationOptions {
  /// Pre-copy rounds after the round-0 image before stop-and-copy.
  int max_precopy_rounds = 3;
  /// Pre-copy converged: stop early once a round's delta is this small.
  u64 stop_copy_threshold_bytes = 4096;
  /// Attempts to catch the connection idle (calls_in_flight == 0) before
  /// giving up on the stop-and-copy.
  int max_quiesce_attempts = 50;
};

/// What one committed migration shipped (Runtime::migrate_context).
struct MigrationReport {
  int precopy_rounds = 0;      ///< delta rounds actually run (excl. round 0)
  u64 image_bytes = 0;         ///< round-0 sparse image size
  u64 precopy_bytes = 0;       ///< image + all pre-copy deltas
  u64 stop_copy_bytes = 0;     ///< final (quiesced) delta size
  u64 naive_bytes = 0;         ///< full freeze-ship-resume baseline
  double stop_copy_seconds = 0.0;  ///< virtual time the job was frozen
};

class Runtime {
 public:
  Runtime(cudart::CudaRt& rt, RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Creates a connected frontend endpoint (in-process transport with
  /// socket-like costs) and starts serving its peer.
  std::unique_ptr<transport::MessageChannel> connect();

  /// Same, with an explicit channel cost model (inter-node links pay
  /// network latency/bandwidth instead of local-socket costs).
  std::unique_ptr<transport::MessageChannel> connect_with(transport::ChannelCosts costs);

  /// Serves an externally created channel (unix-socket server, peer node).
  void serve_channel(std::unique_ptr<transport::MessageChannel> channel);

  /// Wires up inter-node offloading: `peer_factory` opens a channel to the
  /// peer daemon. Connections arriving while load >= offload_threshold are
  /// proxied there (their CUDA calls execute remotely; CPU phases stay with
  /// the application).
  void set_offload_peer(std::function<std::unique_ptr<transport::MessageChannel>()> factory);

  /// Offload load metric: pending work beyond this node's capacity --
  /// contexts blocked waiting for a vGPU, or active local connections in
  /// excess of the vGPU count (the paper gates dispatch on the length of
  /// the pending-connections list).
  int load() const;

  MemoryManager& memory() { return *mm_; }
  Scheduler& scheduler() { return *scheduler_; }
  cudart::CudaRt& cudart() { return *rt_; }
  RuntimeStats stats() const;
  const RuntimeConfig& config() const { return config_; }

  /// Names this daemon for cluster telemetry: `id` stamps LoadSnapshot.node,
  /// `name` prefixes the per-node "stats.node.<name>.*" gauges. Call once,
  /// before serving connections (the cluster layer does so at node
  /// construction).
  void set_node_identity(u64 id, std::string name);
  u64 node_id() const { return node_id_; }

  /// Point-in-time load telemetry (the QueryLoad answer): queue depth,
  /// binding pressure, free device memory, lifetime queue-wait p50, all
  /// stamped with the node's virtual time. Heartbeat subscriptions rewrite
  /// seq and the p50 window per report.
  transport::LoadSnapshot load_snapshot() const;

  /// Publishes every field of the per-layer stats structs (runtime,
  /// scheduler, memory manager, every GPU) into the global obs registry as
  /// "stats.<layer>.<field>" gauges, the runtime's also as
  /// "stats.node.<name>.<field>" once the node is named. Called right
  /// before a registry snapshot (QueryStats, --stats dumps) so the snapshot
  /// agrees with stats().
  void publish_metrics() const;

  /// Blocks until all currently-open connections have finished (used by
  /// tests and the batch harness between phases).
  void drain();

  /// Live-migrates context `id` to the peer daemon reached via `factory`
  /// (pre-copy rounds over the channel, then a quiesced stop-and-copy; see
  /// docs/ARCHITECTURE.md "Live migration"). On success the local context
  /// becomes a forwarding stub and the report says what was shipped. On any
  /// failure before the resume frame is sent the migration aborts cleanly
  /// and the job keeps running here.
  StatusOr<MigrationReport> migrate_context(
      ContextId id, const std::function<std::unique_ptr<transport::MessageChannel>()>& factory,
      MigrationOptions options = {});

  /// Preempts every bound context immediately, regardless of quantum
  /// (chaos "preempt" events). Returns the number of contexts preempted;
  /// 0 under a non-preemptive policy. Typed errors instead of a silent
  /// no-op (ErrorNotSupported when no executor is installed).
  StatusOr<int> preempt_now();

 private:
  void connection_loop(transport::MessageChannel& channel);
  void offload_proxy_loop(transport::MessageChannel& client,
                          transport::MessageChannel& peer);

  /// Services a QueryLoad subscription: pushes a LoadReport every
  /// `interval` until the channel closes or the daemon shuts down. The
  /// subscribing connection speaks nothing else afterwards.
  void heartbeat_loop(transport::MessageChannel& channel, ConnectionId conn,
                      vt::Duration interval);

  /// Dispatches one application message; returns the reply.
  transport::Message handle(Context& ctx, transport::MessageChannel& channel,
                            const transport::Message& msg);

  /// Relays one application message of a migrated context to the target
  /// daemon over ctx.fwd (falls back to local handling if the migration
  /// rolled back between the caller's check and the lock acquisition).
  transport::Message forward_migrated(Context& ctx, transport::MessageChannel& channel,
                                      const transport::Message& msg);

  /// Target-side MigrateChunk/MigrateResume (caps::kMigrate).
  Status apply_migrate_chunk(Context& ctx, const transport::Message& msg);
  Status apply_migrate_resume(Context& ctx, const transport::Message& msg);

  Status do_launch(Context& ctx, transport::MessageChannel& channel, const std::string& name,
                   const sim::LaunchConfig& config, const std::vector<sim::KernelArg>& args);

  /// Inter-application swap: evicts one unbound victim with enough resident
  /// bytes on `gpu`. Returns true if a victim was swapped.
  bool evict_one_victim(GpuId gpu, u64 needed, ContextId requester);

  /// Preempt executor installed into the Scheduler: swaps the victim's
  /// dirty intervals out under its ContextLock and revokes the binding.
  /// Returns false when the victim was mid-call (try_lock refused); the
  /// quantum pump retries and the victim's own launch loop yields at the
  /// next kernel boundary.
  bool preempt_context(ContextId id);

  void on_topology_event(sim::TopologyEvent event, GpuId gpu);

  std::shared_ptr<Context> find_context(ContextId id);

  /// Locks `lk`; when the lock was busy, counts the contention in
  /// RuntimeStats and records the wait in the obs registry. Used for both
  /// per-context locks (Sharded) and the daemon-wide lock (GlobalLock).
  void timed_lock(ContextLock& lk) const;

  cudart::CudaRt* rt_;
  RuntimeConfig config_;
  /// ErrorInvalidValue when config_ names an unknown paging or scheduling
  /// policy or sets page_bytes to 0; every handshake is then refused with it.
  Status config_status_ = Status::Ok;
  std::unique_ptr<MemoryManager> mm_;
  std::unique_ptr<Scheduler> scheduler_;

  /// Cluster identity (set_node_identity): fixed before serving starts.
  u64 node_id_ = 0;
  std::string node_name_;

  /// Context table, sharded by id: lookups on the dispatch hot path never
  /// serialize unrelated tenants.
  ShardedMap<ContextId, std::shared_ptr<Context>> contexts_;
  std::atomic<u64> next_context_{1};

  /// The DispatchMode::GlobalLock baseline lock (vt-aware: a tenant blocked
  /// on it does not stall the virtual clock). Unused in Sharded mode.
  std::unique_ptr<ContextLock> global_dispatch_;

  /// Guards connection bookkeeping and the CUDA-4 shared-context registry
  /// only -- never held across a dispatched call.
  mutable std::mutex mu_;
  std::map<u64, std::shared_ptr<Context>> app_contexts_;  // CUDA 4 mode
  std::vector<vt::Thread> threads_;
  int open_connections_ = 0;
  vt::ConditionVariable drained_cv_;
  bool shutting_down_ = false;

  std::function<std::unique_ptr<transport::MessageChannel>()> peer_factory_;

  mutable BasicRuntimeStats<obs::Counter> stats_;
};

}  // namespace gpuvm::core
