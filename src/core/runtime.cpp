#include "core/runtime.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <type_traits>

#include "common/log.hpp"
#include "common/wire.hpp"
#include "core/paging_policy.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace gpuvm::core {

using transport::Message;
using transport::Opcode;

namespace {

obs::Histogram& launch_seconds_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kRuntimeLaunchSeconds, obs::default_seconds_edges());
  return h;
}

obs::Histogram& dispatch_lock_wait_hist() {
  static obs::Histogram& h = obs::metrics().histogram(
      obs::names::kRuntimeDispatchLockWaitSeconds, obs::default_seconds_edges());
  return h;
}

obs::Counter& migration_bytes_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMigrationBytes);
  return c;
}

obs::Counter& migration_precopy_bytes_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMigrationPrecopyBytes);
  return c;
}

obs::Counter& migration_stop_copy_bytes_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMigrationStopCopyBytes);
  return c;
}

obs::Histogram& migration_stop_copy_ms_hist() {
  static obs::Histogram& h = obs::metrics().histogram(obs::names::kMigrationStopCopyMs,
                                                      obs::default_seconds_edges());
  return h;
}

/// RAII dispatch-lock holder built on Runtime::timed_lock (records wait time
/// and contention when the lock was busy).
class DispatchGuard {
 public:
  DispatchGuard(ContextLock& lk, const std::function<void(ContextLock&)>& locker) : lk_(lk) {
    locker(lk_);
  }
  ~DispatchGuard() { lk_.unlock(); }
  DispatchGuard(const DispatchGuard&) = delete;
  DispatchGuard& operator=(const DispatchGuard&) = delete;

 private:
  ContextLock& lk_;
};

}  // namespace

Runtime::Runtime(cudart::CudaRt& rt, RuntimeConfig config)
    : rt_(&rt),
      config_(config),
      mm_(std::make_unique<MemoryManager>(rt, config)),
      scheduler_(std::make_unique<Scheduler>(rt, *mm_, config.scheduler)),
      global_dispatch_(std::make_unique<ContextLock>(rt.machine().domain())),
      drained_cv_(rt.machine().domain()) {
  if (!make_eviction_policy(config_.eviction_policy).has_value() ||
      !make_prefetch_policy(config_.prefetch_policy).has_value() ||
      scheduler_->policy_status() != Status::Ok || config_.page_bytes == 0) {
    config_status_ = Status::ErrorInvalidValue;
    log::error("runtime: invalid config (eviction '%s', prefetch '%s', scheduler '%s', "
               "page_bytes %llu); refusing connections",
               config_.eviction_policy.c_str(), config_.prefetch_policy.c_str(),
               config_.scheduler.policy.c_str(),
               static_cast<unsigned long long>(config_.page_bytes));
  }
  // vGPUs for the devices installed at startup.
  const auto all = rt_->machine().all_gpus();
  for (size_t i = 0; i < all.size(); ++i) {
    const sim::SimGpu* dev = rt_->machine().gpu(all[i]);
    if (dev != nullptr && dev->healthy()) {
      scheduler_->add_device(static_cast<int>(i), all[i]);
    }
  }
  rt_->machine().subscribe(
      [this](sim::TopologyEvent event, GpuId gpu) { on_topology_event(event, gpu); });
  // The scheduler's quantum pump knows *when* to preempt; the runtime owns
  // *how* (the ContextLock discipline around the swap engine).
  scheduler_->set_preempt_executor([this](ContextId id) { return preempt_context(id); });
}

Runtime::~Runtime() {
  std::vector<vt::Thread> threads;
  {
    std::unique_lock lk(mu_);
    shutting_down_ = true;
    threads.swap(threads_);
  }
  // Connection threads exit when their channels close (clients closing) or
  // have already finished; joining happens via vt::Thread destructors.
  threads.clear();
}

void Runtime::on_topology_event(sim::TopologyEvent event, GpuId gpu) {
  switch (event) {
    case sim::TopologyEvent::GpuAdded: {
      const auto all = rt_->machine().all_gpus();
      const auto it = std::find(all.begin(), all.end(), gpu);
      if (it != all.end()) {
        scheduler_->add_device(static_cast<int>(it - all.begin()), gpu);
        log::info("runtime: GPU %llu added, vGPUs spawned",
                  static_cast<unsigned long long>(gpu.value));
      }
      break;
    }
    case sim::TopologyEvent::GpuRemoved:
    case sim::TopologyEvent::GpuFailed:
      scheduler_->remove_device(gpu);
      log::info("runtime: GPU %llu lost, contexts will recover onto surviving devices",
                static_cast<unsigned long long>(gpu.value));
      break;
  }
}

std::unique_ptr<transport::MessageChannel> Runtime::connect() {
  return connect_with(transport::ChannelCosts::local_socket());
}

std::unique_ptr<transport::MessageChannel> Runtime::connect_with(
    transport::ChannelCosts costs) {
  auto [client_end, server_end] = transport::make_local_pair(rt_->machine().domain(), costs);
  serve_channel(std::move(server_end));
  return std::move(client_end);
}

void Runtime::serve_channel(std::unique_ptr<transport::MessageChannel> channel) {
  std::unique_lock lk(mu_);
  if (shutting_down_) {
    channel->close();
    return;
  }
  ++open_connections_;
  stats_.connections.add(1);
  threads_.emplace_back(rt_->machine().domain(),
                        [this, ch = std::shared_ptr<transport::MessageChannel>(
                                   std::move(channel))]() mutable {
                          connection_loop(*ch);
                          ch->close();
                          std::unique_lock lk2(mu_);
                          --open_connections_;
                          drained_cv_.notify_all();
                        });
}

void Runtime::set_offload_peer(
    std::function<std::unique_ptr<transport::MessageChannel>()> factory) {
  std::unique_lock lk(mu_);
  peer_factory_ = std::move(factory);
}

int Runtime::load() const {
  const int active = static_cast<int>(contexts_.size());
  return std::max(scheduler_->waiting_count(), active - scheduler_->vgpu_count());
}

void Runtime::set_node_identity(u64 id, std::string name) {
  node_id_ = id;
  node_name_ = std::move(name);
}

transport::LoadSnapshot Runtime::load_snapshot() const {
  transport::LoadSnapshot snap;
  snap.node = node_id_;
  snap.vt_ns = rt_->machine().domain().now().count();
  snap.pending_contexts = scheduler_->waiting_count();
  snap.bound_contexts = scheduler_->bound_count();
  snap.active_contexts = static_cast<int>(contexts_.size());
  snap.vgpu_count = scheduler_->vgpu_count();
  const obs::Histogram& waits = scheduler_->queue_wait_local();
  snap.queue_wait_p50_seconds =
      obs::histogram_quantile(waits.edges(), waits.bucket_counts(), 0.5);
  for (const Scheduler::DeviceSlots& slots : scheduler_->device_slots()) {
    transport::DeviceLoad dev;
    dev.gpu = slots.gpu.value;
    dev.vgpus = slots.vgpus;
    dev.bound = slots.bound;
    if (const sim::SimGpu* gpu = rt_->machine().gpu(slots.gpu); gpu != nullptr) {
      dev.free_bytes = gpu->free_bytes();
      dev.total_bytes = gpu->capacity_bytes();
    }
    snap.devices.push_back(dev);
  }
  // Tenant table (gpuvm_top): reads only immutable ids and atomic state --
  // a context mid-construction or mid-teardown snapshots race-free. Sorted
  // so snapshots are independent of shard hashing.
  contexts_.for_each([&](const ContextId& id, const std::shared_ptr<Context>& ctx) {
    if (ctx == nullptr) return;
    transport::TenantLoad tenant;
    tenant.ctx = id.value;
    tenant.state = static_cast<i32>(ctx->state.load(std::memory_order_acquire));
    snap.tenants.push_back(tenant);
  });
  std::sort(snap.tenants.begin(), snap.tenants.end(),
            [](const transport::TenantLoad& a, const transport::TenantLoad& b) {
              return a.ctx < b.ctx;
            });
  return snap;
}

void Runtime::heartbeat_loop(transport::MessageChannel& channel, ConnectionId conn,
                             vt::Duration interval) {
  vt::Domain& dom = rt_->machine().domain();
  // "Recent" p50: each report covers the queue waits observed since the
  // previous one, not the daemon's lifetime.
  std::vector<u64> prev_waits = scheduler_->queue_wait_local().bucket_counts();
  u64 seq = 0;
  for (;;) {
    dom.sleep_for(interval);
    {
      std::unique_lock lk(mu_);
      if (shutting_down_) return;
    }
    if (channel.closed()) return;
    transport::LoadSnapshot snap = load_snapshot();
    snap.seq = ++seq;
    const std::vector<u64> waits = scheduler_->queue_wait_local().bucket_counts();
    snap.queue_wait_p50_seconds = obs::histogram_quantile_delta(
        scheduler_->queue_wait_local().edges(), waits, prev_waits, 0.5);
    prev_waits = waits;
    transport::Message report;
    report.op = Opcode::LoadReport;
    report.connection = conn;
    report.payload = transport::encode_load(snap);
    if (!channel.send(std::move(report))) return;
  }
}

RuntimeStats Runtime::stats() const { return obs::load_fields<RuntimeStats>(stats_); }

void Runtime::timed_lock(ContextLock& lk) const {
  if (lk.try_lock()) return;
  stats_.dispatch_lock_contended.add(1);
  vt::StopWatch watch(rt_->machine().domain());
  lk.lock();
  dispatch_lock_wait_hist().observe(watch.elapsed_seconds());
}

void Runtime::publish_metrics() const {
  obs::MetricsRegistry& reg = obs::metrics();
  // Every field of a per-layer stats struct becomes gauge <prefix><field>.
  const auto publish = [&reg](const std::string& prefix, const auto& stats) {
    std::remove_cvref_t<decltype(stats)>::for_each_field(
        [&](const char* field, const auto& value) {
          reg.gauge(prefix + field).set(static_cast<double>(value));
        },
        stats);
  };

  const RuntimeStats rs = stats();
  publish(obs::names::kStatsRuntimePrefix, rs);
  // Co-hosted daemons (cluster tests, gpuvm_run batches, the chaos harness)
  // share the process-global registry, so the "stats.runtime.*" gauges above
  // hold whichever node published last; the per-node copy keeps each
  // node's numbers visible through a single QueryStats.
  if (!node_name_.empty()) publish(obs::names::kStatsNodePrefix + node_name_ + ".", rs);

  publish(obs::names::kStatsSchedPrefix, scheduler_->stats());
  reg.gauge(obs::names::kStatsSchedQuantumNs).set(scheduler_->current_quantum_seconds() * 1e9);

  publish(obs::names::kStatsMmPrefix, mm_->stats());
  reg.gauge(obs::names::kStatsMmShardContention).set(static_cast<double>(mm_->shard_contention()));

  const vt::Domain::ClockStats cs = rt_->machine().domain().clock_stats();
  reg.gauge(obs::names::kStatsVtAdvances).set(static_cast<double>(cs.advances));
  reg.gauge(obs::names::kStatsVtEventsDispatched).set(static_cast<double>(cs.events_dispatched));
  reg.gauge(obs::names::kStatsVtSleepersPeak).set(static_cast<double>(cs.sleepers_peak));

  for (const GpuId gpu : rt_->machine().all_gpus()) {
    const sim::SimGpu* dev = rt_->machine().gpu(gpu);
    if (dev == nullptr) continue;
    publish(obs::names::kStatsGpuPrefix + std::to_string(gpu.value) + ".", dev->stats());
  }
}

void Runtime::drain() {
  // Callers are usually unattached (test mains, tools). Parking on a vt
  // condition variable must be accounted against the domain -- an idle wait
  // from an unattached thread would push the running count negative and
  // freeze the clock, deadlocking the very connections being waited on
  // (e.g. heartbeat pumps that only exit at their next wakeup).
  std::optional<vt::AttachGuard> attach;
  if (vt::Domain::current() == nullptr) attach.emplace(rt_->machine().domain());
  std::unique_lock lk(mu_);
  drained_cv_.wait(lk, [&] { return open_connections_ == 0; });
}

std::shared_ptr<Context> Runtime::find_context(ContextId id) {
  return contexts_.find(id);
}

void Runtime::connection_loop(transport::MessageChannel& channel) {
  auto hello_msg = channel.receive();
  if (!hello_msg.has_value() || hello_msg->op != Opcode::Hello) return;

  // Protocol handshake: reject pre-handshake (v1) or incompatible peers
  // with a clean ErrorProtocolMismatch instead of misparsing their frames.
  auto hello = transport::decode_hello(hello_msg->payload);
  if (!hello) {
    channel.send(transport::make_reply(hello_msg->connection, hello.status()));
    log::info("runtime: rejected peer with incompatible handshake (%s)",
              to_string(hello.status()));
    return;
  }
  if (config_status_ != Status::Ok) {
    channel.send(transport::make_reply(hello_msg->connection, config_status_));
    return;
  }
  // Negotiated capability set: what both sides speak (caps_mask lets tests
  // and deployments emulate an older daemon by withholding bits).
  const u32 caps = hello->caps & protocol::caps::kAll & config_.caps_mask;

  // Causal trace propagation: when both sides speak kTraceContext, the
  // client's trace identity is installed on this servicing thread for the
  // connection's lifetime -- every span/instant recorded below joins the
  // job's cross-process timeline. Without the bit (masked daemon, old
  // peer) the fields are ignored and events stay unstamped.
  obs::TraceContext trace;
  if ((caps & protocol::caps::kTraceContext) != 0 && hello->trace_id != 0) {
    trace = obs::TraceContext{hello->trace_id, hello->parent_span};
  }
  obs::ScopedTraceContext scoped_trace(trace);

  // Inter-node offloading: if this node is overloaded and a peer exists,
  // the whole connection is proxied there (section 4.7). Only the CUDA
  // calls move; the application's CPU phases stay where the job runs. A
  // connection already forwarded from a peer is never shed again
  // (prevents offload ping-pong between mutually overloaded nodes).
  std::function<std::unique_ptr<transport::MessageChannel>()> factory;
  {
    std::unique_lock lk(mu_);
    factory = peer_factory_;
  }
  if (!hello->forwarded && (caps & protocol::caps::kOffload) != 0 && factory &&
      config_.offload_threshold >= 0 && load() >= config_.offload_threshold) {
    // A mesh factory may *decline* (the directory's hysteresis found no
    // suitable peer): nullptr on the first call means "serve locally by
    // choice", which is not an offload fallback -- no counter, no log.
    if (auto first = factory(); first != nullptr) {
      // The peer handshake runs over a ReconnectingChannel seeded with the
      // already-open channel: a forwarded Hello lost to a broken link is
      // resent on a fresh channel. Once a session is established, a
      // mid-session break surfaces to the client as a closed connection
      // (the proxy carries no replayable state).
      auto seed = std::make_shared<std::unique_ptr<transport::MessageChannel>>(
          std::move(first));
      transport::ReconnectingChannel peer([seed, factory]() {
        if (*seed != nullptr) return std::move(*seed);
        return factory();
      });
      bool proxied = false;
      if (!peer.closed()) {
        // Offload session span: covers the whole proxied connection. Its
        // span id replaces the forwarded Hello's parent, so the destination
        // daemon's spans nest under the hop in the merged cluster trace.
        obs::SpanScope session("offload-session", "offload", obs::kRuntimePid,
                               obs::kOffloadTidBase + hello_msg->connection.value);
        transport::Message fwd = *hello_msg;
        transport::HelloPayload fwd_hello = *hello;
        fwd_hello.forwarded = true;  // the peer must not shed it again
        if (session.span_id() != 0) fwd_hello.parent_span = session.span_id();
        fwd.payload = transport::encode_hello(fwd_hello);
        if (peer.send(std::move(fwd))) {
          if (auto reply = peer.receive(); reply.has_value()) {
            if (trace.valid()) {
              // Destination without kTraceContext ignores the forwarded
              // trace; annotate the causal gap so the merged trace says why
              // the remote half is missing.
              auto hr = transport::decode_hello_reply(transport::reply_payload(*reply));
              if (hr.has_value() &&
                  (hr->caps & protocol::caps::kTraceContext) == 0) {
                obs::emit_instant("trace-gap: offload peer lacks kTraceContext",
                                  "trace", obs::kRuntimePid,
                                  obs::kOffloadTidBase + hello_msg->connection.value);
              }
            }
            stats_.offloaded_connections.add(1);
            channel.send(std::move(*reply));
            offload_proxy_loop(channel, peer);
            proxied = true;
          }
        }
      }
      peer.close();
      if (proxied) return;
      // Peer unreachable: degrade gracefully by servicing the connection
      // locally instead of abandoning the application.
      stats_.offload_fallbacks.add(1);
      log::info("runtime: offload peer unreachable, serving connection locally");
    }
  }

  // Local servicing: create the context -- or, in CUDA 4 mode, join the
  // application's shared context ("all threads belonging to the same
  // application are mapped onto the same CUDA context", section 4.8).
  std::shared_ptr<Context> ctx;
  const u64 app_id = hello->app_id;
  const bool shared = config_.cuda4_semantics && app_id != 0;
  bool fresh = true;
  if (shared) {
    std::unique_lock lk(mu_);
    const auto it = app_contexts_.find(app_id);
    if (it != app_contexts_.end()) {
      ctx = it->second;
      ctx->connection_refs.fetch_add(1, std::memory_order_acq_rel);
      // The shared context speaks the intersection of all its connections.
      ctx->caps.fetch_and(caps, std::memory_order_acq_rel);
      fresh = false;
    } else {
      const ContextId id{next_context_.fetch_add(1, std::memory_order_relaxed)};
      ctx = std::make_shared<Context>(id, rt_->machine().domain());
      contexts_.emplace(id, ctx);
      app_contexts_.emplace(app_id, ctx);
    }
  } else {
    const ContextId id{next_context_.fetch_add(1, std::memory_order_relaxed)};
    ctx = std::make_shared<Context>(id, rt_->machine().domain());
    contexts_.emplace(id, ctx);
  }
  if (fresh) {
    if (obs::TraceRecorder* tr = obs::tracer()) {
      tr->set_thread_name(obs::kRuntimePid, ctx->id.value,
                          "ctx " + std::to_string(ctx->id.value));
    }
    obs::emit_instant("connect", "conn", obs::kRuntimePid, ctx->id.value, ctx->id.value);
    mm_->add_context(ctx->id);
    ctx->arrival = rt_->machine().domain().now();
    ctx->job_cost_hint_seconds = hello->job_cost_hint_seconds;
    ctx->deadline_seconds = hello->deadline_seconds;
    ctx->app_id = app_id;
    // Remember the trace identity: a later migration of this context
    // re-propagates it to the target so the job's timeline stays one trace.
    if (trace.valid()) {
      ctx->trace_id = trace.trace_id;
      ctx->parent_span = trace.parent_span;
    }
    ctx->caps.store(caps, std::memory_order_release);
    ctx->state.store(ContextState::Detached, std::memory_order_release);
    // Shared contexts have several channels; the idle probe used by
    // inter-application swap only applies to exclusive contexts.
    if (!shared) ctx->channel.store(&channel, std::memory_order_release);
  }
  {
    transport::HelloReply hr;
    hr.context_id = ctx->id.value;
    hr.caps = ctx->caps.load(std::memory_order_acquire);
    channel.send(transport::make_reply(hello_msg->connection, Status::Ok,
                                       transport::encode_hello_reply(hr)));
  }

  const bool global = config_.dispatch_mode == DispatchMode::GlobalLock;
  const auto locker = [this](ContextLock& lk) { timed_lock(lk); };
  while (auto msg = channel.receive()) {
    if (msg->op == Opcode::Goodbye) {
      // A migrated context's teardown must reach the target too, or its
      // replica would linger there forever.
      if (ctx->migrated.load(std::memory_order_seq_cst)) {
        (void)forward_migrated(*ctx, channel, *msg);
      }
      channel.send(transport::make_reply(msg->connection, Status::Ok));
      break;
    }
    if (msg->op == Opcode::QueryLoad) {
      // Handled outside handle(): a subscription (interval > 0) takes over
      // the connection -- the daemon streams LoadReport frames on it until
      // it closes, and nothing else is spoken.
      if ((ctx->caps.load(std::memory_order_acquire) & protocol::caps::kQueryLoad) == 0) {
        channel.send(transport::make_reply(msg->connection, Status::ErrorNotSupported));
        continue;
      }
      const auto interval_ns = transport::decode_query_load(msg->payload);
      if (!interval_ns) {
        channel.send(transport::make_reply(msg->connection, interval_ns.status()));
        continue;
      }
      channel.send(transport::make_reply(msg->connection, Status::Ok,
                                         transport::encode_load(load_snapshot())));
      if (interval_ns.value() > 0) {
        heartbeat_loop(channel, msg->connection, vt::Duration(interval_ns.value()));
        break;
      }
      continue;
    }
    // Quiescence handshake with migrate_context: publish "a call is in
    // flight" before reading `migrated` (both seq_cst). The committer does
    // the mirror image -- stores `migrated`, then requires the count to be
    // zero -- so a racing call either sees the flag (and forwards to the
    // target) or is counted (and the committer rolls back and retries).
    ctx->calls_in_flight.fetch_add(1, std::memory_order_seq_cst);
    transport::Message out;
    if (ctx->migrated.load(std::memory_order_seq_cst)) {
      out = forward_migrated(*ctx, channel, *msg);
    } else if (global) {
      // Legacy discipline: one daemon-wide lock across the entire call,
      // including queueing for a vGPU and the kernel itself.
      DispatchGuard g(*global_dispatch_, locker);
      out = handle(*ctx, channel, *msg);
    } else {
      out = handle(*ctx, channel, *msg);
    }
    if (ctx->calls_in_flight.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      // Wake a quiescing migrator at this exact instant (see migrate_context:
      // its rollback path waits for the blocking call to retire).
      std::lock_guard<std::mutex> quiesce_lk(ctx->quiesce_mu);
      ctx->quiesce_cv.notify_all();
    }
    channel.send(std::move(out));
  }

  // Teardown: the last connection of the context releases its binding and
  // frees its memory (a shared CUDA 4 context outlives individual threads).
  if (ctx->connection_refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    scheduler_->release(*ctx);
    {
      std::scoped_lock ctx_lock(ctx->lock);
      ctx->channel.store(nullptr, std::memory_order_release);
      // A migrated context's memory left with the commit; remove_context
      // tolerates the second call. The forwarding channel closes here --
      // the target sees the disconnect and tears the replica down.
      if (ctx->fwd != nullptr) {
        ctx->fwd->close();
        ctx->fwd.reset();
      }
      mm_->remove_context(ctx->id);
    }
    ctx->state.store(ContextState::Done, std::memory_order_release);
    obs::emit_instant("disconnect", "conn", obs::kRuntimePid, ctx->id.value, ctx->id.value);
    contexts_.take(ctx->id);
    if (shared) {
      std::unique_lock lk(mu_);
      app_contexts_.erase(app_id);
    }
  }
}

void Runtime::offload_proxy_loop(transport::MessageChannel& client,
                                 transport::MessageChannel& peer) {
  // Strict request/reply protocol: relay one message at a time.
  while (auto msg = client.receive()) {
    const bool was_goodbye = msg->op == Opcode::Goodbye;
    obs::SpanScope sp("offload-hop", "offload", obs::kRuntimePid,
                      obs::kOffloadTidBase + msg->connection.value, 0,
                      msg->payload.size());
    if (!peer.send(std::move(*msg))) break;
    auto reply = peer.receive();
    if (!reply.has_value()) break;
    client.send(std::move(*reply));
    if (was_goodbye) break;
  }
}

Message Runtime::forward_migrated(Context& ctx, transport::MessageChannel& channel,
                                  const Message& msg) {
  const auto locker = [this](ContextLock& lk) { timed_lock(lk); };
  {
    DispatchGuard ctx_lock(ctx.lock, locker);
    if (ctx.migrated.load(std::memory_order_seq_cst) && ctx.fwd != nullptr) {
      obs::SpanScope hop("migrate-hop", "migrate", obs::kRuntimePid,
                        obs::kOffloadTidBase + ctx.id.value, ctx.id.value,
                        msg.payload.size());
      Message copy = msg;
      if (!ctx.fwd->send(std::move(copy))) {
        return transport::make_reply(msg.connection, Status::ErrorConnectionClosed);
      }
      auto reply = ctx.fwd->receive();
      if (!reply.has_value()) {
        return transport::make_reply(msg.connection, Status::ErrorConnectionClosed);
      }
      reply->connection = msg.connection;
      return std::move(*reply);
    }
  }
  // The migration rolled back between the caller's flag check and the lock
  // acquisition: serve locally. handle() takes ctx.lock itself for memory
  // ops, so it must run with the lock released.
  if (config_.dispatch_mode == DispatchMode::GlobalLock) {
    DispatchGuard g(*global_dispatch_, locker);
    return handle(ctx, channel, msg);
  }
  return handle(ctx, channel, msg);
}

Status Runtime::apply_migrate_chunk(Context& ctx, const Message& msg) {
  auto chunk = transport::decode_migrate_chunk(msg.payload);
  if (!chunk) return chunk.status();
  return mm_->apply_migration_delta(ctx.id, chunk->image);
}

Status Runtime::apply_migrate_resume(Context& ctx, const Message& msg) {
  auto resume = transport::decode_migrate_resume(msg.payload);
  if (!resume) return resume.status();
  if (!resume->delta.empty()) {
    const Status s = mm_->apply_migration_delta(ctx.id, resume->delta);
    if (!ok(s)) return s;
  }
  // Execution state: registered symbols and module handles.
  for (const transport::MigrateFunction& fn : resume->functions) {
    ctx.functions[fn.handle] = fn.name;
  }
  for (const u64 module : resume->modules) ctx.modules.insert(module);
  ctx.next_module = std::max(ctx.next_module, resume->next_module);
  ctx.pinned = ctx.pinned || resume->pinned;
  ctx.gpu_time_used_seconds += resume->gpu_time_used_seconds;
  stats_.migrations_in.add(1);
  obs::emit_instant("migrate-resume", "migrate", obs::kRuntimePid, ctx.id.value,
                    ctx.id.value);
  log::info("runtime: resumed migrated ctx %llu (%zu entries of delta)",
            static_cast<unsigned long long>(ctx.id.value), resume->delta.size());
  return Status::Ok;
}

StatusOr<MigrationReport> Runtime::migrate_context(
    ContextId id, const std::function<std::unique_ptr<transport::MessageChannel>()>& factory,
    MigrationOptions options) {
  vt::Domain& dom = rt_->machine().domain();
  // Callable from unattached threads (tests, tools): channel costs and the
  // quiesce backoff sleep in virtual time, which must be accounted.
  std::optional<vt::AttachGuard> attach;
  if (vt::Domain::current() == nullptr) attach.emplace(dom);

  const auto refuse = [&](Status s) -> StatusOr<MigrationReport> {
    stats_.migrations_refused.add(1);
    return s;
  };

  std::shared_ptr<Context> ctx = find_context(id);
  if (ctx == nullptr) return Status::ErrorInvalidValue;
  // Pinned contexts are excluded from dynamic scheduling (in-kernel malloc:
  // device state the swap image cannot capture); shared CUDA-4 contexts
  // have several connections to quiesce at once -- both stay put.
  if (ctx->pinned) return refuse(Status::ErrorNotSupported);
  if (ctx->connection_refs.load(std::memory_order_acquire) > 1) {
    return refuse(Status::ErrorNotSupported);
  }
  if (ctx->migrated.load(std::memory_order_seq_cst)) {
    return refuse(Status::ErrorNotSupported);
  }

  // Join the job's causal trace: the migration session span parents both
  // the local shipping spans and (via the forwarded Hello) the target's.
  obs::TraceContext trace;
  if (ctx->trace_id != 0) trace = obs::TraceContext{ctx->trace_id, ctx->parent_span};
  obs::ScopedTraceContext scoped_trace(trace);
  obs::SpanScope session("migrate-session", "migrate", obs::kRuntimePid,
                         obs::kOffloadTidBase + id.value, id.value);

  std::unique_ptr<transport::MessageChannel> peer = factory ? factory() : nullptr;
  if (peer == nullptr) return refuse(Status::ErrorNotSupported);

  // Handshake with the target daemon. `forwarded` stops it from shedding or
  // re-migrating the incoming job (no migration ping-pong).
  const ConnectionId conn{id.value};
  {
    transport::HelloPayload hello;
    hello.version = protocol::kProtocolVersion;
    hello.caps = protocol::caps::kAll & config_.caps_mask;
    hello.job_cost_hint_seconds = ctx->job_cost_hint_seconds;
    hello.forwarded = true;
    hello.deadline_seconds = ctx->deadline_seconds;
    hello.trace_id = ctx->trace_id;
    hello.parent_span = session.span_id() != 0 ? session.span_id() : ctx->parent_span;
    transport::Message m;
    m.op = Opcode::Hello;
    m.connection = conn;
    m.payload = transport::encode_hello(hello);
    if (!peer->send(std::move(m))) return refuse(Status::ErrorConnectionClosed);
  }
  u32 peer_caps = 0;
  {
    auto reply = peer->receive();
    if (!reply.has_value() || !ok(transport::reply_status(*reply))) {
      return refuse(Status::ErrorConnectionClosed);
    }
    auto hr = transport::decode_hello_reply(transport::reply_payload(*reply));
    if (!hr.has_value()) return refuse(Status::ErrorProtocol);
    peer_caps = hr->caps;
  }
  if ((peer_caps & protocol::caps::kMigrate) == 0) {
    // v3 peer (or a daemon masking the bit): refuse gracefully. The job
    // keeps running here; the target reaps the empty context on Goodbye.
    transport::Message bye;
    bye.op = Opcode::Goodbye;
    bye.connection = conn;
    if (peer->send(std::move(bye))) (void)peer->receive();
    peer->close();
    log::info("runtime: migration refused, peer lacks kMigrate (ctx %llu)",
              static_cast<unsigned long long>(id.value));
    return refuse(Status::ErrorNotSupported);
  }

  MigrationReport report;
  const auto locker = [this](ContextLock& lk) { timed_lock(lk); };
  const auto ship = [&](u32 round, std::vector<u8> bytes) -> Status {
    transport::MigrateChunkPayload chunk;
    chunk.round = round;
    chunk.image = std::move(bytes);
    obs::SpanScope sp(round == 0 ? "migrate-image" : "migrate-precopy", "migrate",
                      obs::kRuntimePid, obs::kOffloadTidBase + id.value, id.value,
                      chunk.image.size());
    transport::Message m;
    m.op = Opcode::MigrateChunk;
    m.connection = conn;
    m.payload = transport::encode_migrate_chunk(chunk);
    if (!peer->send(std::move(m))) return Status::ErrorConnectionClosed;
    auto reply = peer->receive();
    if (!reply.has_value()) return Status::ErrorConnectionClosed;
    return transport::reply_status(*reply);
  };
  const auto abort_migration = [&](Status s) -> StatusOr<MigrationReport> {
    {
      DispatchGuard ctx_lock(ctx->lock, locker);
      mm_->end_migration(id);
    }
    peer->close();
    log::info("runtime: migration of ctx %llu aborted (%s), job continues locally",
              static_cast<unsigned long long>(id.value), to_string(s));
    return refuse(s);
  };

  // Round 0: arm dirty tracking and export the sparse image under one lock
  // hold (no mutation falls between them), then ship it while the job keeps
  // running. export_image syncs device-dirty ranges to swap first, so the
  // image is complete as of this instant; everything written afterwards
  // lands in the armed epoch.
  {
    StatusOr<std::vector<u8>> image = [&]() -> StatusOr<std::vector<u8>> {
      DispatchGuard ctx_lock(ctx->lock, locker);
      if (const Status s = mm_->begin_migration(id); !ok(s)) return s;
      auto img = mm_->export_image(id);
      if (!img) mm_->end_migration(id);
      return img;
    }();
    if (!image) {
      peer->close();
      return refuse(image.status());
    }
    report.image_bytes = image.value().size();
    report.precopy_bytes = image.value().size();
    if (const Status s = ship(0, std::move(image).value()); !ok(s)) {
      return abort_migration(s);
    }
  }

  // Pre-copy rounds: drain and ship the dirty deltas while the job runs;
  // converged once a round comes in under the threshold. Every collected
  // delta must ship (collect clears the epoch), so a transport failure
  // after a successful collect aborts the whole attempt.
  for (int round = 1; round <= options.max_precopy_rounds; ++round) {
    StatusOr<std::vector<u8>> delta = [&] {
      DispatchGuard ctx_lock(ctx->lock, locker);
      return mm_->collect_migration_delta(id);
    }();
    if (!delta) return abort_migration(delta.status());
    report.precopy_rounds = round;
    report.precopy_bytes += delta.value().size();
    const u64 delta_size = delta.value().size();
    log::debug("runtime: migration ctx %llu pre-copy round %d, %llu bytes",
               static_cast<unsigned long long>(id.value), round,
               static_cast<unsigned long long>(delta_size));
    if (const Status s = ship(static_cast<u32>(round), std::move(delta).value()); !ok(s)) {
      return abort_migration(s);
    }
    if (delta_size <= options.stop_copy_threshold_bytes) break;
  }

  // Stop-and-copy. Flip the forwarding flag, then require the connection
  // idle (see the connection loop's mirror image); a call that slipped in
  // forces a rollback. The retry does not poll on a fixed pace -- it waits
  // on the context's quiesce CV, so it reruns at the exact virtual instant
  // the blocking call retires (its completion instant is part of the
  // simulation schedule, which keeps the quiesce outcome replay-stable;
  // a paced poll samples at instants that can tie with unrelated events
  // and turn the flag flip into a real race). From here the job is frozen:
  // its next request blocks on the context lock we hold.
  int attempts = 0;
  for (;;) {
    timed_lock(ctx->lock);
    ctx->migrated.store(true, std::memory_order_seq_cst);
    if (ctx->calls_in_flight.load(std::memory_order_seq_cst) == 0) break;
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    log::debug("runtime: migration ctx %llu quiesce rollback (attempt %d)",
               static_cast<unsigned long long>(id.value), attempts + 1);
    if (++attempts >= options.max_quiesce_attempts) {
      return abort_migration(Status::ErrorNotSupported);
    }
    {
      std::unique_lock<std::mutex> quiesce_lk(ctx->quiesce_mu);
      ctx->quiesce_cv.wait(quiesce_lk, [&] {
        return ctx->calls_in_flight.load(std::memory_order_seq_cst) == 0;
      });
    }
  }
  // Holding ctx->lock with migrated set and no call in flight. A rollback
  // from here on must clear the flag before unlocking.
  vt::StopWatch stop_watch(dom);
  report.naive_bytes = mm_->naive_image_bytes(id);
  StatusOr<std::vector<u8>> final_delta = mm_->collect_migration_delta(id);
  if (!final_delta) {
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    return abort_migration(final_delta.status());
  }

  transport::MigrateResumePayload resume;
  resume.delta = std::move(final_delta).value();
  for (const auto& [handle, name] : ctx->functions) {
    transport::MigrateFunction fn;
    fn.handle = handle;
    fn.name = name;
    resume.functions.push_back(std::move(fn));
  }
  resume.modules.assign(ctx->modules.begin(), ctx->modules.end());
  resume.next_module = ctx->next_module;
  resume.pinned = ctx->pinned;
  resume.gpu_time_used_seconds = ctx->gpu_time_used_seconds;
  transport::Message m;
  m.op = Opcode::MigrateResume;
  m.connection = conn;
  m.payload = transport::encode_migrate_resume(resume);
  report.stop_copy_bytes = m.payload.size();
  if (!peer->send(std::move(m))) {
    // The resume frame never reached the wire: rolling back is safe.
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    return abort_migration(Status::ErrorConnectionClosed);
  }
  auto ack = peer->receive();
  if (ack.has_value() && !ok(transport::reply_status(*ack))) {
    // Explicit refusal: the target did not resume the job (its half-built
    // replica dies with the channel). Roll back and keep running here.
    const Status s = transport::reply_status(*ack);
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    return abort_migration(s);
  }
  // Committed -- including on a lost ack: the resume frame may have been
  // applied, and running the job here as well would duplicate it. The
  // never-both invariant tolerates a lost job, never a duplicated one.
  mm_->end_migration(id);
  scheduler_->release(*ctx);
  mm_->remove_context(id);
  ctx->fwd = std::move(peer);
  report.stop_copy_seconds = stop_watch.elapsed_seconds();
  ctx->lock.unlock();

  stats_.migrations_out.add(1);
  const u64 total = report.precopy_bytes + report.stop_copy_bytes;
  migration_bytes_counter().add(total);
  migration_precopy_bytes_counter().add(report.precopy_bytes);
  migration_stop_copy_bytes_counter().add(report.stop_copy_bytes);
  migration_stop_copy_ms_hist().observe(report.stop_copy_seconds * 1e3);
  session.set_bytes(total);
  obs::emit_instant("migrate-commit", "migrate", obs::kRuntimePid, id.value, id.value);
  log::info("runtime: migrated ctx %llu (%llu bytes shipped, naive image %llu, "
            "stop-and-copy %llu bytes)",
            static_cast<unsigned long long>(id.value),
            static_cast<unsigned long long>(total),
            static_cast<unsigned long long>(report.naive_bytes),
            static_cast<unsigned long long>(report.stop_copy_bytes));
  return report;
}

Message Runtime::handle(Context& ctx, transport::MessageChannel& channel, const Message& msg) {
  WireReader r(msg.payload);
  const ConnectionId conn = msg.connection;
  auto reply = [&](Status s, std::vector<u8> payload = {}) {
    if (!ok(s)) ctx.last_error = s;
    return transport::make_reply(conn, s, std::move(payload));
  };
  const auto locker = [this](ContextLock& lk) { timed_lock(lk); };
  const u32 caps = ctx.caps.load(std::memory_order_acquire);

  switch (msg.op) {
    // ---- Registration: issued eagerly, before any binding exists. -----------
    case Opcode::RegisterFatBinary: {
      const u64 module = ctx.next_module++;
      ctx.modules.insert(module);
      ctx.last_call = "registerFatBinary";
      WireWriter w;
      w.put<u64>(module);
      return reply(Status::Ok, w.take());
    }
    case Opcode::UnregisterFatBinary: {
      const u64 module = r.get<u64>();
      return reply(ctx.modules.erase(module) != 0 ? Status::Ok : Status::ErrorInvalidValue);
    }
    case Opcode::RegisterFunction: {
      const u64 module = r.get<u64>();
      const u64 handle = r.get<u64>();
      const std::string name = r.get_string();
      if (!r.ok() || ctx.modules.count(module) == 0) return reply(Status::ErrorInvalidValue);
      ctx.functions[handle] = name;
      ctx.last_call = "registerFunction:" + name;
      return reply(Status::Ok);
    }
    case Opcode::RegisterVar:
    case Opcode::RegisterTexture:
      return reply(Status::Ok);

    // ---- Device management: overridden to hide the hardware (sec. 4.3). -----
    case Opcode::GetDeviceCount: {
      WireWriter w;
      w.put<i32>(scheduler_->vgpu_count());  // virtual, not physical, GPUs
      return reply(Status::Ok, w.take());
    }
    case Opcode::SetDevice:
      // Ignored by design: the runtime owns the application-to-GPU mapping.
      return reply(Status::Ok);
    case Opcode::GetDevice: {
      WireWriter w;
      w.put<i32>(0);
      return reply(Status::Ok, w.take());
    }

    // ---- Memory: virtual addresses only, via the memory manager. ------------
    case Opcode::Malloc: {
      const u64 size = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "malloc";
      auto vptr = mm_->on_malloc(ctx.id, size);
      if (!vptr) return reply(vptr.status());
      WireWriter w;
      w.put<u64>(vptr.value());
      return reply(Status::Ok, w.take());
    }
    case Opcode::Free: {
      const u64 ptr = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "free";
      return reply(mm_->on_free(ctx.id, ptr));
    }
    case Opcode::MemcpyH2D: {
      const u64 dst = r.get<u64>();
      const auto data = r.get_span();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "memcpyH2D";
      std::optional<ClientId> bound;
      if (auto binding = scheduler_->binding_of(ctx.id)) bound = binding->client;
      return reply(mm_->on_copy_h2d(ctx.id, dst,
                                    std::as_bytes(std::span(data.data(), data.size())), bound));
    }
    case Opcode::MemcpyD2H: {
      const u64 src = r.get<u64>();
      const u64 size = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      std::vector<u8> out(size);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "memcpyD2H";
      const Status s = mm_->on_copy_d2h(
          ctx.id, std::as_writable_bytes(std::span(out.data(), out.size())), src, size);
      if (!ok(s)) return reply(s);
      WireWriter w;
      w.put_bytes(out);
      return reply(Status::Ok, w.take());
    }
    case Opcode::MemcpyD2D: {
      const u64 dst = r.get<u64>();
      const u64 src = r.get<u64>();
      const u64 size = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "memcpyD2D";
      return reply(mm_->on_copy_d2d(ctx.id, dst, src, size));
    }
    case Opcode::RegisterNested: {
      if ((caps & protocol::caps::kRegisterNested) == 0) {
        return reply(Status::ErrorNotSupported);
      }
      const u64 parent = r.get<u64>();
      const u64 count = r.get<u64>();
      std::vector<NestedRef> refs;
      refs.reserve(count);
      for (u64 i = 0; i < count && r.ok(); ++i) {
        NestedRef ref;
        ref.offset = r.get<u64>();
        ref.target = r.get<u64>();
        refs.push_back(ref);
      }
      if (!r.ok()) return reply(Status::ErrorProtocol);
      DispatchGuard ctx_lock(ctx.lock, locker);
      return reply(mm_->register_nested(ctx.id, parent, refs));
    }
    case Opcode::Checkpoint: {
      if ((caps & protocol::caps::kCheckpoint) == 0) return reply(Status::ErrorNotSupported);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "checkpoint";
      return reply(mm_->checkpoint(ctx.id));
    }

    // ---- Execution -----------------------------------------------------------
    case Opcode::Launch: {
      const std::string name = r.get_string();
      const auto config = r.get<sim::LaunchConfig>();
      const u64 argc = r.get<u64>();
      std::vector<sim::KernelArg> args;
      args.reserve(argc);
      for (u64 i = 0; i < argc && r.ok(); ++i) {
        sim::KernelArg arg;
        arg.kind = static_cast<sim::KernelArg::Kind>(r.get<u8>());
        arg.bits = r.get<u64>();
        args.push_back(arg);
      }
      if (!r.ok()) return reply(Status::ErrorProtocol);
      ctx.last_call = "launch:" + name;
      return reply(do_launch(ctx, channel, name, config, args));
    }
    case Opcode::Synchronize: {
      ctx.last_call = "synchronize";
      if (auto binding = scheduler_->binding_of(ctx.id)) {
        return reply(rt_->device_synchronize(binding->client));
      }
      return reply(Status::Ok);
    }
    case Opcode::GetLastError: {
      const Status s = ctx.last_error;
      ctx.last_error = Status::Ok;
      return transport::make_reply(conn, s);
    }

    // ---- Live migration (target side; protocol v4) ---------------------------
    case Opcode::MigrateChunk: {
      if ((caps & protocol::caps::kMigrate) == 0) return reply(Status::ErrorNotSupported);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "migrateChunk";
      return reply(apply_migrate_chunk(ctx, msg));
    }
    case Opcode::MigrateResume: {
      if ((caps & protocol::caps::kMigrate) == 0) return reply(Status::ErrorNotSupported);
      DispatchGuard ctx_lock(ctx.lock, locker);
      ctx.last_call = "migrateResume";
      return reply(apply_migrate_resume(ctx, msg));
    }

    // ---- Observability -------------------------------------------------------
    case Opcode::QueryStats: {
      // Optional op: only peers that negotiated the capability may ask.
      if ((caps & protocol::caps::kQueryStats) == 0) return reply(Status::ErrorNotSupported);
      publish_metrics();
      WireWriter w;
      obs::metrics().snapshot().encode(w);
      return reply(Status::Ok, w.take());
    }
    default:
      return reply(Status::ErrorProtocol);
  }
}

bool Runtime::evict_one_victim(GpuId gpu, u64 needed, ContextId requester) {
  // Inter-application swap (section 4.5): ask one co-resident application
  // holding enough memory to vacate the device. Only applications in a CPU
  // phase (unbound) accept; a busy or locked victim refuses, and if freeing
  // the memory would take multiple victims we do not swap at all. Under the
  // paged engine the victim vacates pages, not the device.
  for (ContextId vid : mm_->victim_candidates(gpu, needed, requester)) {
    auto victim = find_context(vid);
    if (victim == nullptr || victim->pinned) continue;
    if (!victim->lock.try_lock()) continue;  // mid-call: refuses; never block
    // Under the victim's lock its servicing thread cannot start a new call,
    // so "bound but idle" is stable. A victim accepts when it is not in the
    // middle of a GPU phase: either unbound, or bound with no pending
    // requests on its connection (a CPU phase).
    bool accepts = !scheduler_->context_bound(vid);
    if (!accepts) {
      transport::MessageChannel* victim_channel =
          victim->channel.load(std::memory_order_acquire);
      accepts = victim_channel != nullptr && !victim_channel->pending();
    }
    if (accepts && config_.paging) {
      // Paged engine: the victim gives up only enough of its coldest pages
      // for the request, keeps its spans and hot pages, and stays bound.
      const u64 freed = mm_->evict_pages(vid, gpu, needed);
      victim->lock.unlock();
      if (freed == 0) continue;
      log::debug("inter-app page eviction: %llu bytes of ctx %llu on gpu %llu",
                 static_cast<unsigned long long>(freed),
                 static_cast<unsigned long long>(vid.value),
                 static_cast<unsigned long long>(gpu.value));
      return true;
    }
    if (accepts) {
      (void)mm_->swap_context(vid);
      mm_->count_inter_app_swap();
      scheduler_->release(*victim);  // "temporarily unbound from the GPU"
      victim->lock.unlock();
      log::debug("inter-app swap: evicted ctx %llu from gpu %llu",
                 static_cast<unsigned long long>(vid.value),
                 static_cast<unsigned long long>(gpu.value));
      return true;
    }
    victim->lock.unlock();
  }
  return false;
}

bool Runtime::preempt_context(ContextId id) {
  // Mirrors the evict_one_victim discipline: never block on a busy victim
  // (its servicing thread yields at the kernel boundary instead, via
  // Scheduler::quantum_expired), and do all memory work under the
  // ContextLock so the swap cannot race a call.
  auto victim = find_context(id);
  if (victim == nullptr || victim->pinned) return false;
  if (!victim->lock.try_lock()) return false;  // mid-call: refuses; never block
  if (!scheduler_->context_bound(id)) {
    victim->lock.unlock();  // released/preempted while we were acquiring
    return true;
  }
  {
    obs::SpanScope span("preempt", "sched", obs::kRuntimePid, id.value, id.value);
    (void)mm_->preempt_swap_out(id);
  }
  (void)scheduler_->preempt(*victim);
  victim->lock.unlock();
  log::debug("preempt: quantum expired, ctx %llu swapped out",
             static_cast<unsigned long long>(id.value));
  return true;
}

StatusOr<int> Runtime::preempt_now() { return scheduler_->force_preempt_sweep(); }

Status Runtime::do_launch(Context& ctx, transport::MessageChannel& channel,
                          const std::string& name, const sim::LaunchConfig& config,
                          const std::vector<sim::KernelArg>& args) {
  // The dispatcher validated registrations long before binding; a launch of
  // an unregistered symbol never reaches the device.
  const bool registered =
      std::any_of(ctx.functions.begin(), ctx.functions.end(),
                  [&](const auto& kv) { return kv.second == name; });
  if (!registered) return Status::ErrorUnknownSymbol;
  const auto def = rt_->machine().kernels().find(name);
  if (def == nullptr) return Status::ErrorUnknownSymbol;
  if (def->uses_device_malloc && !ctx.pinned) {
    // In-kernel allocation detected: the paper excludes such applications
    // from sharing and dynamic scheduling -- pin to a dedicated vGPU.
    ctx.pinned = true;
    log::info("ctx %llu uses in-kernel malloc: pinned to its vGPU",
              static_cast<unsigned long long>(ctx.id.value));
  }

  vt::Domain& dom = rt_->machine().domain();
  stats_.launches.add(1);
  // End-to-end launch latency: queueing for a vGPU, materialization and
  // swaps, the kernel itself, any recovery replays.
  obs::SpanScope launch_span(name, "launch", obs::kRuntimePid, ctx.id.value, ctx.id.value);
  vt::StopWatch launch_watch(dom);
  const auto locker = [this](ContextLock& lk) { timed_lock(lk); };

  int recovery_attempts = 0;
  // Back-off attempts in a row that began with none of this context's
  // memory on the device and found no other context's memory there, nor a
  // hole the request fits: only context slabs, which never move. One such
  // attempt could still have seen a holder that has just left; two in a
  // row mean waiting cannot help.
  int hopeless_backoffs = 0;
  for (;;) {
    // Delayed/dynamic binding: a vGPU is held only for the duration of the
    // GPU phase. acquire() is idempotent when already bound.
    auto acquired = scheduler_->acquire(ctx);
    if (!acquired) return acquired.status();
    const Scheduler::Binding binding = acquired.value();
    if (binding.recovered_from_failure) {
      stats_.recoveries.add(1);
      obs::emit_instant("recovery-replay", "recover", obs::kRuntimePid, ctx.id.value,
                        ctx.id.value);
    }

    enum class Next { Done, RebindAfterFailure, BackoffRetry };
    Next next = Next::Done;
    Status result = Status::Ok;
    {
      DispatchGuard ctx_lock(ctx.lock, locker);
      const bool started_empty = mm_->resident_bytes(ctx.id, binding.gpu) == 0;
      auto prep = mm_->prepare_launch(ctx.id, binding.gpu, binding.client, args);
      switch (prep.outcome) {
        case MemoryManager::PrepareOutcome::WouldBlock: {
          if (evict_one_victim(binding.gpu, prep.needed_bytes, ctx.id)) {
            next = Next::RebindAfterFailure;  // stay bound; loop retries prepare
            result = Status::Ok;
            break;
          }
          const sim::SimGpu* dev = rt_->machine().gpu(binding.gpu);
          const u64 largest_hole = dev != nullptr ? dev->largest_free_block() : 0;
          log::debug("swap backoff: ctx %llu needs %llu bytes on gpu %llu "
                     "(free %llu, largest hole %llu)",
                     static_cast<unsigned long long>(ctx.id.value),
                     static_cast<unsigned long long>(prep.needed_bytes),
                     static_cast<unsigned long long>(binding.gpu.value),
                     static_cast<unsigned long long>(dev ? dev->free_bytes() : 0),
                     static_cast<unsigned long long>(largest_hole));
          // A request that fits a hole failed transiently (an allocation
          // fault pulse), not for want of space: it never counts.
          const bool others_absent =
              mm_->resident_bytes_on(binding.gpu) == mm_->resident_bytes(ctx.id, binding.gpu);
          const bool hopeless =
              started_empty && others_absent && prep.needed_bytes > largest_hole;
          hopeless_backoffs = hopeless ? hopeless_backoffs + 1 : 0;
          next = Next::BackoffRetry;
          break;
        }
        case MemoryManager::PrepareOutcome::Error: {
          if (prep.error == Status::ErrorDeviceUnavailable) {
            mm_->on_device_lost(ctx.id, binding.gpu);
            next = Next::RebindAfterFailure;
            ++recovery_attempts;
          } else {
            return prep.error;
          }
          break;
        }
        case MemoryManager::PrepareOutcome::Ready: {
          vt::StopWatch watch(dom);
          result = rt_->launch_by_name(binding.client, name, config, prep.translated);
          const double elapsed = watch.elapsed_seconds();
          // GPU died under us: roll residency back to the swap copies and
          // replay on a surviving device ("resilient to GPU failures").
          const auto replay_elsewhere = [&](const char* why) {
            mm_->on_device_lost(ctx.id, binding.gpu);
            next = Next::RebindAfterFailure;
            ++recovery_attempts;
            obs::emit_instant(why, "recover", obs::kRuntimePid, ctx.id.value, ctx.id.value);
                  stats_.recoveries.add(1);
          };
          if (result == Status::ErrorDeviceUnavailable) {
            replay_elsewhere("kernel-lost");
            break;
          }
          ctx.gpu_time_used_seconds += elapsed;
          if (config_.auto_checkpoint_after_kernel_seconds > 0.0 &&
              elapsed >= config_.auto_checkpoint_after_kernel_seconds) {
            // Automatic checkpoint after long kernels bounds the restart
            // penalty of a later failure (section 4.6).
            if (mm_->checkpoint(ctx.id) == Status::ErrorDeviceUnavailable) {
              // The device died before the kernel's output reached swap,
              // which is back at the previous checkpoint. The application
              // has not seen Ok yet: replay the kernel elsewhere.
              replay_elsewhere("checkpoint-lost");
              break;
            }
            stats_.auto_checkpoints.add(1);
          }
          next = Next::Done;
          break;
        }
      }
    }

    switch (next) {
      case Next::Done: {
        // A vGPU is held for the application's lifetime (Figure 7: with one
        // vGPU, execution is strictly serialized even across CPU phases).
        // The only voluntary release is migration: the application is in a
        // CPU phase and a strictly faster device sits idle (Figure 9).
        // Involuntary unbinding happens through inter-application swap --
        // or, under a preemptive policy, through quantum expiry: the pump
        // cannot preempt a context mid-call, so a holder whose quantum ran
        // out during the kernel yields here, at the kernel boundary.
        if (!ctx.pinned && scheduler_->quantum_expired(ctx.id)) {
          {
            DispatchGuard ctx_lock(ctx.lock, locker);
            obs::SpanScope preempt_span("preempt", "sched", obs::kRuntimePid, ctx.id.value,
                                        ctx.id.value);
            (void)mm_->preempt_swap_out(ctx.id);
          }
          (void)scheduler_->preempt(ctx);
        } else if (!ctx.pinned && !channel.pending() &&
                   scheduler_->faster_gpu_idle(binding.gpu)) {
          scheduler_->release(ctx);
        }
        launch_seconds_hist().observe(launch_watch.elapsed_seconds());
        return result;
      }
      case Next::RebindAfterFailure: {
        if (recovery_attempts > config_.max_recovery_attempts) {
          ctx.state.store(ContextState::Failed, std::memory_order_release);
          return Status::ErrorDeviceUnavailable;
        }
        // Either an eviction freed memory (stay bound and retry), or the
        // device died (binding is stale; acquire() re-binds elsewhere).
        hopeless_backoffs = 0;
        continue;
      }
      case Next::BackoffRetry: {
        // Nobody honored the swap request: the calling application unbinds
        // from the virtual GPU and retries later (section 4.5). Releasing
        // its own partial materialization keeps a backing-off job from
        // hogging memory it cannot yet use (and from deadlocking against
        // another partial holder); the retry pace is matched to kernel
        // durations, not a busy spin.
        {
          DispatchGuard ctx_lock(ctx.lock, locker);
          (void)mm_->swap_context(ctx.id);
        }
        scheduler_->release(ctx);
        stats_.swap_retry_backoffs.add(1);
        if (hopeless_backoffs == 2) return Status::ErrorMemoryAllocation;
        dom.sleep_for(vt::from_millis(400));
        continue;
      }
    }
  }
}

}  // namespace gpuvm::core
