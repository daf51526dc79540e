#include "scenarios.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <random>

#include "common/rng.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"
#include "workloads/loadgen.hpp"

namespace perfbench {

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n", what);
  std::exit(2);
}

/// Independent stream per (seed, stream id).
Rng stream_rng(u64 seed, u64 id) { return Rng(seed ^ (id + 1) * 0x9e3779b97f4a7c15ULL); }

/// App indices dealt from a seeded, shuffled deck holding each app once,
/// reshuffled when empty: every app comes up equally often in each run of
/// `apps` draws, so a round's app mix barely moves with the seed while the
/// order does.
class Deck {
 public:
  Deck(Rng& rng, size_t apps) : rng_(&rng), cards_(apps), next_(apps) {
    std::iota(cards_.begin(), cards_.end(), 0);
  }

  int draw() {
    if (next_ == cards_.size()) {
      std::shuffle(cards_.begin(), cards_.end(), *rng_);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  Rng* rng_;
  std::vector<int> cards_;
  size_t next_;
};

// ---- paged-sparse job -------------------------------------------------------
//
// The sparse-access shape of bench_paging's "multi" scenario, made a
// self-checking job: three fully populated 512 KiB buffers, then launches
// that each read one hinted 64 KiB slice (striding one page per revisit, so
// the stride prefetcher can learn it) and write one hinted 64 KiB output
// page. Between launches the host spends a fixed modeled time preparing a
// small patch inside the next slice and uploads it. At the end the job reads
// every buffer back and compares it with its host mirror -- the bytes the
// paged engine moved page by page must come back intact. Jobs come in three
// lengths (launch counts), each its own app with its own solo latency.

constexpr u64 kSparseBufBytes = 512 * 1024;
constexpr u64 kSparsePageBytes = 64 * 1024;
constexpr u64 kSparsePatchBytes = 2 * 1024;
constexpr int kSparseBuffers = 3;
/// Host time per launch. With four tenants it keeps the shared copy engine
/// about 80% busy instead of saturated, so a job's latency reflects paging
/// work rather than an ever-full transfer queue.
constexpr double kSparseHostPhaseSeconds = 80e-3;
constexpr char kSparseKernel[] = "sparse_touch";

void register_sparse_kernel(sim::KernelRegistry& registry) {
  sim::KernelDef def;
  def.name = kSparseKernel;
  // out[i] = in[slice + i] ^ tag over one page: touches only hinted bytes.
  def.body = [](sim::KernelExecContext& kc) {
    const auto in = kc.bytes(0);
    const auto out = kc.bytes(1);
    const u64 slice = static_cast<u64>(kc.scalar_i64(2));
    const auto tag = static_cast<std::byte>(kc.scalar_i64(3));
    if (slice + kSparsePageBytes > in.size() || out.size() < kSparsePageBytes) {
      return Status::ErrorLaunchFailure;
    }
    for (u64 i = 0; i < kSparsePageBytes; ++i) out[i] = in[slice + i] ^ tag;
    return Status::Ok;
  };
  // ~100 us on the test GPU: modeled time stays transfer-dominated.
  def.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{1e7, 0.0};
  };
  registry.add(def);
}

/// Eight random bytes per draw: filling the buffers must cost the host
/// little next to the runtime calls being measured.
void fill_random(Rng& rng, std::span<std::byte> out) {
  size_t i = 0;
  for (; i + sizeof(u64) <= out.size(); i += sizeof(u64)) {
    const u64 word = rng();
    std::memcpy(out.data() + i, &word, sizeof word);
  }
  for (; i < out.size(); ++i) out[i] = static_cast<std::byte>(rng() & 0xff);
}

class SparseJob final : public workloads::Workload {
 public:
  explicit SparseJob(int launches) : launches_(launches) {}

  std::string name() const override { return "SPARSE-" + std::to_string(launches_); }
  std::vector<std::string> kernels() const override { return {kSparseKernel}; }
  int expected_kernel_calls() const override { return launches_; }
  double expected_gpu_seconds() const override { return 0.0; }
  bool long_running() const override { return false; }

  workloads::AppResult run(workloads::AppContext& ctx) const override {
    workloads::AppResult result;
    const auto fail = [&](Status s, const char* what) {
      result.status = s;
      result.detail = what;
      return result;
    };
    core::GpuApi& api = *ctx.api;
    if (const Status s = api.register_kernels(kernels()); !ok(s)) return fail(s, "register");

    Rng rng(ctx.seed);
    constexpr u64 pages = kSparseBufBytes / kSparsePageBytes;
    std::vector<std::vector<std::byte>> mirror(kSparseBuffers,
                                               std::vector<std::byte>(kSparseBufBytes));
    std::vector<VirtualPtr> bufs;
    std::vector<u64> first_page;
    for (auto& host : mirror) {
      fill_random(rng, host);
      auto ptr = api.malloc(kSparseBufBytes);
      if (!ptr) return fail(ptr.status(), "malloc");
      if (const Status s = api.memcpy_h2d(ptr.value(), host); !ok(s)) return fail(s, "h2d");
      bufs.push_back(ptr.value());
      first_page.push_back(rng.below(pages));
    }
    auto out = api.malloc(kSparsePageBytes);
    if (!out) return fail(out.status(), "malloc out");

    std::vector<std::byte> expected_out(kSparsePageBytes);
    std::vector<std::byte> patch(kSparsePatchBytes);
    for (int i = 0; i < launches_; ++i) {
      workloads::cpu_phase(ctx, kSparseHostPhaseSeconds);
      const auto idx = static_cast<size_t>(i % kSparseBuffers);
      const u64 revisit = static_cast<u64>(i / kSparseBuffers);
      const u64 slice = (first_page[idx] + revisit) % pages * kSparsePageBytes;
      const u64 patch_at = slice + rng.below(kSparsePageBytes - kSparsePatchBytes + 1);
      fill_random(rng, patch);
      std::copy(patch.begin(), patch.end(), mirror[idx].begin() + static_cast<long>(patch_at));
      if (const Status s = api.memcpy_h2d(bufs[idx] + patch_at, patch); !ok(s)) {
        return fail(s, "patch");
      }
      const auto tag = static_cast<i64>(rng() & 0xff);
      const Status s = api.launch(
          kSparseKernel, {{64, 1, 1}, {256, 1, 1}},
          {sim::KernelArg::dev(bufs[idx]), sim::KernelArg::dev_out(out.value()),
           sim::KernelArg::i64v(static_cast<i64>(slice)), sim::KernelArg::i64v(tag),
           sim::KernelArg::access_hint(0, slice, kSparsePageBytes),
           sim::KernelArg::access_hint(1, 0, kSparsePageBytes, /*written=*/true)});
      if (!ok(s)) return fail(s, "launch");
      ++result.kernel_launches;
      for (u64 b = 0; b < kSparsePageBytes; ++b) {
        expected_out[b] = mirror[idx][slice + b] ^ static_cast<std::byte>(tag);
      }
    }

    std::vector<std::byte> back(kSparseBufBytes);
    for (size_t b = 0; b < bufs.size(); ++b) {
      if (const Status s = api.memcpy_d2h(back, bufs[b], kSparseBufBytes); !ok(s)) {
        return fail(s, "read back");
      }
      if (back != mirror[b]) {
        result.verified = false;
        result.detail = "input buffer differs from host mirror";
      }
    }
    std::vector<std::byte> out_back(kSparsePageBytes);
    if (const Status s = api.memcpy_d2h(out_back, out.value(), kSparsePageBytes); !ok(s)) {
      return fail(s, "read back out");
    }
    if (out_back != expected_out) {
      result.verified = false;
      result.detail = "output page differs from host mirror";
    }
    for (VirtualPtr p : bufs) {
      if (const Status s = api.free(p); !ok(s)) return fail(s, "free");
    }
    if (const Status s = api.free(out.value()); !ok(s)) return fail(s, "free out");
    return result;
  }

 private:
  int launches_;
};

const std::vector<SparseJob>& sparse_jobs() {
  static const std::vector<SparseJob> jobs = {SparseJob(16), SparseJob(24), SparseJob(32)};
  return jobs;
}

const workloads::Workload& table2(const char* name) {
  const workloads::Workload* w = workloads::find_workload(name);
  if (w == nullptr) die("unknown Table-2 workload");
  return *w;
}

sim::SimParams paper_params(bool bodies) {
  sim::SimParams params;
  params.mem_scale = 1024;
  params.execute_kernel_bodies = bodies;
  return params;
}

// ---- the three workloads ----------------------------------------------------

constexpr int kSwapJobsPerTenant = 40;
// Per tenant: about 0.4 of one tenant's serial capacity, so the backlog stays
// bounded.
constexpr double kCallArrivalsPerSecond = 0.075;
constexpr double kCallHorizonSeconds = 400.0;
// Mean of each job's exponential host preparation time. Without it an
// uncontended job takes exactly its app's solo latency, and the latency
// median landed on one app's solo value in most runs.
constexpr double kCallPrepMeanSeconds = 0.5;
constexpr int kSparseJobsPerTenant = 30;

Scenario swap_churn() {
  Scenario sc;
  sc.name = "swap-churn";
  sc.same_instant_ties = true;
  sc.env.params = paper_params(false);
  sc.env.gpus = {sim::tesla_c2050(sc.env.params)};
  sc.env.config.scheduler.vgpus_per_device = 4;
  sc.apps = {{&table2("MM-L"), 1.0}, {&table2("BS-L"), 0.0}};
  // Closed loop: every tenant alternates MM-L and BS-L back to back; the
  // seed picks which of the two each tenant starts with.
  sc.plan = [](u64 seed, int tenants) {
    Plan plan(static_cast<size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      Rng rng = stream_rng(seed, static_cast<u64>(t));
      int app = static_cast<int>(rng.below(2));
      for (int k = 0; k < kSwapJobsPerTenant; ++k, app ^= 1) {
        plan[static_cast<size_t>(t)].push_back({app, 0.0, rng()});
      }
    }
    return plan;
  };
  return sc;
}

Scenario call_stream() {
  Scenario sc;
  sc.name = "call-stream";
  sc.open_loop = true;
  sc.env.params = paper_params(false);
  sc.env.gpus = {sim::tesla_c2050(sc.env.params), sim::tesla_c2050(sc.env.params),
                 sim::tesla_c1060(sc.env.params)};
  sc.env.config.scheduler.vgpus_per_device = 4;
  for (const auto& name : workloads::short_running_names()) {
    sc.apps.push_back({&table2(name.c_str()), 0.0});
  }
  // Open loop: per-tenant Poisson arrivals (workloads::generate_tenant_jobs,
  // whose service time is the job's host preparation), each running the
  // next short-running app from the tenant's deck.
  sc.plan = [apps = sc.apps.size()](u64 seed, int tenants) {
    workloads::LoadGenConfig lg;
    lg.seed = seed;
    lg.tenants = tenants;
    lg.horizon_seconds = kCallHorizonSeconds;
    lg.arrivals_per_second = kCallArrivalsPerSecond;
    lg.service_mean_seconds = kCallPrepMeanSeconds;
    Plan plan(static_cast<size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      Rng rng = stream_rng(seed, static_cast<u64>(t));
      Deck deck(rng, apps);
      for (const auto& job : workloads::generate_tenant_jobs(lg, t)) {
        plan[static_cast<size_t>(t)].push_back(
            {deck.draw(), job.arrival_seconds, rng(), job.service_seconds});
      }
    }
    return plan;
  };
  return sc;
}

Scenario paged_sparse() {
  Scenario sc;
  sc.name = "paged-sparse";
  sc.same_instant_ties = true;
  sc.verify = true;
  sc.env.params.execute_kernel_bodies = true;  // the read-back check needs real bytes
  sc.env.gpus = {sim::test_gpu(2ull << 20)};    // 4 tenants x 1.6 MiB oversubscribe it
  sc.env.rt_config = cudart::CudaRtConfig{4 * 1024, 16};
  core::RuntimeConfig& config = sc.env.config;
  config.scheduler.vgpus_per_device = 4;
  config.paging = true;
  config.page_bytes = kSparsePageBytes;
  config.eviction_policy = "page-lru";
  config.prefetch_policy = "stride";
  for (const SparseJob& job : sparse_jobs()) sc.apps.push_back({&job, 0.0});
  // Closed loop: back-to-back jobs, ten of each length per tenant in a
  // seeded order.
  sc.plan = [apps = sc.apps.size()](u64 seed, int tenants) {
    Plan plan(static_cast<size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
      Rng rng = stream_rng(seed, static_cast<u64>(t));
      Deck deck(rng, apps);
      for (int k = 0; k < kSparseJobsPerTenant; ++k) {
        plan[static_cast<size_t>(t)].push_back({deck.draw(), 0.0, rng()});
      }
    }
    return plan;
  };
  return sc;
}

}  // namespace

Scenario verify_scenario() {
  Scenario sc;
  sc.name = "verify";
  sc.verify = true;
  sc.env.params = paper_params(true);
  sc.env.gpus = {sim::tesla_c2050(sc.env.params), sim::tesla_c2050(sc.env.params),
                 sim::tesla_c1060(sc.env.params)};
  sc.env.config.scheduler.vgpus_per_device = 4;
  for (const auto& name : workloads::all_workload_names()) {
    sc.apps.push_back({&table2(name.c_str()), 0.0});
  }
  sc.plan = [apps = sc.apps.size()](u64 seed, int) {
    Plan plan(1);
    for (size_t a = 0; a < apps; ++a) plan[0].push_back({static_cast<int>(a), 0.0, seed + a});
    return plan;
  };
  return sc;
}

bool find_scenario(const std::string& name, Scenario* out) {
  if (name == "swap-churn") {
    *out = swap_churn();
  } else if (name == "call-stream") {
    *out = call_stream();
  } else if (name == "paged-sparse") {
    *out = paged_sparse();
  } else {
    return false;
  }
  return true;
}

RoundResult run_round(const Scenario& sc, const Plan& plan, bool traced, int max_connections) {
  if (static_cast<int>(plan.size()) > max_connections) die("plan exceeds the tenant limit");
  obs::metrics().reset();  // the registry is process-global: per-round values

  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, sc.env.params);
  for (const auto& spec : sc.env.gpus) machine.add_gpu(spec);
  workloads::register_all_kernels(machine.kernels());
  register_sparse_kernel(machine.kernels());
  cudart::CudaRt rt(machine, sc.env.rt_config);
  core::Runtime runtime(rt, sc.env.config);

  const size_t tenants = plan.size();
  std::vector<CallLog> logs(tenants);
  std::vector<std::vector<JobRecord>> records(tenants);
  std::atomic<int> open{0};
  std::atomic<int> peak{0};

  const auto tenant_loop = [&](size_t t) {
    CallLog& log = logs[t];
    log.traced = traced;
    double due = 0.0;
    for (size_t k = 0; k < plan[t].size(); ++k) {
      const JobPlan& jp = plan[t][k];
      if (sc.open_loop) {
        const vt::TimePoint at = vt::from_seconds(jp.due_s);  // on the clock's ns grid
        due = vt::to_seconds(at);
        if (dom.now() < at) dom.sleep_until(at);
      }
      JobRecord rec;
      rec.tenant = static_cast<int>(t);
      rec.app = jp.app;
      rec.prep_s = jp.prep_s;
      rec.due_s = due;
      rec.start_s = vt::to_seconds(dom.now());
      rec.checked = sc.verify;
      const double wall0 = traced ? wall_us_since_epoch() : 0.0;
      const u64 job_id = static_cast<u64>(t) << 32 | k;
      const u64 failed_before = log.failed;
      if (jp.prep_s > 0.0) dom.sleep_for(vt::from_seconds(jp.prep_s));
      workloads::AppResult result;
      {
        const int now_open = open.fetch_add(1) + 1;
        int seen = peak.load();
        while (now_open > seen && !peak.compare_exchange_weak(seen, now_open)) {
        }
        TimedApi api(runtime, dom, log, job_id);
        const auto& app = sc.apps[static_cast<size_t>(jp.app)];
        workloads::AppContext ctx;
        ctx.dom = &dom;
        ctx.api = &api;
        ctx.params = sc.env.params;
        ctx.seed = jp.seed;
        ctx.cpu_fraction = app.cpu_fraction;
        ctx.verify = sc.verify;
        result = app.workload->run(ctx);
      }
      open.fetch_sub(1);
      rec.end_s = vt::to_seconds(dom.now());
      rec.verified = result.verified;
      rec.ok = result.success() && log.failed == failed_before;
      if (!result.success()) {
        std::fprintf(stderr, "perfbench: %s job %s failed: %s (%s)\n", sc.name.c_str(),
                     sc.apps[static_cast<size_t>(jp.app)].workload->name().c_str(),
                     result.detail.c_str(), to_string(result.status));
      }
      if (traced) {
        log.spans.push_back({job_id, Op::Job, wall0, wall_us_since_epoch(), rec.start_s,
                             rec.end_s});
      }
      records[t].push_back(rec);
      due = rec.end_s;  // closed loop: the next job is due as this one ends
    }
  };

  RoundResult out;
  const double wall0 = wall_us_since_epoch();
  {
    dom.hold();
    std::vector<vt::Thread> threads;
    for (size_t t = 0; t < tenants; ++t) threads.emplace_back(dom, [&, t] { tenant_loop(t); });
    dom.unhold();
  }
  runtime.drain();
  out.wall_s = (wall_us_since_epoch() - wall0) * 1e-6;
  out.peak_connections = peak.load();

  double first_due = 1e300;
  double last_end = 0.0;
  for (size_t t = 0; t < tenants; ++t) {
    out.calls += logs[t].calls;
    out.failed_calls += logs[t].failed;
    for (const JobRecord& r : records[t]) {
      first_due = std::min(first_due, r.due_s);
      last_end = std::max(last_end, r.end_s);
      out.jobs.push_back(r);
    }
    out.spans.insert(out.spans.end(), logs[t].spans.begin(), logs[t].spans.end());
  }
  out.makespan_s = out.jobs.empty() ? 0.0 : last_end - first_due;

  // Per-layer counters from the public accessors.
  auto& c = out.counters;
  const core::RuntimeStats rs = runtime.stats();
  const core::MemStats ms = runtime.memory().stats();
  const core::SchedulerStats ss = runtime.scheduler().stats();
  const vt::Domain::ClockStats clock = dom.clock_stats();
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  c["frontend.calls"] = static_cast<double>(out.calls);
  c["transport.messages"] =
      static_cast<double>(snap.counter_value(obs::names::kTransportMessagesSent));
  c["transport.bytes"] = static_cast<double>(snap.counter_value(obs::names::kTransportBytesSent));
  c["runtime.launches"] = static_cast<double>(rs.launches);
  c["runtime.dispatch_lock_contended"] = static_cast<double>(rs.dispatch_lock_contended);
  const obs::MetricValue* lock_wait = snap.find(obs::names::kRuntimeDispatchLockWaitSeconds);
  c["runtime.dispatch_lock_wait_s"] = lock_wait != nullptr ? lock_wait->sum : 0.0;
  c["cudart.calls"] = static_cast<double>(snap.counter_value(obs::names::kCudartCalls));
  c["sched.binds"] = static_cast<double>(ss.binds);
  c["sched.unbinds"] = static_cast<double>(ss.unbinds);
  if (const obs::MetricValue* qw = snap.find(obs::names::kSchedQueueWaitSeconds)) {
    c["sched.queue_wait_s_sum"] = qw->sum;
    out.queue_wait_edges = qw->edges;
    out.queue_wait_buckets = qw->buckets;
  } else {
    c["sched.queue_wait_s_sum"] = 0.0;
  }
  c["mm.inter_app_swaps"] = static_cast<double>(ms.inter_app_swaps);
  c["mm.intra_app_swaps"] = static_cast<double>(ms.intra_app_swaps);
  c["mm.swap_out_bytes"] = static_cast<double>(ms.swap_out_bytes);
  c["mm.swap_in_bytes"] = static_cast<double>(ms.swap_in_bytes);
  c["mm.bulk_transfers"] = static_cast<double>(ms.bulk_transfers);
  c["mm.dirty_bytes_saved"] = static_cast<double>(ms.dirty_bytes_saved);
  c["mm.clean_swap_skips"] = static_cast<double>(ms.clean_swap_skips);
  c["mm.async_writebacks"] = static_cast<double>(ms.async_writebacks);
  c["mm.writeback_fences"] = static_cast<double>(ms.writeback_fences);
  c["mm.page_faults"] = static_cast<double>(ms.page_faults);
  c["mm.tlb_hits"] = static_cast<double>(ms.tlb_hits);
  c["mm.tlb_misses"] = static_cast<double>(ms.tlb_misses);
  c["mm.prefetched_pages"] = static_cast<double>(ms.prefetched_pages);
  c["mm.page_evictions"] = static_cast<double>(ms.page_evictions);
  double compute_busy = 0.0;
  double copy_busy = 0.0;
  double to_dev = 0.0;
  double from_dev = 0.0;
  double kernels = 0.0;
  const auto gpus = machine.all_gpus();
  for (GpuId id : gpus) {
    const sim::GpuStats gs = machine.gpu(id)->stats();
    compute_busy += gs.compute_busy_seconds;
    copy_busy += gs.copy_busy_seconds;
    to_dev += static_cast<double>(gs.bytes_to_device);
    from_dev += static_cast<double>(gs.bytes_from_device);
    kernels += static_cast<double>(gs.kernels_launched);
  }
  c["gpu.compute_busy_s"] = compute_busy;
  c["gpu.copy_busy_s"] = copy_busy;
  c["gpu.capacity_s"] = static_cast<double>(gpus.size()) * out.makespan_s;
  c["gpu.bytes_to_device"] = to_dev;
  c["gpu.bytes_from_device"] = from_dev;
  c["gpu.kernels"] = kernels;
  c["vt.advances"] = static_cast<double>(clock.advances);
  c["vt.events_dispatched"] = static_cast<double>(clock.events_dispatched);
  c["vt.sleepers_peak"] = static_cast<double>(clock.sleepers_peak);
  return out;
}

std::vector<double> solo_latencies(const Scenario& sc, bool traced) {
  std::vector<double> solo;
  for (size_t a = 0; a < sc.apps.size(); ++a) {
    const Plan plan = {{JobPlan{static_cast<int>(a), 0.0, 1}}};
    const RoundResult r = run_round(sc, plan, traced, 1);
    if (r.jobs.size() != 1 || !r.jobs[0].ok) die("solo run failed");
    solo.push_back(r.jobs[0].end_s - r.jobs[0].start_s);
  }
  return solo;
}

}  // namespace perfbench
