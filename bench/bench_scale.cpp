// Simulator scale benchmark: thread-per-actor vs discrete-event task mode.
//
// Drives the same synthetic multi-tenant job stream (workloads/loadgen:
// Poisson or diurnal arrivals, bounded-Pareto footprints, exponential
// service) through the same cluster model -- N nodes x G GPUs, least-loaded
// dispatch, per-node FIFO -- under two actor regimes:
//
//   threaded  -- one vt::Thread per tenant submitter plus one vt::Thread per
//                GPU worker: the faithful-but-expensive model every
//                experiment used before the discrete-event fast path. Each
//                virtual-clock advance costs OS context switches.
//   task      -- every tenant and every completion is a vt::Task callback on
//                one TaskRunner pump: events cost calendar-queue operations,
//                no thread handoffs.
//
// Both drivers consume the identical generated trace and must agree on jobs
// completed and virtual makespan -- the fast path changes wall-clock cost,
// never modeled outcomes. The headline metric is events/sec of host time
// (events = arrivals + job starts + completions); the CI gate requires the
// task driver to beat the threaded driver by >= 10x on the quick mix.
//
// The full sweep (default) additionally scales task mode to 1000+ GPUs and
// >= 1M job events per configuration; --quick runs only the two-driver
// comparison mix. Emits machine-readable JSON (default BENCH_scale.json).
//
// Flags: --out <path>  --quick
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/task.hpp"
#include "common/vt.hpp"
#include "harness.hpp"
#include "workloads/loadgen.hpp"

namespace {

using namespace gpuvm;
using harness::die;

struct Mix {
  const char* name;
  int nodes = 0;
  int gpus_per_node = 0;
  int tenants = 0;
  double horizon_seconds = 0.0;
  double arrivals_per_second = 0.0;  // per tenant
  double service_mean_seconds = 0.0;
  double diurnal_amplitude = 0.0;
  u64 seed = 0;
};

workloads::LoadGenConfig loadgen_config(const Mix& mix) {
  workloads::LoadGenConfig config;
  config.seed = mix.seed;
  config.tenants = mix.tenants;
  config.horizon_seconds = mix.horizon_seconds;
  config.arrivals_per_second = mix.arrivals_per_second;
  config.service_mean_seconds = mix.service_mean_seconds;
  config.diurnal_amplitude = mix.diurnal_amplitude;
  config.diurnal_period_seconds = mix.horizon_seconds / 2.0;  // two "days"
  return config;
}

/// Cluster model shared by both drivers: least-loaded dispatch across
/// nodes, per-node FIFO, one job occupies one GPU for its service time.
struct Model {
  struct Node {
    int running = 0;
    std::deque<double> fifo;  // service times awaiting a free GPU
  };

  explicit Model(const Mix& mix)
      : nodes(static_cast<size_t>(mix.nodes)), gpus_per_node(mix.gpus_per_node) {}

  std::vector<Node> nodes;
  int gpus_per_node;
  u64 events = 0;  // arrivals + starts + completions
  u64 completed = 0;
  double makespan_seconds = 0.0;

  size_t pick_node() const {
    size_t best = 0;
    size_t best_load = static_cast<size_t>(nodes[0].running) + nodes[0].fifo.size();
    for (size_t n = 1; n < nodes.size(); ++n) {
      const size_t load = static_cast<size_t>(nodes[n].running) + nodes[n].fifo.size();
      if (load < best_load) {
        best = n;
        best_load = load;
      }
    }
    return best;
  }
};

struct DriveResult {
  u64 jobs = 0;
  u64 events = 0;
  double makespan_seconds = 0.0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  u64 clock_advances = 0;
  u64 sleepers_peak = 0;
};

DriveResult finish(const Model& model, u64 jobs, double wall_seconds, const vt::Domain& dom) {
  DriveResult r;
  r.jobs = jobs;
  r.events = model.events;
  r.makespan_seconds = model.makespan_seconds;
  r.wall_seconds = wall_seconds;
  r.events_per_sec = static_cast<double>(model.events) / std::max(wall_seconds, 1e-12);
  const vt::Domain::ClockStats cs = dom.clock_stats();
  r.clock_advances = cs.advances;
  r.sleepers_peak = cs.sleepers_peak;
  return r;
}

// ---- threaded driver: one OS thread per tenant + one per GPU ---------------

DriveResult run_threaded(const Mix& mix,
                         const std::vector<std::vector<workloads::GeneratedJob>>& per_tenant,
                         u64 total_jobs) {
  vt::Domain dom;
  Model model(mix);
  std::mutex mu;
  std::vector<std::unique_ptr<vt::ConditionVariable>> node_cv;
  for (int n = 0; n < mix.nodes; ++n) {
    node_cv.push_back(std::make_unique<vt::ConditionVariable>(dom));
  }
  bool shutdown = false;

  const auto worker = [&](size_t n) {
    std::unique_lock lk(mu);
    for (;;) {
      node_cv[n]->wait(lk, [&] { return shutdown || !model.nodes[n].fifo.empty(); });
      if (model.nodes[n].fifo.empty()) break;  // shutdown and drained
      const double service = model.nodes[n].fifo.front();
      model.nodes[n].fifo.pop_front();
      ++model.nodes[n].running;
      ++model.events;  // job start
      lk.unlock();
      dom.sleep_for(vt::from_seconds(service));
      lk.lock();
      --model.nodes[n].running;
      ++model.events;  // completion
      ++model.completed;
      model.makespan_seconds = std::max(model.makespan_seconds, vt::to_seconds(dom.now()));
      if (model.completed == total_jobs) {
        shutdown = true;
        for (auto& cv : node_cv) cv->notify_all();
      }
    }
  };

  const auto submitter = [&](int tenant) {
    for (const workloads::GeneratedJob& job : per_tenant[static_cast<size_t>(tenant)]) {
      dom.sleep_until(vt::from_seconds(job.arrival_seconds));
      std::unique_lock lk(mu);
      ++model.events;  // arrival
      const size_t n = model.pick_node();
      model.nodes[n].fifo.push_back(job.service_seconds);
      node_cv[n]->notify_one();
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  {
    vt::AttachGuard attach(dom);
    std::vector<vt::Thread> threads;
    threads.reserve(static_cast<size_t>(mix.nodes) * static_cast<size_t>(mix.gpus_per_node) +
                    static_cast<size_t>(mix.tenants));
    dom.hold();
    for (int n = 0; n < mix.nodes; ++n) {
      for (int g = 0; g < mix.gpus_per_node; ++g) {
        threads.emplace_back(dom, [&, n] { worker(static_cast<size_t>(n)); });
      }
    }
    for (int t = 0; t < mix.tenants; ++t) {
      threads.emplace_back(dom, [&, t] { submitter(t); });
    }
    dom.unhold();
  }  // joins every thread
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (model.completed != total_jobs) die("threaded driver lost jobs");
  return finish(model, total_jobs, wall, dom);
}

// ---- task driver: every actor is a callback on one TaskRunner pump ---------

struct TaskDriver {
  const std::vector<std::vector<workloads::GeneratedJob>>* per_tenant;
  Model* model;

  void dispatch(vt::Task& t, size_t n) {
    Model::Node& node = model->nodes[n];
    while (node.running < model->gpus_per_node && !node.fifo.empty()) {
      const double service = node.fifo.front();
      node.fifo.pop_front();
      ++node.running;
      ++model->events;  // job start
      t.defer(vt::from_seconds(service), [this, n](vt::Task& t2) { complete(t2, n); });
    }
  }

  void complete(vt::Task& t, size_t n) {
    --model->nodes[n].running;
    ++model->events;  // completion
    ++model->completed;
    model->makespan_seconds = std::max(model->makespan_seconds, vt::to_seconds(t.now()));
    dispatch(t, n);
  }

  void arrival(vt::Task& t, int tenant, size_t k) {
    const auto& jobs = (*per_tenant)[static_cast<size_t>(tenant)];
    ++model->events;  // arrival
    const size_t n = model->pick_node();
    model->nodes[n].fifo.push_back(jobs[k].service_seconds);
    dispatch(t, n);
    if (k + 1 < jobs.size()) {
      t.at(vt::from_seconds(jobs[k + 1].arrival_seconds),
           [this, tenant, k](vt::Task& t2) { arrival(t2, tenant, k + 1); });
    }
  }
};

DriveResult run_task(const Mix& mix,
                     const std::vector<std::vector<workloads::GeneratedJob>>& per_tenant,
                     u64 total_jobs) {
  vt::Domain dom;
  Model model(mix);
  TaskDriver driver{&per_tenant, &model};

  const auto wall_start = std::chrono::steady_clock::now();
  {
    vt::TaskRunner runner(dom);
    for (int tenant = 0; tenant < mix.tenants; ++tenant) {
      if (per_tenant[static_cast<size_t>(tenant)].empty()) continue;
      // Each tenant is a self-re-arming actor chain: the seed step schedules
      // the first arrival, every arrival schedules the next.
      runner.spawn([&driver, tenant](vt::Task& t) {
        const double first =
            (*driver.per_tenant)[static_cast<size_t>(tenant)][0].arrival_seconds;
        t.at(vt::from_seconds(first),
             [&driver, tenant](vt::Task& t2) { driver.arrival(t2, tenant, 0); });
      });
    }
    runner.drain();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (model.completed != total_jobs) die("task driver lost jobs");
  return finish(model, total_jobs, wall, dom);
}

std::vector<std::vector<workloads::GeneratedJob>> per_tenant_trace(const Mix& mix,
                                                                  u64* total_jobs) {
  const workloads::LoadGenConfig config = loadgen_config(mix);
  std::vector<std::vector<workloads::GeneratedJob>> per_tenant;
  per_tenant.reserve(static_cast<size_t>(mix.tenants));
  u64 total = 0;
  for (int tenant = 0; tenant < mix.tenants; ++tenant) {
    per_tenant.push_back(workloads::generate_tenant_jobs(config, tenant));
    total += per_tenant.back().size();
  }
  *total_jobs = total;
  return per_tenant;
}

void print_result(const char* mix, const char* driver, const DriveResult& r) {
  std::printf(
      "%-8s %-9s jobs=%-8llu events=%-8llu makespan=%8.4fs wall=%8.3fs events/sec=%12.0f "
      "(advances=%llu peak_sleepers=%llu)\n",
      mix, driver, static_cast<unsigned long long>(r.jobs),
      static_cast<unsigned long long>(r.events), r.makespan_seconds, r.wall_seconds,
      r.events_per_sec, static_cast<unsigned long long>(r.clock_advances),
      static_cast<unsigned long long>(r.sleepers_peak));
}

/// One driver's result as an inline object.
void result_json(harness::Json& json, const char* key, const DriveResult& r) {
  json.object(key, /*inline_=*/true)
      .num("jobs", r.jobs).num("events", r.events).num("makespan_seconds", r.makespan_seconds, 9)
      .num("wall_seconds", r.wall_seconds, 4).num("events_per_sec", r.events_per_sec, 0)
      .num("clock_advances", r.clock_advances).num("sleepers_peak", r.sleepers_peak)
      .end();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const std::string out =
      harness::parse_flags(argc, argv, "bench_scale", [&] { quick = true; }, {});

  // Quick mix: small enough that the thread-per-actor baseline is feasible
  // (320 OS threads, ~115k events); both drivers run and must agree.
  const Mix quick_mix{"quick", /*nodes=*/16, /*gpus_per_node=*/4, /*tenants=*/256,
                      /*horizon=*/3.0, /*rate=*/50.0, /*service=*/0.003,
                      /*amplitude=*/0.0, /*seed=*/42};
  // Full sweep: task mode only -- thread-per-actor at these sizes is the
  // problem this PR deletes. s1024 and s1024d are the headline rows: 1024
  // GPUs, >= 1M job events each, s1024d with diurnal arrival modulation.
  const Mix sweep[] = {
      {"s256", 32, 8, 256, 5.0, 40.0, 0.020, 0.0, 1001},
      {"s1024", 64, 16, 1024, 10.0, 40.0, 0.015, 0.0, 1002},
      {"s1024d", 128, 8, 2048, 6.0, 35.0, 0.012, 0.6, 1003},
  };

  u64 quick_jobs = 0;
  const auto quick_trace = per_tenant_trace(quick_mix, &quick_jobs);
  std::printf("quick mix: %d nodes x %d GPUs, %d tenants, %llu jobs\n", quick_mix.nodes,
              quick_mix.gpus_per_node, quick_mix.tenants,
              static_cast<unsigned long long>(quick_jobs));

  const DriveResult threaded = run_threaded(quick_mix, quick_trace, quick_jobs);
  print_result("quick", "threaded", threaded);
  const DriveResult task = run_task(quick_mix, quick_trace, quick_jobs);
  print_result("quick", "task", task);

  // The fast path must not change modeled outcomes.
  const bool agree = threaded.jobs == task.jobs && threaded.events == task.events &&
                     std::fabs(threaded.makespan_seconds - task.makespan_seconds) < 1e-9;
  if (!agree) {
    std::fprintf(stderr,
                 "bench_scale: driver disagreement (threaded %llu ev %.9fs vs task %llu ev "
                 "%.9fs)\n",
                 static_cast<unsigned long long>(threaded.events), threaded.makespan_seconds,
                 static_cast<unsigned long long>(task.events), task.makespan_seconds);
  }
  const double speedup = task.events_per_sec / std::max(threaded.events_per_sec, 1e-12);
  std::printf("quick speedup (task/threaded events/sec): %.1fx\n", speedup);

  std::vector<Mix> sweep_mixes;
  std::vector<DriveResult> sweep_results;
  double headline = task.events_per_sec;
  if (!quick) {
    for (const Mix& mix : sweep) {
      u64 jobs = 0;
      const auto trace = per_tenant_trace(mix, &jobs);
      std::printf("sweep %s: %d nodes x %d GPUs (%d total), %d tenants, %llu jobs\n", mix.name,
                  mix.nodes, mix.gpus_per_node, mix.nodes * mix.gpus_per_node, mix.tenants,
                  static_cast<unsigned long long>(jobs));
      const DriveResult r = run_task(mix, trace, jobs);
      print_result(mix.name, "task", r);
      sweep_mixes.push_back(mix);
      sweep_results.push_back(r);
      headline = std::max(headline, r.events_per_sec);
    }
  }

  harness::Json json("scale");
  json.object("quick")
      .num("nodes", quick_mix.nodes).num("gpus_total", quick_mix.nodes * quick_mix.gpus_per_node)
      .num("tenants", quick_mix.tenants);
  result_json(json, "threaded", threaded);
  result_json(json, "task", task);
  json.boolean("agreement", agree).num("speedup", speedup, 2).end();
  json.array("sweep");
  for (size_t i = 0; i < sweep_results.size(); ++i) {
    const Mix& mix = sweep_mixes[i];
    const DriveResult& r = sweep_results[i];
    json.object(nullptr, /*inline_=*/true)
        .str("name", mix.name).num("nodes", mix.nodes)
        .num("gpus_total", mix.nodes * mix.gpus_per_node).num("tenants", mix.tenants)
        .num("diurnal_amplitude", mix.diurnal_amplitude, 2).num("jobs", r.jobs)
        .num("events", r.events).num("makespan_seconds", r.makespan_seconds, 6)
        .num("wall_seconds", r.wall_seconds, 4).num("events_per_sec", r.events_per_sec, 0)
        .end();
  }
  json.end().num("headline_events_per_sec", headline, 0);
  json.save(out);
  std::printf("headline events/sec=%.0f -> %s\n", headline, out.c_str());
  return agree ? 0 : 1;
}
