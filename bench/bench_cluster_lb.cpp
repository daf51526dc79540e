// Cluster load-balancing benchmark: RoundRobin vs LeastLoaded placement.
//
// A skewed three-node cluster (4/2/1 test GPUs) runs the same batch of
// identical jobs under both head-node dispatch policies. RoundRobin -- the
// paper's TORQUE baseline, blind to load -- divides the batch equally, so
// the single-GPU node dominates the makespan. LeastLoaded watches the
// NodeDirectory's heartbeat-fed LoadSnapshots and shifts work toward the
// wide node, shortening the straggler tail.
//
// Times are modeled (virtual-clock) seconds; each policy gets a fresh
// cluster so the runs are independent. Emits machine-readable JSON (default
// BENCH_cluster_lb.json) with both makespans plus the LL/RR ratio -- the
// number the CI cluster-lb job tracks (asserts <= 0.9).
//
// Flags: --out <path>  --jobs <n>  --kernels <n>  --quick
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/dispatch_policy.hpp"
#include "cluster/torque.hpp"
#include "harness.hpp"

namespace {

using namespace gpuvm;
using harness::die;

// Skewed GPU counts per node: the whole point of load-aware placement.
constexpr int kGpusPerNode[] = {4, 2, 1};
constexpr int kVgpusPerDevice = 2;
constexpr double kKernelFlops = 1e8;  // 1 ms on the 100-GFLOPS test GPU
constexpr double kCpuMsBetweenKernels = 0.5;

struct PolicyRun {
  double makespan_seconds = 0.0;
  double avg_job_seconds = 0.0;
  std::vector<int> jobs_per_node;  // indexed like kGpusPerNode
};

PolicyRun run_policy(const std::string& policy, int jobs, int kernels) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);

  std::vector<cluster::NodeSpec> specs;
  for (size_t n = 0; n < std::size(kGpusPerNode); ++n) {
    cluster::NodeSpec spec;
    spec.name = "node-" + std::to_string(n);
    for (int g = 0; g < kGpusPerNode[n]; ++g) spec.gpus.push_back(sim::test_gpu());
    specs.push_back(std::move(spec));
  }
  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = kVgpusPerDevice;
  cluster::Cluster cl(dom, sim::SimParams{1}, specs, config, cudart::CudaRtConfig{4 * 1024, 8});

  sim::KernelDef burn;
  burn.name = "burn";
  burn.body = [](sim::KernelExecContext&) { return Status::Ok; };
  burn.cost = [](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{kKernelFlops, 0.0};
  };
  cl.register_kernel(burn);

  // Heartbeats much faster than the dispatch stagger: every placement is
  // visible to the directory before the next decision.
  cluster::DirectoryConfig dir;
  dir.heartbeat_interval = vt::from_micros(199.0);
  cl.enable_load_reports(dir);

  cluster::TorqueScheduler::Options options;
  options.sched.dispatch_policy = policy;
  options.directory = cl.directory();
  options.sched.dispatch_interval_seconds = 0.001;
  auto made = cluster::TorqueScheduler::create(dom, cl.node_pointers(), std::move(options));
  if (!made) die("unknown dispatch policy");
  cluster::TorqueScheduler& torque = *made.value();

  std::atomic<int> done{0};
  for (int j = 0; j < jobs; ++j) {
    cluster::Job job;
    job.name = "burn-loop";
    job.body = [&dom, kernels, &done](core::GpuApi& api) {
      if (!ok(api.register_kernels({"burn"}))) die("register failed");
      auto ptr = api.malloc(1024);
      if (!ptr) die("malloc failed");
      for (int i = 0; i < kernels; ++i) {
        if (!ok(api.launch("burn", {{1, 1, 1}, {64, 1, 1}},
                           {sim::KernelArg::dev(ptr.value())}))) {
          die("launch failed");
        }
        dom.sleep_for(vt::from_millis(kCpuMsBetweenKernels));
      }
      done.fetch_add(1);
    };
    torque.submit(std::move(job));
  }

  const cluster::BatchResult batch = torque.run_to_completion();
  if (done.load() != jobs) die("jobs lost");

  PolicyRun run;
  run.makespan_seconds = batch.total_seconds;
  run.avg_job_seconds = batch.avg_seconds;
  run.jobs_per_node.assign(std::size(kGpusPerNode), 0);
  std::map<u64, size_t> node_index;
  for (size_t n = 0; n < cl.size(); ++n) node_index[cl.node(n).id().value] = n;
  for (const auto& job : batch.jobs) ++run.jobs_per_node[node_index.at(job.node.value)];
  cl.stop_load_reports();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 30;
  int kernels = 6;
  const std::string out = harness::parse_flags(
      argc, argv, "bench_cluster_lb",
      [&] {
        jobs = 15;
        kernels = 4;
      },
      {harness::count_flag("--jobs", &jobs), harness::count_flag("--kernels", &kernels)});

  struct Entry {
    const char* name;
    PolicyRun run;
  };
  Entry entries[] = {
      {"round_robin", {}},
      {"least_loaded", {}},
  };
  for (Entry& e : entries) {
    e.run = run_policy(e.name, jobs, kernels);
    std::printf("%-12s makespan=%8.4fs avg_job=%8.4fs placement=[%d,%d,%d]\n", e.name,
                e.run.makespan_seconds, e.run.avg_job_seconds, e.run.jobs_per_node[0],
                e.run.jobs_per_node[1], e.run.jobs_per_node[2]);
  }

  const double ratio = entries[1].run.makespan_seconds / entries[0].run.makespan_seconds;

  harness::Json json("cluster_lb");
  json.num("jobs", jobs).num("kernels_per_job", kernels);
  json.array("gpus_per_node", /*inline_=*/true);
  for (const int gpus : kGpusPerNode) json.num(nullptr, gpus);
  json.end().num("vgpus_per_device", kVgpusPerDevice).object("policies");
  for (const Entry& e : entries) {
    json.object(e.name, /*inline_=*/true)
        .num("makespan_seconds", e.run.makespan_seconds, 6)
        .num("avg_job_seconds", e.run.avg_job_seconds, 6)
        .array("jobs_per_node");
    for (const int n : e.run.jobs_per_node) json.num(nullptr, n);
    json.end().end();
  }
  json.end().num("ll_over_rr_makespan", ratio, 4);
  json.save(out);
  std::printf("ll_over_rr_makespan=%.4f -> %s\n", ratio, out.c_str());
  return 0;
}
