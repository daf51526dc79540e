// Cluster demo: TORQUE-style batch scheduling + inter-node offloading.
//
// Reproduces the paper's deployment (Figure 2b) in miniature: an unbalanced
// two-node cluster (3 GPUs vs 1 GPU), a GPU-oblivious head-node scheduler
// that splits jobs 50/50, and gpuvm daemons that shed overload from the
// small node to the big one over the cluster interconnect. Prints the
// makespan with and without offloading.
//
//   ./examples/cluster_offload
#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/torque.hpp"
#include "workloads/batch.hpp"
#include "workloads/workload.hpp"

using namespace gpuvm;

namespace {

double run_batch(bool offloading, u64* offloaded) {
  vt::Domain dom;
  vt::AttachGuard attach(dom);
  sim::SimParams params;
  params.mem_scale = 1024;

  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = 4;
  if (offloading) config.offload_threshold = 2;

  cluster::Cluster cl(dom, params,
                      {{"big-node",
                        {sim::tesla_c2050(params), sim::tesla_c2050(params),
                         sim::tesla_c1060(params)}},
                       {"small-node", {sim::tesla_c1060(params)}}},
                      config);
  for (size_t n = 0; n < cl.size(); ++n) {
    workloads::register_all_kernels(cl.node(n).machine().kernels());
  }
  if (offloading) cl.enable_offloading();

  // Default options: Oblivious mode and round-robin, a policy that always
  // resolves.
  auto torque = cluster::TorqueScheduler::create(dom, cl.node_pointers(), {}).value();
  const auto specs =
      workloads::BatchRunner::random_batch(workloads::short_running_names(), 24, /*seed=*/5);
  for (const auto& spec : specs) {
    cluster::Job job;
    job.name = spec.workload;
    job.body = [&dom, params, spec](core::GpuApi& api) {
      workloads::AppContext ctx;
      ctx.dom = &dom;
      ctx.api = &api;
      ctx.params = params;
      ctx.seed = spec.seed;
      const auto result = workloads::find_workload(spec.workload)->run(ctx);
      if (!result.success()) std::printf("  job %s FAILED\n", spec.workload.c_str());
    };
    torque->submit(std::move(job));
  }

  const cluster::BatchResult result = torque->run_to_completion();
  *offloaded = cl.total_offloaded();
  return result.total_seconds;
}

}  // namespace

int main() {
  std::printf("24 short jobs, unbalanced 2-node cluster, GPU-oblivious TORQUE\n");
  std::printf("(jobs are split 12/12 although the nodes have 3 vs 1 GPUs)\n\n");

  u64 offloaded = 0;
  const double without = run_batch(false, &offloaded);
  std::printf("no offloading:   %6.1f modeled seconds (small node overloaded)\n", without);

  const double with = run_batch(true, &offloaded);
  std::printf("with offloading: %6.1f modeled seconds (%llu connections shed)\n", with,
              static_cast<unsigned long long>(offloaded));

  std::printf("\nimprovement: %.0f%%\n", (1.0 - with / without) * 100.0);
  return with < without ? 0 : 1;
}
