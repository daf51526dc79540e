// Shared scaffolding for the cluster-level benches (Figures 10 and 11).
//
// The paper's cluster: a head node plus two compute nodes -- one with
// 2x C2050 + 1x C1060, one with a single C1060. TORQUE is configured
// oblivious of the GPUs ("we hid from TORQUE the presence of GPUs") so it
// divides the jobs equally between the nodes; the gpuvm daemons then apply
// the per-setting policy: serialized (1 vGPU), GPU sharing (4 vGPUs), or
// sharing plus inter-node offloading.
#pragma once

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/torque.hpp"

namespace gpuvm::bench {

enum class ClusterSetting { Serialized, Sharing, SharingOffload };

inline const char* to_string(ClusterSetting s) {
  switch (s) {
    case ClusterSetting::Serialized: return "serialized";
    case ClusterSetting::Sharing: return "sharing_4vGPUs";
    case ClusterSetting::SharingOffload: return "sharing_offload";
  }
  return "?";
}

struct ClusterRun {
  cluster::BatchResult batch;
  u64 offloaded = 0;
  u64 swaps = 0;
};

/// Builds the two-compute-node cluster, submits `jobs` through oblivious
/// TORQUE, runs to completion.
inline ClusterRun run_cluster_batch(ClusterSetting setting,
                                    const std::vector<workloads::JobSpec>& jobs) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  const auto params = bench_params();

  core::RuntimeConfig config;
  config.scheduler.vgpus_per_device = setting == ClusterSetting::Serialized ? 1 : 4;
  if (setting == ClusterSetting::SharingOffload) {
    // Shed connections queued beyond roughly one batch per vGPU.
    config.offload_threshold = 2;
  }

  cluster::Cluster cl(dom, params,
                      {{"node-a",
                        {sim::tesla_c2050(params), sim::tesla_c2050(params),
                         sim::tesla_c1060(params)}},
                       {"node-b", {sim::tesla_c1060(params)}}},
                      config);
  for (auto& node : {&cl.node(0), &cl.node(1)}) {
    workloads::register_all_kernels(node->machine().kernels());
  }
  if (setting == ClusterSetting::SharingOffload) cl.enable_offloading();

  // Default options: Oblivious mode and round-robin, a policy that always
  // resolves.
  auto torque = cluster::TorqueScheduler::create(dom, cl.node_pointers(), {}).value();
  for (const auto& spec : jobs) {
    cluster::Job job;
    job.name = spec.workload;
    const workloads::Workload* app = workloads::find_workload(spec.workload);
    job.cost_hint_seconds = app->expected_gpu_seconds();
    job.body = [&dom, params, spec, app](core::GpuApi& api) {
      workloads::AppContext ctx;
      ctx.dom = &dom;
      ctx.api = &api;
      ctx.params = params;
      ctx.seed = spec.seed;
      ctx.cpu_fraction = spec.cpu_fraction;
      ctx.verify = spec.verify;
      (void)app->run(ctx);
    };
    torque->submit(std::move(job));
  }

  ClusterRun run;
  run.batch = torque->run_to_completion();
  run.offloaded = cl.total_offloaded();
  for (size_t n = 0; n < cl.size(); ++n) {
    const auto mem = cl.node(n).runtime().memory().stats();
    run.swaps += mem.inter_app_swaps + mem.intra_app_swaps;
  }
  return run;
}

}  // namespace gpuvm::bench
