// TorqueScheduler: a PBS-style cluster-level batch scheduler.
//
// The coarse-grained half of the paper's two-level scheduling: jobs are
// submitted at a head node and dispatched to compute nodes. Two dispatch
// disciplines model the paper's cluster experiments (section 5.4):
//   - GpuAware: bare TORQUE on the CUDA runtime. The scheduler knows each
//     node's GPU count, treats GPUs as consumable job slots, and holds jobs
//     at the head node until a GPU frees up (serialized execution, no
//     sharing). Jobs talk to the node's CUDA runtime directly.
//   - Oblivious: TORQUE stacked on the gpuvm runtime with the GPUs hidden
//     from it. Jobs are divided equally (round-robin) between the nodes and
//     dispatched immediately; the per-node gpuvm daemons handle sharing --
//     and, when enabled, shed overload to peer nodes.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "core/frontend.hpp"
#include "core/gpu_api.hpp"
#include "core/scheduler.hpp"

namespace gpuvm::cluster {

class DispatchPolicy;
class NodeDirectory;

/// One batch job: the application body runs on the compute node's CPUs and
/// issues GPU work through the provided GpuApi.
struct Job {
  JobId id{};
  std::string name;
  std::function<void(core::GpuApi&)> body;
  /// Profiling hint forwarded to the node runtime (shortest-job-first).
  double cost_hint_seconds = 0.0;
  /// Peak device-memory footprint hint (0 = unknown): MemoryAware placement
  /// best-fits it against each node's free device memory.
  u64 mem_footprint_bytes = 0;
};

struct JobResult {
  JobId id{};
  double seconds = 0.0;  ///< virtual time from dispatch to completion
  NodeId node{};
};

struct BatchResult {
  double total_seconds = 0.0;  ///< first submit to last completion (makespan)
  double avg_seconds = 0.0;    ///< mean per-job time including queuing
  std::vector<JobResult> jobs;
};

class TorqueScheduler {
 public:
  enum class Mode { GpuAware, Oblivious };

  struct Options {
    Mode mode = Mode::Oblivious;
    /// The one scheduling config: owns the dispatch policy name
    /// (sched.dispatch_policy), the dispatch stagger
    /// (sched.dispatch_interval_seconds), and the node-level preemption
    /// policy and quantum. Forward it to the per-node
    /// RuntimeConfig so head-node and node-level scheduling read one source
    /// of truth.
    core::SchedulerConfig sched;
    /// Live cluster view: suspect/dark nodes are routed around (both
    /// modes), and policies rank candidates by its LoadSnapshots. nullptr
    /// keeps the directory-less legacy behaviour.
    NodeDirectory* directory = nullptr;
    /// Seed mixed into each job's causal trace id (obs/span.hpp): trace ids
    /// are mint_trace_id(trace_seed, job id), so two runs of the same batch
    /// and seed mint bit-identical traces.
    u64 trace_seed = 0;
  };

  /// Builds a scheduler over `nodes`. Fails with ErrorInvalidValue, before
  /// any job can dispatch, when options.sched.dispatch_policy names no
  /// built-in policy.
  static StatusOr<std::unique_ptr<TorqueScheduler>> create(vt::Domain& dom,
                                                           std::vector<Node*> nodes,
                                                           Options options);
  ~TorqueScheduler();

  void submit(Job job);

  /// Dispatches all queued jobs and blocks until every one finished.
  BatchResult run_to_completion();

 private:
  TorqueScheduler(vt::Domain& dom, std::vector<Node*> nodes, Options options,
                  std::unique_ptr<DispatchPolicy> policy);

  /// Oblivious placement: directory-filtered candidates ranked by the
  /// policy. Falls back to every node when the filter empties the list.
  size_t pick_node_for(const Job& job);
  /// GpuAware: may this node receive a job right now?
  bool node_usable(size_t index) const;

  vt::Domain* dom_;
  std::vector<Node*> nodes_;
  Options options_;
  /// Oblivious placement policy, resolved from options_.sched.dispatch_policy.
  std::unique_ptr<DispatchPolicy> policy_;

  std::mutex mu_;
  vt::ConditionVariable tokens_cv_;
  std::vector<Job> queue_;
  /// GpuAware mode: free device indices per node (a job occupies one whole
  /// GPU for its lifetime, like a TORQUE GPU resource).
  std::vector<std::vector<int>> tokens_;
  u64 next_job_ = 1;
};

}  // namespace gpuvm::cluster
