#include "cluster/torque.hpp"

#include <optional>

#include "cluster/dispatch_policy.hpp"
#include "cluster/node_directory.hpp"
#include "core/direct_api.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace gpuvm::cluster {

StatusOr<std::unique_ptr<TorqueScheduler>> TorqueScheduler::create(vt::Domain& dom,
                                                                   std::vector<Node*> nodes,
                                                                   Options options) {
  auto policy = make_dispatch_policy(options.sched.dispatch_policy);
  if (!policy) return policy.status();
  return std::unique_ptr<TorqueScheduler>(new TorqueScheduler(
      dom, std::move(nodes), std::move(options), std::move(policy).value()));
}

TorqueScheduler::TorqueScheduler(vt::Domain& dom, std::vector<Node*> nodes, Options options,
                                 std::unique_ptr<DispatchPolicy> policy)
    : dom_(&dom),
      nodes_(std::move(nodes)),
      options_(std::move(options)),
      policy_(std::move(policy)),
      tokens_cv_(dom) {
  tokens_.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int g = 0; g < nodes_[i]->gpu_count(); ++g) tokens_[i].push_back(g);
  }
}

TorqueScheduler::~TorqueScheduler() = default;

void TorqueScheduler::submit(Job job) {
  std::scoped_lock lock(mu_);
  if (!job.id.valid()) job.id = JobId{next_job_++};
  queue_.push_back(std::move(job));
}

bool TorqueScheduler::node_usable(size_t index) const {
  // Live check first: a node whose GPUs all died cannot run a GpuAware job
  // even if its tokens are still in the pool. The directory adds the
  // telemetry view (suspect after missed heartbeats).
  if (nodes_[index]->gpu_count() == 0) return false;
  if (options_.directory != nullptr &&
      !options_.directory->dispatchable(nodes_[index]->id())) {
    return false;
  }
  return true;
}

size_t TorqueScheduler::pick_node_for(const Job& job) {
  std::vector<NodeCandidate> candidates;
  candidates.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeCandidate c;
    c.index = i;
    c.id = nodes_[i]->id();
    if (options_.directory != nullptr) {
      if (!options_.directory->dispatchable(c.id)) continue;
      if (auto snap = options_.directory->snapshot_of(c.id)) {
        c.has_load = true;
        c.load = std::move(*snap);
      }
    }
    candidates.push_back(std::move(c));
  }
  if (candidates.empty()) {
    // Every node suspect/dark: dispatch blind rather than deadlock -- the
    // per-node runtimes queue the work until devices return.
    for (size_t i = 0; i < nodes_.size(); ++i) {
      NodeCandidate c;
      c.index = i;
      c.id = nodes_[i]->id();
      candidates.push_back(std::move(c));
    }
  }
  size_t pick;
  {
    // Policies may be stateful (round-robin cursor); serialize them.
    std::scoped_lock lock(mu_);
    pick = policy_->pick(job, candidates);
    if (pick >= candidates.size()) pick = 0;
  }
  obs::metrics()
      .counter(std::string(obs::names::kClusterDispatchPrefix) + policy_->name())
      .add(1);
  return candidates[pick].index;
}

BatchResult TorqueScheduler::run_to_completion() {
  std::vector<Job> jobs;
  {
    std::scoped_lock lock(mu_);
    jobs.swap(queue_);
  }

  BatchResult result;
  result.jobs.resize(jobs.size());
  std::mutex results_mu;
  const vt::TimePoint batch_start = dom_->now();

  {
    // Join order matters: the hold must release before the workers join
    // (declared after them, destroyed first), or the clock could never
    // advance for the threads being joined.
    std::vector<vt::Thread> workers;
    vt::HoldGuard hold(*dom_);  // common virtual start for the whole batch
    workers.reserve(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
      workers.emplace_back(*dom_, [this, &jobs, &result, &results_mu, batch_start, j] {
        Job& job = jobs[j];
        if (options_.sched.dispatch_interval_seconds > 0.0) {
          // Emulate the head node's dispatch loop: decisions are spaced so
          // heartbeats can reflect each placement before the next one.
          dom_->sleep_for(vt::from_seconds(options_.sched.dispatch_interval_seconds *
                                           static_cast<double>(j)));
        }
        const vt::TimePoint submit = dom_->now();
        // Admit: mint the job's causal identity and open its root span on
        // the per-job track. Every span recorded while this context is
        // installed -- head-node queueing, the wire handshake, daemon
        // dispatch, kernels, swaps -- joins the job's cross-process trace.
        const obs::TraceContext admit{
            obs::mint_trace_id(options_.trace_seed, job.id.value), 0};
        obs::ScopedTraceContext scoped_trace(admit);
        const u64 job_tid = obs::kJobTidBase + job.id.value;
        if (obs::TraceRecorder* tr = obs::tracer()) {
          tr->set_thread_name(obs::kRuntimePid, job_tid,
                              "job " + std::to_string(job.id.value));
        }
        obs::SpanScope job_span(job.name.empty() ? "job" : job.name, "cluster",
                                obs::kRuntimePid, job_tid);
        std::optional<obs::SpanScope> queue_span;
        queue_span.emplace("head-queue", "cluster", obs::kRuntimePid, job_tid);
        size_t node_index = 0;
        int gpu_index = 0;
        if (options_.mode == Mode::GpuAware) {
          // Hold at the head node until some *usable* node has a free GPU:
          // bare TORQUE "serializes the execution of concurrent jobs by
          // enqueuing them on the head node and submitting them to the
          // compute nodes only when a GPU becomes available". Dead or
          // suspect nodes are routed around even if their tokens linger.
          std::unique_lock lk(mu_);
          const auto usable_token = [&] {
            for (size_t n = 0; n < tokens_.size(); ++n) {
              if (!tokens_[n].empty() && node_usable(n)) {
                node_index = n;
                return true;
              }
            }
            return false;
          };
          if (options_.directory == nullptr) {
            tokens_cv_.wait(lk, usable_token);
          } else {
            // A node can turn usable again without a token being returned
            // (heartbeats resume, a GPU rejoins) -- nothing notifies then,
            // so re-evaluate on a heartbeat-scale poll as well.
            while (!usable_token()) {
              (void)tokens_cv_.wait_for(
                  lk, options_.directory->config().heartbeat_interval * 4, usable_token);
            }
          }
          gpu_index = tokens_[node_index].back();
          tokens_[node_index].pop_back();
        } else {
          node_index = pick_node_for(job);
        }
        queue_span.reset();  // queue wait ends at the dispatch decision

        Node* node = nodes_[node_index];
        obs::emit_instant("dispatch", "cluster", obs::kRuntimePid, job_tid,
                          node->id().value);
        if (options_.mode == Mode::GpuAware) {
          {
            core::DirectApi api(node->cuda());
            (void)api.set_device(gpu_index);
            job.body(api);
          }  // context torn down before the GPU is handed back
          std::scoped_lock lk(mu_);
          tokens_[node_index].push_back(gpu_index);
          tokens_cv_.notify_all();
        } else {
          core::ConnectOptions options;
          options.job_cost_hint_seconds = job.cost_hint_seconds;
          // Hand the daemon the job's trace with the root span as parent,
          // so daemon-side spans nest under the job in the merged trace.
          options.trace = obs::current_trace();
          core::FrontendApi api(node->runtime().connect(), options);
          job.body(api);
        }

        const double seconds = vt::to_seconds(dom_->now() - submit);
        std::scoped_lock lk(results_mu);
        result.jobs[j] = JobResult{job.id, seconds, node->id()};
      });
    }
  }  // join all job threads

  result.total_seconds = vt::to_seconds(dom_->now() - batch_start);
  double sum = 0.0;
  for (const JobResult& r : result.jobs) sum += r.seconds;
  result.avg_seconds = result.jobs.empty() ? 0.0 : sum / static_cast<double>(result.jobs.size());
  return result;
}

}  // namespace gpuvm::cluster
