// The benchmark's three tenant workloads and the round runner that drives
// them against the public API: a fresh sim::SimMachine + cudart::CudaRt +
// core::Runtime per round, one vt::Thread per tenant, one
// core::Runtime::connect() connection per job, every call through TimedApi.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "cudart/cudart.hpp"
#include "sim/gpu_spec.hpp"
#include "timed_api.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

/// Node and daemon configuration a round is built from.
struct EnvSpec {
  sim::SimParams params;
  std::vector<sim::GpuSpec> gpus;
  cudart::CudaRtConfig rt_config;
  core::RuntimeConfig config;
};

/// One job a tenant runs: `app` with the given inputs. `due_s` is the
/// modeled time the job is due (open loop: its arrival; closed loop: unused,
/// the job is due when the tenant's previous job completes).
struct JobPlan {
  int app = 0;  ///< index into Scenario::apps
  double due_s = 0.0;
  u64 seed = 1;
  /// Modeled host time the job spends preparing its inputs before its
  /// first call; it adds exactly this much to the job's solo latency.
  double prep_s = 0.0;
};

/// Per-tenant job lists; every tenant is one thread with one connection
/// open at a time.
using Plan = std::vector<std::vector<JobPlan>>;

struct Scenario {
  std::string name;
  bool open_loop = false;
  /// Tenants contend at the same virtual instants (closed loops that all
  /// start at t = 0). By the ROADMAP same-instant-tie defect such a round
  /// need not repeat exactly, even when a second run happens to match the
  /// first, so a traced/untraced difference in it cannot be pinned on
  /// tracing.
  bool same_instant_ties = false;
  /// Jobs execute kernel bodies and check their outputs (AppContext::verify).
  bool verify = false;
  EnvSpec env;
  struct App {
    const workloads::Workload* workload = nullptr;
    double cpu_fraction = 0.0;  ///< AppContext::cpu_fraction of every job
  };
  std::vector<App> apps;
  /// Inputs of one round, derived from the round's seed only.
  std::function<Plan(u64 seed, int tenants)> plan;
};

struct JobRecord {
  int tenant = 0;
  int app = 0;
  double prep_s = 0.0;
  double due_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  bool ok = false;        ///< every call succeeded and the output matched
  bool checked = false;   ///< the job checked its output
  bool verified = false;  ///< the output matched (true when not checked)
};

/// Everything one round produced. `counters` holds per-layer values read
/// from the program's public accessors at round end, keyed by metric name.
struct RoundResult {
  std::vector<JobRecord> jobs;
  double makespan_s = 0.0;
  double wall_s = 0.0;
  u64 calls = 0;
  u64 failed_calls = 0;
  int peak_connections = 0;
  std::map<std::string, double> counters;
  std::vector<double> queue_wait_edges;  ///< sched.queue_wait_seconds histogram
  std::vector<u64> queue_wait_buckets;
  std::vector<Span> spans;  ///< traced rounds only
};

/// Runs one round of `plan` on a fresh node built from `scenario.env`.
/// `max_connections` bounds the tenant threads and open connections; a
/// plan needing more is a benchmark bug and aborts the process.
RoundResult run_round(const Scenario& scenario, const Plan& plan, bool traced,
                      int max_connections);

/// Modeled latency of each of `scenario.apps` run alone on an idle node of
/// the scenario's configuration, with every call traced or not.
std::vector<double> solo_latencies(const Scenario& scenario, bool traced);

/// Looks up a workload by name: "swap-churn", "call-stream" or
/// "paged-sparse". Returns false for an unknown name.
bool find_scenario(const std::string& name, Scenario* out);

/// Correctness pre-pass: every Table-2 app once, kernel bodies executed and
/// outputs verified, on the paper's node.
Scenario verify_scenario();

}  // namespace perfbench
