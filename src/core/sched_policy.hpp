// Pluggable scheduling / preemption policies.
//
// Replaces the closed PolicyKind enum: a policy is an object implementing
// SchedulingPolicy, listed in a fixed factory table under a short name
// ("fcfs", "tq", ...) and selected by name from SchedulerConfig, the gpuvmd
// and gpuvm_chaos command lines, or the chaos harness. The Scheduler asks
// the policy for a priority key when matching waiters to vGPU slots, and --
// for preemptive policies -- rotates device access on a time quantum:
// preemption swaps the victim's dirty intervals out through the incremental
// swap engine and unbinds it; resume is a sparse re-upload from the
// host_dirty plan at the next launch (both costed, nvshare-style exclusive
// rotation).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/vt.hpp"

namespace gpuvm::core {

struct Context;

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// The table name this policy was created under.
  virtual const char* name() const = 0;

  /// Priority key for waiter ordering: smaller = scheduled earlier.
  virtual double priority(const Context& ctx) const = 0;

  /// Preemptive policies bind with a time quantum; on expiry the holder is
  /// swapped out and unbound so the next waiter sees the whole device.
  virtual bool preemptive() const { return false; }

  /// One bound context per physical device. Preemptive policies default to
  /// exclusive rotation (nvshare): each tenant in turn gets the entire GPU
  /// memory for its quantum instead of thrashing a co-resident's working
  /// set through the swap engine at every launch.
  virtual bool exclusive_device() const { return preemptive(); }

  /// Hooks, called by the Scheduler with its lock held.
  virtual void on_bind(const Context& ctx, vt::TimePoint now) {
    (void)ctx;
    (void)now;
  }
  virtual void on_preempt(const Context& ctx, vt::TimePoint now) {
    (void)ctx;
    (void)now;
  }
};

/// Built-in policies, a fixed name table:
///   fcfs     -- arrival order, non-preemptive (the original closed-enum
///               baseline, bit-identical scheduling decisions)
///   sjf      -- shortest job first by the frontend's cost hint
///   credit   -- least GPU time consumed minus credits, non-preemptive
///   deadline -- earliest QoS deadline first
///   tq       -- time-quantum round-robin, preemptive + exclusive
///   fair     -- deficit fair share (credit key), preemptive + exclusive
///
/// Creates a fresh policy instance by name. Unknown names are a typed error
/// (Status::ErrorInvalidValue) so callers surface the mistake instead of
/// silently falling back to FCFS.
StatusOr<std::unique_ptr<SchedulingPolicy>> make_scheduling_policy(const std::string& name);

/// Built-in policy names, sorted (CLI help / error messages).
std::vector<std::string> scheduling_policy_names();

}  // namespace gpuvm::core
