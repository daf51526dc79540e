#include "core/sched_policy.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "core/context.hpp"

namespace gpuvm::core {

namespace {

// ---- Built-in policies ------------------------------------------------------
//
// The four non-preemptive policies reproduce the pre-PR8 priority_of()
// switch branch for branch: selecting "fcfs" by name makes
// scheduling decisions bit-identical to the old closed enum (the chaos
// determinism suite holds us to that).

class FcfsPolicy : public SchedulingPolicy {
 public:
  const char* name() const override { return "fcfs"; }
  double priority(const Context& ctx) const override {
    return static_cast<double>(ctx.arrival.count());
  }
};

class SjfPolicy : public SchedulingPolicy {
 public:
  const char* name() const override { return "sjf"; }
  double priority(const Context& ctx) const override {
    // Unknown hints (<= 0) schedule after every profiled job.
    return ctx.job_cost_hint_seconds > 0.0 ? ctx.job_cost_hint_seconds
                                           : std::numeric_limits<double>::max();
  }
};

class CreditPolicy : public SchedulingPolicy {
 public:
  const char* name() const override { return "credit"; }
  double priority(const Context& ctx) const override {
    // Fair sharing: contexts that consumed the least GPU time first;
    // explicit credits act as a bonus.
    return ctx.gpu_time_used_seconds - ctx.credits;
  }
};

class DeadlinePolicy : public SchedulingPolicy {
 public:
  const char* name() const override { return "deadline"; }
  double priority(const Context& ctx) const override {
    // Earliest deadline first; contexts without a deadline yield to any
    // context that has one.
    return ctx.deadline_seconds > 0.0 ? ctx.deadline_seconds
                                      : std::numeric_limits<double>::max();
  }
};

/// Time-quantum round-robin: the least-recently-served waiter goes first.
/// A context that has never held a vGPU orders by arrival, strictly ahead
/// of every context that has (the large negative offset keeps the two
/// groups disjoint for any plausible virtual timestamp).
class TqRoundRobinPolicy : public SchedulingPolicy {
 public:
  const char* name() const override { return "tq"; }
  bool preemptive() const override { return true; }
  double priority(const Context& ctx) const override {
    const auto it = last_service_ns_.find(ctx.id.value);
    if (it != last_service_ns_.end()) return static_cast<double>(it->second);
    return static_cast<double>(ctx.arrival.count()) - 1e18;
  }
  void on_bind(const Context& ctx, vt::TimePoint now) override {
    last_service_ns_[ctx.id.value] = now.count();
  }
  void on_preempt(const Context& ctx, vt::TimePoint now) override {
    last_service_ns_[ctx.id.value] = now.count();
  }

 private:
  std::map<u64, i64> last_service_ns_;
};

/// Deficit fair share: like "credit" (least GPU seconds minus credits
/// first) but preemptive, so a long kernel burst cannot starve the other
/// tenants of their share -- quantum expiry returns the deficit leader to
/// the head of the queue.
class FairSharePolicy : public SchedulingPolicy {
 public:
  const char* name() const override { return "fair"; }
  bool preemptive() const override { return true; }
  double priority(const Context& ctx) const override {
    return ctx.gpu_time_used_seconds - ctx.credits;
  }
};

// ---- Built-in table ---------------------------------------------------------

template <typename Policy>
std::unique_ptr<SchedulingPolicy> create() {
  return std::make_unique<Policy>();
}

using Factory = std::unique_ptr<SchedulingPolicy> (*)();

/// The fixed name -> factory table (std::map keeps the names sorted).
const std::map<std::string, Factory>& table() {
  static const std::map<std::string, Factory> t{
      {"fcfs", create<FcfsPolicy>},
      {"sjf", create<SjfPolicy>},
      {"credit", create<CreditPolicy>},
      {"deadline", create<DeadlinePolicy>},
      {"tq", create<TqRoundRobinPolicy>},
      {"fair", create<FairSharePolicy>},
  };
  return t;
}

}  // namespace

StatusOr<std::unique_ptr<SchedulingPolicy>> make_scheduling_policy(const std::string& name) {
  const auto it = table().find(name);
  if (it == table().end()) return Status::ErrorInvalidValue;
  return it->second();
}

std::vector<std::string> scheduling_policy_names() {
  std::vector<std::string> names;
  names.reserve(table().size());
  for (const auto& [name, factory] : table()) names.push_back(name);
  return names;
}

}  // namespace gpuvm::core
