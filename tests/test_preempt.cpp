// Preemptive scheduling test suite.
//
// Covers the three contracts the time-quantum work must keep:
//   - The anti-thrashing governor is a pure state machine: swap-heavy
//     rotation windows escalate the quantum (counted as trips), calm
//     windows decay it back toward the base, and the ceiling/floor hold.
//   - Differential: a preempted multi-tenant run produces byte-for-byte
//     the same observable tenant outcomes as the non-preemptive baseline
//     (preemption = swap-out + sparse re-upload must be invisible to data).
//   - Determinism: quantum expiry rides the virtual clock, so tq scenarios
//     -- including chaos plans with forced preempt sweeps -- replay
//     bit-identically, and fcfs through the new policy registry stays
//     non-preemptive with byte-identical plans.
#include <gtest/gtest.h>

#include <string>

#include "chaos/fault_plan.hpp"
#include "chaos/harness.hpp"
#include "core/scheduler.hpp"

namespace gpuvm {
namespace {

chaos::ScenarioConfig contended_scenario(u64 seed) {
  chaos::ScenarioConfig config;
  config.nodes = 2;
  config.gpus_per_node = 1;
  config.vgpus_per_device = 1;  // 2 slots for 5 tenants: real contention
  config.tenants = 5;
  config.kernels_per_tenant = 6;
  config.plan.seed = seed;
  return config;
}

}  // namespace

TEST(ThrashGovernorTest, SwapStormEscalatesUntilCeiling) {
  core::SchedulerConfig config;
  config.quantum_seconds = 0.001;
  config.max_quantum_seconds = 0.008;
  config.thrash_bytes_per_bind = 1024.0;
  core::ThrashGovernor governor(config);
  EXPECT_DOUBLE_EQ(governor.quantum_seconds(), 0.001);

  // 10 KiB shipped per bind: well above the 1 KiB threshold, so every
  // window doubles the quantum until the ceiling.
  EXPECT_DOUBLE_EQ(governor.on_window(100 * 1024, 10), 0.002);
  EXPECT_DOUBLE_EQ(governor.on_window(100 * 1024, 10), 0.004);
  EXPECT_DOUBLE_EQ(governor.on_window(100 * 1024, 10), 0.008);
  EXPECT_EQ(governor.trips(), 3u);

  // At the ceiling further storms neither raise the quantum nor count as
  // trips (a trip is an actual escalation, not a threshold crossing).
  EXPECT_DOUBLE_EQ(governor.on_window(100 * 1024, 10), 0.008);
  EXPECT_EQ(governor.trips(), 3u);
}

TEST(ThrashGovernorTest, CalmWindowsDecayBackToBase) {
  core::SchedulerConfig config;
  config.quantum_seconds = 0.001;
  config.max_quantum_seconds = 0.008;
  config.thrash_bytes_per_bind = 1024.0;
  core::ThrashGovernor governor(config);
  (void)governor.on_window(100 * 1024, 10);
  (void)governor.on_window(100 * 1024, 10);
  (void)governor.on_window(100 * 1024, 10);
  ASSERT_DOUBLE_EQ(governor.quantum_seconds(), 0.008);

  // One calm window is not enough (hysteresis); the second decays a step.
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.008);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.004);
  // A storm in between resets the calm streak.
  EXPECT_DOUBLE_EQ(governor.on_window(100 * 1024, 10), 0.008);
  EXPECT_EQ(governor.trips(), 4u);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.008);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.004);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.004);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.002);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.002);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.001);
  // At the base, calm windows are a no-op forever after.
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.001);
  EXPECT_DOUBLE_EQ(governor.on_window(0, 5), 0.001);
}

TEST(ThrashGovernorTest, ZeroBindWindowStillMeasuresPerBindTraffic) {
  core::SchedulerConfig config;
  config.quantum_seconds = 0.001;
  config.max_quantum_seconds = 0.008;
  config.thrash_bytes_per_bind = 1024.0;
  core::ThrashGovernor governor(config);
  // binds_delta == 0 divides by 1 instead of faulting: the whole delta
  // counts against the threshold.
  EXPECT_DOUBLE_EQ(governor.on_window(2048, 0), 0.002);
  EXPECT_EQ(governor.trips(), 1u);
}

TEST(PreemptionDifferentialTest, PreemptedRunMatchesUnpreemptedByteForByte) {
  // Same tenants, same seed, no faults: once under non-preemptive FCFS,
  // once under TQ with a quantum short enough to force many rotations.
  // Preemption must be invisible to application data -- every tenant's
  // device bytes match its host mirror in both runs, and per-tenant
  // outcomes are identical.
  chaos::ScenarioConfig baseline = contended_scenario(42);
  const chaos::ScenarioResult fcfs = chaos::run_scenario(baseline);

  chaos::ScenarioConfig preemptive = contended_scenario(42);
  preemptive.sched_policy = "tq";
  preemptive.quantum_seconds = 0.000097;  // odd: off every sleep granularity
  const chaos::ScenarioResult tq = chaos::run_scenario(preemptive);

  EXPECT_EQ(fcfs.preemptions, 0u);
  EXPECT_GT(tq.preemptions, 0u) << "quantum never expired: the test is vacuous";
  ASSERT_EQ(fcfs.outcomes.size(), tq.outcomes.size());
  for (size_t i = 0; i < fcfs.outcomes.size(); ++i) {
    EXPECT_EQ(fcfs.outcomes[i], tq.outcomes[i]) << "tenant " << i;
    EXPECT_EQ(tq.outcomes[i].final_status, Status::Ok) << "tenant " << i;
    EXPECT_TRUE(tq.outcomes[i].data_ok) << "tenant " << i;
  }
  EXPECT_TRUE(fcfs.violations.empty());
  EXPECT_TRUE(tq.violations.empty());
}

TEST(PreemptionDeterminismTest, TqChaosSoakReplaysBitIdentical) {
  // Random fault plans plus forced preempt sweeps under TQ: two runs of
  // the same config must match bit-for-bit (outcomes, makespan, event log,
  // counters -- including sched.preemptions). CI extends this sweep to 20
  // seeds under ASan/TSan; three seeds keep the tier-1 suite fast.
  for (const u64 seed : {3ull, 9ull, 17ull}) {
    chaos::ScenarioConfig config = contended_scenario(seed);
    config.tenants = 4;
    config.sched_policy = "tq";
    config.quantum_seconds = 0.000497;
    config.plan = chaos::FaultPlan::random(seed, config.nodes, config.gpus_per_node,
                                           /*event_count=*/6, vt::from_millis(30.0));
    for (int p = 0; p < 2; ++p) {
      chaos::FaultEvent ev;
      ev.kind = chaos::FaultKind::Preempt;
      ev.at = vt::from_millis(5.0 + 9.0 * p);
      ev.node = static_cast<int>((seed + static_cast<u64>(p)) % 2);
      config.plan.add(ev);
    }
    const chaos::ScenarioResult first = chaos::run_scenario(config);
    const chaos::ScenarioResult replay = chaos::run_scenario(config);
    EXPECT_TRUE(first.deterministic_equal(replay))
        << "seed " << seed << ":\n" << first.diff(replay);
  }
}

TEST(PreemptionDeterminismTest, FcfsIgnoresPreemptEventsAndStaysDeterministic) {
  // The fcfs baseline through the new policy registry: preempt sweeps are
  // typed no-ops (ErrorNotSupported inside the runtime), nothing is ever
  // preempted, and the run replays bit-identically.
  chaos::ScenarioConfig config = contended_scenario(7);
  for (int p = 0; p < 2; ++p) {
    chaos::FaultEvent ev;
    ev.kind = chaos::FaultKind::Preempt;
    ev.at = vt::from_millis(3.0 + 4.0 * p);
    ev.node = p;
    config.plan.add(ev);
  }
  const chaos::ScenarioResult first = chaos::run_scenario(config);
  const chaos::ScenarioResult replay = chaos::run_scenario(config);
  EXPECT_EQ(first.preemptions, 0u);
  EXPECT_EQ(first.chaos_events, 2u);  // the sweeps still execute as events
  EXPECT_TRUE(first.violations.empty());
  for (const auto& outcome : first.outcomes) {
    EXPECT_EQ(outcome.final_status, Status::Ok);
    EXPECT_TRUE(outcome.data_ok);
  }
  EXPECT_TRUE(first.deterministic_equal(replay)) << first.diff(replay);
}

TEST(PreemptionChaosTest, PreemptSweepRevokesBindingsWithoutDataLoss) {
  // Forced sweeps under TQ on a contended cluster: bindings are revoked
  // mid-pipeline (dirty intervals swap out, contexts re-queue) and every
  // tenant still finishes with verified data.
  chaos::ScenarioConfig config = contended_scenario(21);
  config.sched_policy = "tq";
  for (int p = 0; p < 3; ++p) {
    chaos::FaultEvent ev;
    ev.kind = chaos::FaultKind::Preempt;
    ev.at = vt::from_millis(2.0 + 3.0 * p);
    ev.node = p % 2;
    config.plan.add(ev);
  }
  const chaos::ScenarioResult result = chaos::run_scenario(config);
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_TRUE(result.violations.empty());
  for (const auto& outcome : result.outcomes) {
    EXPECT_EQ(outcome.final_status, Status::Ok) << "tenant " << outcome.tenant;
    EXPECT_TRUE(outcome.data_ok) << "tenant " << outcome.tenant;
  }
}

}  // namespace gpuvm
