// FaultPlan: a declarative, seed-driven schedule of fault events.
//
// The chaos layer's contract is *repeatability*: a plan is data (virtual
// times + event descriptions), not code, so the same plan replayed against
// the same scenario produces the same virtual-time event order and the same
// outcome. Plans are either authored by hand (text format below, consumed
// by the gpuvm_chaos tool) or generated from a seed, which is how the soak
// tests sweep the fault space.
//
// Text format, one event per line (# comments, blank lines ignored):
//
//     seed 42
//     at 5ms    device-fail     node=0 gpu=1
//     at 6ms    device-remove   node=0 gpu=0
//     at 8ms    fail-after-ops  node=0 gpu=0 count=50
//     at 9ms    alloc-pulse     node=1 gpu=0 count=4
//     at 10ms   transport-degrade drop=0.3 delay=200us
//     at 20ms   node-crash      node=0
//     at 22ms   transport-heal
//     at 30ms   node-rejoin     node=0 count=2
//     at 40ms   device-add      node=1
//
// Times accept the suffixes us/ms/s and are relative to the moment the
// ChaosEngine starts executing the plan.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/vt.hpp"

namespace gpuvm::chaos {

enum class FaultKind : u8 {
  DeviceFail,         ///< inject_failure on one GPU
  DeviceFailAfterOps, ///< arm SimGpu::fail_after_ops(count)
  DeviceRemove,       ///< hot-remove one GPU
  DeviceAdd,          ///< hot-add a replacement GPU to a node
  NodeCrash,          ///< fail every healthy GPU of a node at once
  NodeRejoin,         ///< hot-add `count` replacement GPUs to a node
  TransportDegrade,   ///< message drops (`drop_rate`) + extra delivery delay
  TransportHeal,      ///< end the transport degrade window
  AllocPulse,         ///< next `count` device maps/mallocs fail (memory pressure)
  Migrate,            ///< live-migrate one job off node `node`. `count` picks
                      ///< the target: 0 = least-loaded peer, n = node n-1.
                      ///< Runs concurrently with later events (mid-migration
                      ///< faults are the interesting interleavings).
  Preempt,            ///< force a preemption sweep on node `node`: every
                      ///< bound context is swapped out and unbound, then the
                      ///< scheduler re-grants by policy priority. No-op under
                      ///< non-preemptive policies (fcfs baseline).
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  vt::Duration at{};  ///< virtual time relative to plan start
  FaultKind kind = FaultKind::DeviceFail;
  int node = 0;       ///< target node index (device/node events)
  int gpu_index = 0;  ///< index into the node's all_gpus() order
  u64 count = 0;      ///< ops / allocs / replacement-GPU count
  double drop_rate = 0.0;  ///< TransportDegrade
  vt::Duration delay{};    ///< TransportDegrade extra delivery delay

  /// One-line rendering (plan text format and event logs).
  std::string describe() const;
};

struct FaultPlan {
  u64 seed = 0;  ///< labels the plan; seeds the transport drop hashes
  std::vector<FaultEvent> events;  ///< kept sorted by `at` (stable)

  /// Inserts keeping `events` sorted by time (stable for equal times).
  void add(FaultEvent ev);

  std::string to_text() const;
  /// Parses the text format; on failure returns nullopt and sets `error`.
  static std::optional<FaultPlan> parse(const std::string& text, std::string* error);

  /// Seed-derived plan mixing device, node and transport faults over
  /// `horizon`, shaped for a `nodes` x `gpus_per_node` cluster. Never
  /// leaves the cluster permanently dark: crashed nodes rejoin and degrade
  /// windows heal before the horizon ends.
  static FaultPlan random(u64 seed, int nodes, int gpus_per_node, int event_count,
                          vt::Duration horizon);
};

}  // namespace gpuvm::chaos
