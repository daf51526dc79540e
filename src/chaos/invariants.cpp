#include "chaos/invariants.hpp"

#include <sstream>

namespace gpuvm::chaos {

std::vector<std::string> check_steady(const std::vector<NodeTarget>& targets) {
  std::vector<std::string> violations;
  for (const NodeTarget& node : targets) {
    for (const auto& slot : node.runtime->scheduler().slots_snapshot()) {
      if (!slot.alive && slot.bound.valid()) {
        std::ostringstream os;
        os << node.name << ": context " << slot.bound.value << " still bound to dead vGPU #"
           << slot.index << " (gpu " << slot.gpu.value << ")";
        violations.push_back(os.str());
      }
    }
    for (GpuId id : node.machine->gpus()) {
      const sim::SimGpu* gpu = node.machine->gpu(id);
      if (gpu == nullptr || !gpu->healthy()) {
        std::ostringstream os;
        os << node.name << ": gpus() lists unhealthy device " << id.value;
        violations.push_back(os.str());
      }
    }
  }
  return violations;
}

std::vector<std::string> check_quiescent(const std::vector<NodeTarget>& targets) {
  std::vector<std::string> violations = check_steady(targets);
  for (const NodeTarget& node : targets) {
    cudart::CudaRt& rt = node.runtime->cudart();
    const auto all = node.machine->all_gpus();
    for (size_t i = 0; i < all.size(); ++i) {
      const sim::SimGpu* gpu = node.machine->gpu(all[i]);
      // Dead devices legitimately hold orphaned blocks (their teardown never
      // ran, as with a real hardware loss) -- only healthy devices must
      // balance.
      if (gpu == nullptr || !gpu->healthy()) continue;
      const u64 live = gpu->live_allocation_count();
      const u64 contexts = static_cast<u64>(rt.contexts_on_device(static_cast<int>(i)));
      if (live != contexts) {
        std::ostringstream os;
        os << node.name << ": device " << all[i].value << " accounting imbalance: " << live
           << " live allocations vs " << contexts
           << " resident contexts (only reservation slabs should remain at quiescence)";
        violations.push_back(os.str());
      }
      // Slabs are charged at the allocator's 256-byte granularity.
      const u64 slab = (rt.context_reservation_bytes() + 255) / 256 * 256;
      const u64 mapped = node.runtime->memory().resident_bytes_on(all[i]);
      if (gpu->used_bytes() != mapped + contexts * slab) {
        std::ostringstream os;
        os << node.name << ": device " << all[i].value << " charges " << gpu->used_bytes()
           << " bytes vs " << mapped << " mapped by the memory manager + " << contexts
           << " reservation slabs of " << slab;
        violations.push_back(os.str());
      }
    }
    if (const u64 bad = node.runtime->memory().stats().residency_violations; bad != 0) {
      std::ostringstream os;
      os << node.name << ": " << bad
         << " paged entries had device-dirty bytes outside their mapped pages";
      violations.push_back(os.str());
    }
  }
  return violations;
}

}  // namespace gpuvm::chaos
