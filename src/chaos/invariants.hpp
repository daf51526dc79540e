// Chaos invariants: properties that must hold no matter which faults fired.
//
// Two strengths. *Steady* invariants are safe at any instant the chaos
// thread can observe (right after applying an event):
//   - no context is bound to a dead vGPU (the scheduler eagerly unbinds on
//     device loss),
//   - SimMachine::gpus() lists only healthy devices.
// *Quiescent* invariants additionally require the scenario to have drained
// (no in-flight application work): device-memory accounting must balance --
// on every healthy device the only live spans left are the CUDA per-context
// reservation slabs, one per context resident on that device, and the bytes
// the device charges are exactly the memory manager's mapped pages there
// plus those slabs. The memory manager must also never have seen a paged
// entry with device-dirty bytes outside its mapped pages.
#pragma once

#include <string>
#include <vector>

#include "chaos/chaos_engine.hpp"

namespace gpuvm::chaos {

/// Returns violation descriptions (empty = invariants hold).
std::vector<std::string> check_steady(const std::vector<NodeTarget>& targets);

/// Steady checks plus quiescent memory-accounting balance. Only valid when
/// no application work is in flight (after Runtime::drain()).
std::vector<std::string> check_quiescent(const std::vector<NodeTarget>& targets);

}  // namespace gpuvm::chaos
