// Allocation counting for tests that promise a path never allocates.
//
// alloc_count.cpp replaces the global operator new/delete family (linked
// only into the tests that include this header); while counting is armed
// every allocation through operator new is counted.
#pragma once

#include <cstddef>

namespace gpuvm::test {

/// Zeroes the count and starts counting allocations.
void start_counting_allocs();
/// Stops counting and returns the allocations made since the start.
std::size_t stop_counting_allocs();

}  // namespace gpuvm::test
