// SpanMemory: the host bytes behind one simulated device address span.
//
// Kernel bodies and copies address a span as one contiguous byte range, so
// its host memory must be contiguous too. A malloc'd span is an ordinary
// zeroed heap buffer. A reserved span may be far larger than what is ever
// mapped at once (the paged engine reserves whole entries and maps a few
// pages), so it is an anonymous OS mapping whose pages hold host memory
// only while their device range is mapped: fill_zero() swaps fresh zero
// pages in, fill_poison() swaps in copy-on-write views of one shared poison
// file, which gives the memory back and makes every later read see the
// poison pattern. Ranges that do not cover whole OS pages are written in
// place instead.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace gpuvm::sim {

/// Fill of every unmapped device byte.
inline constexpr std::byte kPoison{0xDE};

class SpanMemory {
 public:
  /// `size` zeroed bytes on the heap (a malloc'd span).
  static SpanMemory heap(u64 size);
  /// `size` poisoned bytes that hold no host memory yet (a reserved span).
  static SpanMemory reserved(u64 size);

  SpanMemory(SpanMemory&& other) noexcept;
  SpanMemory& operator=(SpanMemory&&) = delete;
  SpanMemory(const SpanMemory&) = delete;
  SpanMemory& operator=(const SpanMemory&) = delete;
  ~SpanMemory();

  std::span<std::byte> bytes() { return {base_, size_}; }
  u64 size() const { return size_; }

  /// Sets [offset, offset + len) to zero (a fresh mapping).
  void fill_zero(u64 offset, u64 len);
  /// Sets [offset, offset + len) to kPoison (an unmapped range).
  void fill_poison(u64 offset, u64 len);

 private:
  SpanMemory() = default;
  /// Sets the range to `value`, remapping its whole OS pages of a reserved
  /// span to fresh zero pages (fd < 0) or to the poison file `fd`.
  void fill(u64 offset, u64 len, std::byte value, int fd);

  std::vector<std::byte> heap_;  ///< malloc'd spans
  std::byte* base_ = nullptr;
  u64 size_ = 0;
  u64 os_bytes_ = 0;  ///< length of the OS mapping of a reserved span; 0 = heap
};

}  // namespace gpuvm::sim
