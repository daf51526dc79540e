// SpanMemory: the host bytes behind one simulated device address span.
//
// Kernel bodies and copies address a span as one contiguous byte range, so
// its host memory must be contiguous too. A span starts with no host memory
// (every byte is poison); its owner picks the backing when it first needs
// bytes:
//  - back_heap(): an ordinary heap buffer, for a span mapped whole at once
//    (a malloc, or an entry mapped as one page); release() gives it back
//    when the whole span is unmapped again;
//  - back_os(): an anonymous OS mapping whose pages hold host memory only
//    while their device range is mapped (the paged engine reserves whole
//    entries and maps a few pages): fill_zero() swaps fresh zero pages in,
//    fill_poison() swaps in copy-on-write views of one shared poison file,
//    which gives the memory back and makes every later read see the poison
//    pattern. Ranges that do not cover whole OS pages are written in place
//    instead. The span keeps this mapping until it is destroyed.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "common/types.hpp"

namespace gpuvm::sim {

/// Fill of every unmapped device byte.
inline constexpr std::byte kPoison{0xDE};

class SpanMemory {
 public:
  /// `size` poisoned bytes that hold no host memory yet.
  explicit SpanMemory(u64 size) : size_(size) {}
  SpanMemory(SpanMemory&& other) noexcept;
  SpanMemory& operator=(SpanMemory&&) = delete;
  SpanMemory(const SpanMemory&) = delete;
  SpanMemory& operator=(const SpanMemory&) = delete;
  ~SpanMemory();

  /// The whole span; only valid once it holds host memory.
  std::span<std::byte> bytes() { return {base_, size_}; }
  u64 size() const { return size_; }

  /// Whether the span holds host memory, and whether that is a heap buffer.
  bool backed() const { return base_ != nullptr; }
  bool on_heap() const { return heap_ != nullptr; }
  /// Gives a span with no host memory an uninitialised heap buffer.
  void back_heap();
  /// Gives a span with no host memory a fully poisoned OS mapping.
  void back_os();
  /// Gives the heap buffer back: the span holds no host memory again.
  void release();

  /// Sets [offset, offset + len) to zero (a fresh mapping).
  void fill_zero(u64 offset, u64 len);
  /// Sets [offset, offset + len) to kPoison (an unmapped range).
  void fill_poison(u64 offset, u64 len);

 private:
  /// Sets the range to `value`, remapping its whole OS pages of an OS-
  /// backed span to fresh zero pages (fd < 0) or to the poison file `fd`.
  void fill(u64 offset, u64 len, std::byte value, int fd);

  std::unique_ptr<std::byte[]> heap_;  ///< back_heap()
  std::byte* base_ = nullptr;          ///< null: no host memory, all poison
  u64 size_ = 0;
  u64 os_bytes_ = 0;  ///< length of the OS mapping; 0 = heap or none
};

}  // namespace gpuvm::sim
