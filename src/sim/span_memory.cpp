#include "sim/span_memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <vector>

namespace gpuvm::sim {

namespace {

u64 os_page() {
  static const u64 page = static_cast<u64>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Length of the shared poison file; longer ranges map it piecewise.
constexpr u64 kPoisonFileBytes = 1ull << 20;

/// A file of kPoisonFileBytes poison bytes shared by every reserved span.
/// Mappings of it stay valid after the descriptor closes.
class PoisonFile {
 public:
  PoisonFile() : fd_(memfd_create("gpuvm-poison", MFD_CLOEXEC)) {
    if (fd_ < 0) return;
    const std::vector<std::byte> fill(kPoisonFileBytes, kPoison);
    if (write(fd_, fill.data(), fill.size()) != static_cast<ssize_t>(fill.size())) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~PoisonFile() {
    if (fd_ >= 0) close(fd_);
  }
  PoisonFile(const PoisonFile&) = delete;
  PoisonFile& operator=(const PoisonFile&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_;
};

/// The shared poison file's descriptor, or -1 when the OS offers none
/// (ranges are then poisoned in place).
int poison_fd() {
  static const PoisonFile file;
  return file.fd();
}

/// Replaces the whole OS pages [begin, end) of the mapping at `base` with
/// fresh zero pages (fd < 0) or with private views of the poison file. The
/// file offset follows the span offset, so neighbouring poisoned pages stay
/// one mapping.
void remap(std::byte* base, u64 begin, u64 end, int fd) {
  for (u64 at = begin; at < end;) {
    const u64 file_offset = fd < 0 ? 0 : at % kPoisonFileBytes;
    const u64 len = fd < 0 ? end - at : std::min(end - at, kPoisonFileBytes - file_offset);
    const int flags = MAP_PRIVATE | MAP_FIXED | (fd < 0 ? MAP_ANONYMOUS : 0);
    if (mmap(base + at, len, PROT_READ | PROT_WRITE, flags, fd,
             static_cast<off_t>(file_offset)) == MAP_FAILED) {
      throw std::bad_alloc();
    }
    at += len;
  }
}

}  // namespace

void SpanMemory::back_heap() {
  heap_.reset(new std::byte[size_]);
  base_ = heap_.get();
}

void SpanMemory::back_os() {
  os_bytes_ = std::max<u64>((size_ + os_page() - 1) / os_page() * os_page(), os_page());
  void* p = mmap(nullptr, os_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
  fill_poison(0, size_);
}

void SpanMemory::release() {
  heap_.reset();
  base_ = nullptr;
}

SpanMemory::SpanMemory(SpanMemory&& other) noexcept
    : heap_(std::move(other.heap_)),
      base_(other.base_),
      size_(other.size_),
      os_bytes_(other.os_bytes_) {
  other.base_ = nullptr;
  other.size_ = 0;
  other.os_bytes_ = 0;
}

SpanMemory::~SpanMemory() {
  if (os_bytes_ != 0) munmap(base_, os_bytes_);
}

void SpanMemory::fill_zero(u64 offset, u64 len) { fill(offset, len, std::byte{0}, -1); }

void SpanMemory::fill_poison(u64 offset, u64 len) { fill(offset, len, kPoison, poison_fd()); }

void SpanMemory::fill(u64 offset, u64 len, std::byte value, int fd) {
  const u64 page = os_page();
  const u64 first = (offset + page - 1) / page * page;
  const u64 last = (offset + len) / page * page;
  // Heap-backed spans, ranges without a whole OS page, and poison without a
  // poison file are written in place.
  if (os_bytes_ == 0 || first >= last || (value == kPoison && fd < 0)) {
    std::fill_n(base_ + offset, len, value);
    return;
  }
  std::fill_n(base_ + offset, first - offset, value);
  remap(base_, first, last, fd);
  std::fill_n(base_ + last, offset + len - last, value);
}

}  // namespace gpuvm::sim
