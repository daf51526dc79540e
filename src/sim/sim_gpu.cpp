#include "sim/sim_gpu.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpuvm::sim {

namespace {
// Device address spaces start at a nonzero base so 0 stays a null pointer;
// each GPU gets a distinct base so cross-device pointer mixups are caught.
constexpr u64 kAddressStride = 1ull << 40;
/// reserve() hands out addresses from the upper half of a device's stride,
/// far above any malloc placement.
constexpr u64 kReserveBase = kAddressStride / 2;
/// Alignment of reserved spans (the allocator's alignment).
constexpr u64 kSpanAlign = 256;

obs::Histogram& kernel_seconds_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kGpuKernelSeconds, obs::default_seconds_edges());
  return h;
}

obs::Histogram& transfer_bytes_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kGpuTransferBytes, obs::default_bytes_edges());
  return h;
}

}  // namespace

SimGpu::SimGpu(GpuId id, GpuSpec spec, SimParams params, vt::Domain& dom)
    : id_(id),
      spec_(std::move(spec)),
      params_(params),
      dom_(&dom),
      allocator_(kAddressStride * id.value, spec_.memory_bytes / kSpanAlign * kSpanAlign),
      next_reserve_(kAddressStride * id.value + kReserveBase),
      compute_(dom),
      copy_(dom) {
  if (obs::TraceRecorder* tr = obs::tracer()) {
    tr->set_process_name(id_.value,
                         "GPU " + std::to_string(id_.value) + " (" + spec_.model + ")");
    tr->set_thread_name(id_.value, obs::kComputeEngineTid, "compute engine");
    tr->set_thread_name(id_.value, obs::kCopyEngineTid, "copy engine");
  }
}

Status SimGpu::check_healthy_and_count() {
  if (!healthy()) return Status::ErrorDeviceUnavailable;
  // Claim one unit of the armed countdown with a CAS. A plain fetch_sub
  // double-fired under concurrency: several racing ops could each observe a
  // negative result and call inject_failure(), and the counter drifted ever
  // more negative, which a later fail_after_ops() could misread. With the
  // CAS, exactly one op wins the 1 -> 0 transition and fires.
  i64 cur = fail_countdown_.load(std::memory_order_acquire);
  while (cur > 0) {
    if (fail_countdown_.compare_exchange_weak(cur, cur - 1, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      if (cur == 1) {
        inject_failure();
        // Surface the self-failure to the owning machine (topology update +
        // listener fan-out). No device lock is held here.
        if (on_self_failure_) on_self_failure_(id_);
        return Status::ErrorDeviceUnavailable;
      }
      return Status::Ok;
    }
  }
  // cur == 0: the budget is exhausted and some op is firing (or has fired)
  // the failure; this op must not succeed after it.
  if (cur == 0) return Status::ErrorDeviceUnavailable;
  return Status::Ok;  // disarmed
}

bool SimGpu::claim_alloc_fault() {
  i64 pending = alloc_fault_countdown_.load(std::memory_order_acquire);
  while (pending > 0) {
    if (alloc_fault_countdown_.compare_exchange_weak(
            pending, pending - 1, std::memory_order_acq_rel, std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

Result<DevicePtr> SimGpu::malloc(u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  std::scoped_lock lock(mem_mu_);
  // Allocation-failure pulse (chaos injection): claim one forced failure.
  if (claim_alloc_fault()) {
    ++stats_.alloc_faults;
    return Status::ErrorMemoryAllocation;
  }
  const auto addr = allocator_.allocate(size);
  if (!addr.has_value()) return Status::ErrorMemoryAllocation;
  // The span sits at its only chunk's placement and is mapped whole.
  const u64 bytes = allocator_.allocation_size(*addr).value();
  auto span = std::make_unique<Span>(Span{SpanMemory(bytes), {}});
  span->chunks.emplace(0, Chunk{bytes, *addr});
  span->memory.back_heap();
  span->memory.fill_zero(0, bytes);
  spans_.emplace(*addr, std::move(span));
  ++stats_.mallocs;
  return *addr;
}

Status SimGpu::free(DevicePtr ptr) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  std::scoped_lock lock(mem_mu_);
  const auto it = spans_.find(ptr);
  if (it == spans_.end()) return Status::ErrorInvalidDevicePointer;
  for (const auto& [offset, chunk] : it->second->chunks) (void)allocator_.release(chunk.phys);
  spans_.erase(it);
  ++stats_.frees;
  return Status::Ok;
}

Result<DevicePtr> SimGpu::reserve(u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (size == 0) return Status::ErrorInvalidValue;
  std::scoped_lock lock(mem_mu_);
  const u64 bytes = (size + kSpanAlign - 1) / kSpanAlign * kSpanAlign;
  const DevicePtr addr = next_reserve_;
  // One alignment unit of guard keeps a one-past-the-end pointer out of the
  // next span.
  next_reserve_ += bytes + kSpanAlign;
  // Unmapped bytes read as poison: a kernel that reads a page nobody paged
  // in sees this instead of plausible data. The span ends at `size`, so an
  // entry mapped as one page maps the whole span.
  spans_.emplace(addr, std::make_unique<Span>(Span{SpanMemory(size), {}}));
  return addr;
}

Status SimGpu::map(DevicePtr ptr, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  std::scoped_lock lock(mem_mu_);
  u64 offset = 0;
  Span* span = locate_locked(ptr, &offset);
  if (span == nullptr) return Status::ErrorInvalidDevicePointer;
  if (size == 0 || offset + size > span->memory.size()) return Status::ErrorInvalidValue;
  // No overlap with a mapped chunk: the one starting at or after `offset`
  // must start past the range, the one before must end at or before it.
  auto next = span->chunks.lower_bound(offset);
  if (next != span->chunks.end() && next->first < offset + size) return Status::ErrorInvalidValue;
  if (next != span->chunks.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second.size > offset) return Status::ErrorInvalidValue;
  }
  if (claim_alloc_fault()) {
    ++stats_.alloc_faults;
    return Status::ErrorMemoryAllocation;
  }
  const auto phys = allocator_.allocate(size);
  if (!phys.has_value()) return Status::ErrorMemoryAllocation;
  span->chunks.emplace(offset, Chunk{size, *phys});
  if (!span->memory.backed()) {
    // A span mapped whole at once (an entry mapped as one page) is a plain
    // heap buffer while mapped, like a malloc. One mapped piecewise needs
    // the OS mapping, whose pages hold memory only while mapped.
    if (offset == 0 && size == span->memory.size()) {
      span->memory.back_heap();
    } else {
      span->memory.back_os();
    }
  }
  span->memory.fill_zero(offset, size);
  return Status::Ok;
}

Status SimGpu::unmap(DevicePtr ptr, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  std::scoped_lock lock(mem_mu_);
  u64 offset = 0;
  Span* span = locate_locked(ptr, &offset);
  if (span == nullptr) return Status::ErrorInvalidDevicePointer;
  // The range must be exactly a run of back-to-back chunks.
  const auto first = span->chunks.find(offset);
  auto last = first;
  u64 end = offset;
  while (last != span->chunks.end() && last->first == end && end < offset + size) {
    end += last->second.size;
    ++last;
  }
  if (first == span->chunks.end() || end != offset + size) return Status::ErrorInvalidValue;
  for (auto it = first; it != last; ++it) (void)allocator_.release(it->second.phys);
  span->chunks.erase(first, last);
  if (span->memory.on_heap()) {
    span->memory.release();  // a heap span is mapped whole: all of it went
  } else {
    span->memory.fill_poison(offset, size);
  }
  return Status::Ok;
}

SimGpu::Span* SimGpu::locate_locked(DevicePtr addr, u64* offset) {
  return const_cast<Span*>(std::as_const(*this).locate_locked(addr, offset));
}

const SimGpu::Span* SimGpu::locate_locked(DevicePtr addr, u64* offset) const {
  auto it = spans_.upper_bound(addr);
  if (it == spans_.begin()) return nullptr;
  --it;
  const u64 start = it->first;
  const u64 size = it->second->memory.size();
  if (addr < start || addr >= start + size) return nullptr;
  *offset = addr - start;
  return it->second.get();
}

std::span<std::byte> SimGpu::mapped_bytes_locked(DevicePtr addr, u64 size, Status* status) {
  u64 offset = 0;
  Span* span = locate_locked(addr, &offset);
  if (span == nullptr) {
    *status = Status::ErrorInvalidDevicePointer;
    return {};
  }
  if (offset + size > span->memory.size()) {
    *status = Status::ErrorInvalidValue;
    return {};
  }
  // Walk the chunks from the one holding `offset`; they must tile the range.
  auto it = span->chunks.upper_bound(offset);
  u64 covered = offset;
  if (it != span->chunks.begin()) {
    --it;
    while (it != span->chunks.end() && it->first <= covered && covered < offset + size) {
      covered = std::max(covered, it->first + it->second.size);
      ++it;
    }
  }
  if (covered < offset + size) {
    *status = Status::ErrorInvalidDevicePointer;  // touches unmapped bytes
    return {};
  }
  *status = Status::Ok;
  return span->memory.bytes().subspan(offset, size);
}

Result<vt::TimePoint> SimGpu::copy_host(CopyDir dir, bool blocking, DevicePtr dev,
                                        std::span<const std::byte> from_host,
                                        std::span<std::byte> to_host, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (dir == CopyDir::kFromDevice && to_host.size() < size) return Status::ErrorInvalidValue;
  {
    std::scoped_lock lock(mem_mu_);
    Status s = Status::Ok;
    const std::span<std::byte> bytes = mapped_bytes_locked(dev, size, &s);
    if (!ok(s)) return s;
    if (dir == CopyDir::kToDevice) {
      std::memcpy(bytes.data(), from_host.data(), size);
      stats_.bytes_to_device += size;
    } else {
      std::memcpy(to_host.data(), bytes.data(), size);
      stats_.bytes_from_device += size;
    }
  }
  static constexpr const char* kSpanNames[2][2] = {{"h2d-async", "h2d"}, {"d2h-async", "d2h"}};
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(transfer_time(spec_, params_, size), 1, 0.0, nullptr, &start);
  obs::emit_span(kSpanNames[dir == CopyDir::kFromDevice][blocking], "xfer", id_.value,
                 obs::kCopyEngineTid, start, done - start, 0, size);
  transfer_bytes_hist().observe(static_cast<double>(size));
  if (!blocking) return done;  // no sleep: the caller overlaps the transfer
  dom_->sleep_until(done);
  if (!healthy()) return Status::ErrorDeviceUnavailable;  // failed mid-transfer
  return done;
}

Status SimGpu::copy_to_device(DevicePtr dst, std::span<const std::byte> src) {
  return copy_host(CopyDir::kToDevice, /*blocking=*/true, dst, src, {}, src.size()).status();
}

Result<vt::TimePoint> SimGpu::copy_to_device_async(DevicePtr dst,
                                                   std::span<const std::byte> src) {
  return copy_host(CopyDir::kToDevice, /*blocking=*/false, dst, src, {}, src.size());
}

Status SimGpu::copy_from_device(std::span<std::byte> dst, DevicePtr src, u64 size) {
  return copy_host(CopyDir::kFromDevice, /*blocking=*/true, src, {}, dst, size).status();
}

Result<vt::TimePoint> SimGpu::copy_from_device_async(std::span<std::byte> dst, DevicePtr src,
                                                     u64 size) {
  return copy_host(CopyDir::kFromDevice, /*blocking=*/false, src, {}, dst, size);
}

Status SimGpu::copy_device_to_device(DevicePtr dst, DevicePtr src, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  {
    std::scoped_lock lock(mem_mu_);
    Status s = Status::Ok;
    const std::span<std::byte> from = mapped_bytes_locked(src, size, &s);
    if (!ok(s)) return s;
    const std::span<std::byte> to = mapped_bytes_locked(dst, size, &s);
    if (!ok(s)) return s;
    std::memmove(to.data(), from.data(), size);
  }
  // On-device copies run at device-memory bandwidth (read + write).
  const double seconds = 2.0 * static_cast<double>(size) *
                         static_cast<double>(params_.mem_scale) /
                         (spec_.mem_bandwidth_gbs * 1e9);
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(vt::from_seconds(seconds), 1, 0.0, nullptr, &start);
  obs::emit_span("d2d", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0, size);
  transfer_bytes_hist().observe(static_cast<double>(size));
  dom_->sleep_until(done);
  if (!healthy()) return Status::ErrorDeviceUnavailable;
  return Status::Ok;
}

Status SimGpu::copy_from_peer(DevicePtr dst, SimGpu& peer, DevicePtr src, u64 size) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (!peer.healthy()) return Status::ErrorDeviceUnavailable;
  {
    // Pull the bytes: read from the peer's backing, write into ours.
    std::vector<std::byte> staging(size);
    if (const Status s = peer.peek(staging, src, size); !ok(s)) return s;
    std::scoped_lock lock(mem_mu_);
    Status s = Status::Ok;
    const std::span<std::byte> bytes = mapped_bytes_locked(dst, size, &s);
    if (!ok(s)) return s;
    std::memcpy(bytes.data(), staging.data(), size);
  }
  // One DMA hop at PCIe speed (GPUDirect peer-to-peer), vs. two for a
  // bounce through host memory.
  vt::TimePoint start{};
  const vt::TimePoint done =
      copy_.occupy(transfer_time(spec_, params_, size), 1, 0.0, nullptr, &start);
  obs::emit_span("peer", "xfer", id_.value, obs::kCopyEngineTid, start, done - start, 0, size);
  transfer_bytes_hist().observe(static_cast<double>(size));
  dom_->sleep_until(done);
  if (!healthy()) return Status::ErrorDeviceUnavailable;
  return Status::Ok;
}

Status SimGpu::peek(std::span<std::byte> dst, DevicePtr src, u64 size) const {
  if (dst.size() < size) return Status::ErrorInvalidValue;
  std::scoped_lock lock(mem_mu_);
  Status s = Status::Ok;
  const std::span<std::byte> bytes =
      const_cast<SimGpu*>(this)->mapped_bytes_locked(src, size, &s);
  if (!ok(s)) return s;
  std::memcpy(dst.data(), bytes.data(), size);
  return Status::Ok;
}

Status SimGpu::poke(DevicePtr dst, std::span<const std::byte> src) {
  std::scoped_lock lock(mem_mu_);
  Status s = Status::Ok;
  const std::span<std::byte> bytes = mapped_bytes_locked(dst, src.size(), &s);
  if (!ok(s)) return s;
  std::memcpy(bytes.data(), src.data(), src.size());
  return Status::Ok;
}

Status SimGpu::launch(const KernelDef& def, const LaunchConfig& config,
                      const std::vector<KernelArg>& args) {
  if (const Status s = check_healthy_and_count(); !ok(s)) return s;
  if (config.grid.total() == 0 || config.block.total() == 0 ||
      config.block.total() > 1024) {
    return Status::ErrorInvalidConfiguration;
  }

  // Resolve device-pointer arguments to backing spans.
  std::vector<std::span<std::byte>> buffers(args.size());
  {
    std::scoped_lock lock(mem_mu_);
    for (size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_dev_ptr()) continue;
      u64 offset = 0;
      Span* span = locate_locked(args[i].as_ptr(), &offset);
      if (span == nullptr) return Status::ErrorInvalidDevicePointer;
      if (!span->memory.backed()) span->memory.back_os();  // nothing mapped: all poison
      buffers[i] = span->memory.bytes().subspan(offset);
    }
    ++stats_.kernels_launched;
  }

  // Execute the real math. Contexts never share allocations (isolation is
  // what the runtime under test provides), so disjoint spans make this
  // safe to run outside mem_mu_ while other contexts allocate. A body sees
  // its whole span; unmapped pages read as poison.
  KernelExecContext::Resolver resolver = [this](DevicePtr ptr) -> std::span<std::byte> {
    std::scoped_lock lock(mem_mu_);
    u64 offset = 0;
    Span* span = locate_locked(ptr, &offset);
    if (span == nullptr) return {};
    if (!span->memory.backed()) span->memory.back_os();
    return span->memory.bytes().subspan(offset);
  };
  KernelExecContext ctx(config, args, std::move(buffers), std::move(resolver));
  const Status body_status =
      (def.body && params_.execute_kernel_bodies) ? def.body(ctx) : Status::Ok;
  if (!ok(body_status)) {
    std::scoped_lock lock(mem_mu_);
    ++stats_.failed_ops;
    return body_status;
  }

  const KernelCost cost = def.cost ? def.cost(config, args) : KernelCost{};
  bool co_ran = false;
  vt::TimePoint start{};
  const vt::TimePoint done =
      compute_.occupy(kernel_time(spec_, cost), spec_.max_concurrent_kernels,
                      spec_.consolidation_interference, &co_ran, &start);
  obs::emit_span(def.name, "kernel", id_.value, obs::kComputeEngineTid, start, done - start);
  kernel_seconds_hist().observe(vt::to_seconds(done - start));
  dom_->sleep_until(done);
  if (co_ran) {
    std::scoped_lock lock(mem_mu_);
    ++stats_.consolidated_kernels;
  }
  if (!healthy()) return Status::ErrorDeviceUnavailable;  // failed mid-kernel
  return Status::Ok;
}

u64 SimGpu::free_bytes() const {
  std::scoped_lock lock(mem_mu_);
  return allocator_.free_bytes();
}

u64 SimGpu::used_bytes() const {
  std::scoped_lock lock(mem_mu_);
  return allocator_.used_bytes();
}

u64 SimGpu::largest_free_block() const {
  std::scoped_lock lock(mem_mu_);
  return allocator_.largest_free_block();
}

u64 SimGpu::live_allocation_count() const {
  std::scoped_lock lock(mem_mu_);
  return spans_.size();
}

GpuStats SimGpu::stats() const {
  GpuStats out;
  {
    std::scoped_lock lock(mem_mu_);
    out = stats_;
  }
  out.compute_busy_seconds = vt::to_seconds(compute_.busy_total());
  out.copy_busy_seconds = vt::to_seconds(copy_.busy_total());
  return out;
}

bool SimGpu::valid_pointer(DevicePtr ptr) const {
  std::scoped_lock lock(mem_mu_);
  u64 offset = 0;
  return locate_locked(ptr, &offset) != nullptr;
}

void SimGpu::inject_failure() {
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;  // already failed
  {
    std::scoped_lock lock(mem_mu_);
    ++stats_.injected_failures;
  }
  log::info("GPU %llu (%s) failed", static_cast<unsigned long long>(id_.value),
            spec_.model.c_str());
}

void SimGpu::fail_after_ops(u64 n) {
  // Stored as budget + 1 so the CAS in check_healthy_and_count fires on the
  // 1 -> 0 transition: ops 1..n succeed, op n+1 fails the device.
  fail_countdown_.store(static_cast<i64>(n) + 1, std::memory_order_release);
}

void SimGpu::fail_next_allocs(u64 n) {
  alloc_fault_countdown_.store(static_cast<i64>(n), std::memory_order_release);
}

void SimGpu::mark_removed() { failed_.store(true, std::memory_order_release); }

}  // namespace gpuvm::sim
