// Tests for the simulated GPU device (sim/sim_gpu.hpp) and machine.
#include "sim/sim_gpu.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "sim/machine.hpp"

namespace gpuvm::sim {
namespace {

std::span<const std::byte> as_bytes(const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}
std::span<std::byte> as_writable_bytes(std::vector<float>& v) {
  return std::as_writable_bytes(std::span<float>(v));
}

class SimGpuTest : public ::testing::Test {
 protected:
  SimGpuTest() : guard_(dom_), gpu_(GpuId{1}, test_gpu(1 << 20), SimParams{1}, dom_) {}

  vt::Domain dom_;
  vt::AttachGuard guard_;
  SimGpu gpu_;
};

TEST_F(SimGpuTest, MallocCopyRoundTrip) {
  auto ptr = gpu_.malloc(1024 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());

  std::vector<float> src(1024);
  std::iota(src.begin(), src.end(), 0.0f);
  ASSERT_EQ(gpu_.copy_to_device(ptr.value(), as_bytes(src)), Status::Ok);

  std::vector<float> dst(1024, -1.0f);
  ASSERT_EQ(gpu_.copy_from_device(as_writable_bytes(dst), ptr.value(), dst.size() * sizeof(float)),
            Status::Ok);
  EXPECT_EQ(src, dst);
}

TEST_F(SimGpuTest, TransfersTakeModeledTime) {
  auto ptr = gpu_.malloc(1 << 18);
  ASSERT_TRUE(ptr.has_value());
  std::vector<std::byte> buf(1 << 18);
  const vt::TimePoint before = dom_.now();
  ASSERT_EQ(gpu_.copy_to_device(ptr.value(), buf), Status::Ok);
  const vt::Duration took = dom_.now() - before;
  // 256 KiB over 5 GB/s is ~52us, plus 1us fixed latency.
  const vt::Duration expected = transfer_time(gpu_.spec(), gpu_.params(), 1 << 18);
  EXPECT_EQ(took, expected);
  EXPECT_GT(took, vt::from_micros(50));
  EXPECT_LT(took, vt::from_micros(60));
}

TEST_F(SimGpuTest, OutOfMemoryReturnsAllocationError) {
  auto big = gpu_.malloc(1 << 20);
  ASSERT_TRUE(big.has_value());
  auto fail = gpu_.malloc(1);
  EXPECT_EQ(fail.status(), Status::ErrorMemoryAllocation);
  EXPECT_EQ(gpu_.free(big.value()), Status::Ok);
  EXPECT_TRUE(gpu_.malloc(1).has_value());
}

TEST_F(SimGpuTest, InteriorPointerCopyWorks) {
  auto ptr = gpu_.malloc(4096);
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> src{1.f, 2.f, 3.f};
  ASSERT_EQ(gpu_.copy_to_device(ptr.value() + 1024, as_bytes(src)), Status::Ok);
  std::vector<float> dst(3, 0.f);
  ASSERT_EQ(gpu_.copy_from_device(as_writable_bytes(dst), ptr.value() + 1024, sizeof(float) * 3),
            Status::Ok);
  EXPECT_EQ(src, dst);
}

TEST_F(SimGpuTest, OutOfBoundsCopyRejected) {
  auto ptr = gpu_.malloc(1024);
  ASSERT_TRUE(ptr.has_value());
  std::vector<std::byte> big(2048);
  EXPECT_EQ(gpu_.copy_to_device(ptr.value(), big), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.copy_to_device(ptr.value() + 512, std::span(big).first(1024)),
            Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.copy_to_device(kNullDevicePtr, std::span(big).first(16)),
            Status::ErrorInvalidDevicePointer);
}

TEST_F(SimGpuTest, FreeInvalidPointerRejected) {
  EXPECT_EQ(gpu_.free(DevicePtr{123456}), Status::ErrorInvalidDevicePointer);
  auto ptr = gpu_.malloc(256);
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(gpu_.free(ptr.value()), Status::Ok);
  EXPECT_EQ(gpu_.free(ptr.value()), Status::ErrorInvalidDevicePointer);
}

TEST_F(SimGpuTest, KernelExecutesBodyOverDeviceData) {
  KernelDef def;
  def.name = "scale2";
  def.body = [](KernelExecContext& ctx) {
    auto data = ctx.buffer<float>(0);
    const i64 n = ctx.scalar_i64(1);
    for (i64 i = 0; i < n; ++i) data[static_cast<size_t>(i)] *= 2.0f;
    return Status::Ok;
  };
  def.cost = per_thread_cost(1.0, 8.0);

  auto ptr = gpu_.malloc(128 * sizeof(float));
  ASSERT_TRUE(ptr.has_value());
  std::vector<float> src(128, 3.0f);
  ASSERT_EQ(gpu_.copy_to_device(ptr.value(), as_bytes(src)), Status::Ok);

  LaunchConfig config{{1, 1, 1}, {128, 1, 1}};
  ASSERT_EQ(gpu_.launch(def, config, {KernelArg::dev(ptr.value()), KernelArg::i64v(128)}),
            Status::Ok);

  std::vector<float> out(128);
  ASSERT_EQ(gpu_.copy_from_device(as_writable_bytes(out), ptr.value(), out.size() * sizeof(float)),
            Status::Ok);
  for (float v : out) EXPECT_EQ(v, 6.0f);
  EXPECT_EQ(gpu_.stats().kernels_launched, 1u);
}

TEST_F(SimGpuTest, KernelTimeScalesWithLaunchGeometry) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  def.cost = per_thread_cost(1000.0, 0.0);

  const vt::TimePoint t0 = dom_.now();
  ASSERT_EQ(gpu_.launch(def, {{64, 1, 1}, {256, 1, 1}}, {}), Status::Ok);
  const vt::Duration small = dom_.now() - t0;

  const vt::TimePoint t1 = dom_.now();
  ASSERT_EQ(gpu_.launch(def, {{640, 1, 1}, {256, 1, 1}}, {}), Status::Ok);
  const vt::Duration large = dom_.now() - t1;

  // 10x the threads => ~10x the compute time (minus fixed launch overhead).
  const double ratio = static_cast<double>(large.count()) / static_cast<double>(small.count());
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 10.5);
}

TEST_F(SimGpuTest, InvalidLaunchConfigurationsRejected) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  EXPECT_EQ(gpu_.launch(def, {{0, 1, 1}, {32, 1, 1}}, {}), Status::ErrorInvalidConfiguration);
  EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {2048, 1, 1}}, {}), Status::ErrorInvalidConfiguration);
}

TEST_F(SimGpuTest, LaunchWithStalePointerRejected) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  auto ptr = gpu_.malloc(256);
  ASSERT_TRUE(ptr.has_value());
  ASSERT_EQ(gpu_.free(ptr.value()), Status::Ok);
  EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {32, 1, 1}}, {KernelArg::dev(ptr.value())}),
            Status::ErrorInvalidDevicePointer);
}

TEST_F(SimGpuTest, ComputeEngineSerializesKernelsFcfs) {
  KernelDef def;
  def.name = "noop";
  def.body = [](KernelExecContext&) { return Status::Ok; };
  // 100 GFLOPS effective, 1e8 flops => 1ms each.
  def.cost = [](const LaunchConfig&, const std::vector<KernelArg>&) {
    return KernelCost{1e8, 0.0};
  };

  vt::TimePoint end_a{};
  vt::TimePoint end_b{};
  {
    dom_.hold();
    vt::Thread a(dom_, [&] {
      EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {32, 1, 1}}, {}), Status::Ok);
      end_a = dom_.now();
    });
    vt::Thread b(dom_, [&] {
      EXPECT_EQ(gpu_.launch(def, {{1, 1, 1}, {32, 1, 1}}, {}), Status::Ok);
      end_b = dom_.now();
    });
    dom_.unhold();
  }
  // Two 1ms kernels on one compute engine: the later one ends at ~2ms.
  const vt::TimePoint later = std::max(end_a, end_b);
  EXPECT_GE(later, vt::from_millis(2));
  EXPECT_LT(later, vt::from_millis(2.1));
}

TEST_F(SimGpuTest, FailureInjectionFailsAllOps) {
  auto ptr = gpu_.malloc(256);
  ASSERT_TRUE(ptr.has_value());
  gpu_.inject_failure();
  EXPECT_FALSE(gpu_.healthy());
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorDeviceUnavailable);
  EXPECT_EQ(gpu_.free(ptr.value()), Status::ErrorDeviceUnavailable);
  std::vector<std::byte> buf(16);
  EXPECT_EQ(gpu_.copy_to_device(ptr.value(), buf), Status::ErrorDeviceUnavailable);
}

TEST_F(SimGpuTest, FailAfterOpsCountsDown) {
  gpu_.fail_after_ops(2);
  EXPECT_TRUE(gpu_.malloc(16).has_value());
  EXPECT_TRUE(gpu_.malloc(16).has_value());
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorDeviceUnavailable);
  EXPECT_FALSE(gpu_.healthy());
}

// Chaos audit: the fail_after_ops countdown is decremented by every costed
// op from every vt thread concurrently. The 1 -> 0 transition must fire the
// failure exactly once -- no double-fire, no lost budget -- so with a budget
// of 100 ops, exactly 100 succeed no matter how many threads hammer it.
TEST_F(SimGpuTest, FailAfterOpsExactlyOnceUnderConcurrentHammer) {
  constexpr int kThreads = 16;
  constexpr int kAttemptsPerThread = 20;  // 320 attempts >> 100 budget
  constexpr u64 kBudget = 100;
  gpu_.fail_after_ops(kBudget);

  std::atomic<u64> ok{0};
  std::atomic<u64> unavailable{0};
  {
    std::vector<vt::Thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(dom_, [this, &ok, &unavailable] {
        for (int i = 0; i < kAttemptsPerThread; ++i) {
          auto r = gpu_.malloc(16);
          if (r.has_value()) ok.fetch_add(1, std::memory_order_relaxed);
          else if (r.status() == Status::ErrorDeviceUnavailable) {
            unavailable.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }  // joins

  EXPECT_EQ(ok.load(), kBudget);
  EXPECT_EQ(unavailable.load(), static_cast<u64>(kThreads * kAttemptsPerThread) - kBudget);
  EXPECT_FALSE(gpu_.healthy());
  EXPECT_EQ(gpu_.stats().injected_failures, 1u);
  EXPECT_EQ(gpu_.stats().mallocs, kBudget);
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorDeviceUnavailable);
}

TEST_F(SimGpuTest, AllocFaultPulseFailsAllocationsButKeepsDeviceHealthy) {
  gpu_.fail_next_allocs(2);
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorMemoryAllocation);
  EXPECT_EQ(gpu_.malloc(16).status(), Status::ErrorMemoryAllocation);
  EXPECT_TRUE(gpu_.healthy());
  auto ok = gpu_.malloc(16);
  EXPECT_TRUE(ok.has_value()) << to_string(ok.status());
  EXPECT_EQ(gpu_.stats().alloc_faults, 2u);
}

TEST_F(SimGpuTest, PeekPokeBypassTiming) {
  auto ptr = gpu_.malloc(64);
  ASSERT_TRUE(ptr.has_value());
  std::vector<std::byte> src(64, std::byte{0x5a});
  const vt::TimePoint before = dom_.now();
  ASSERT_EQ(gpu_.poke(ptr.value(), src), Status::Ok);
  std::vector<std::byte> dst(64);
  ASSERT_EQ(gpu_.peek(dst, ptr.value(), 64), Status::Ok);
  EXPECT_EQ(dom_.now(), before);
  EXPECT_EQ(src, dst);
}

TEST_F(SimGpuTest, DeviceToDeviceCopy) {
  auto a = gpu_.malloc(256);
  auto b = gpu_.malloc(256);
  ASSERT_TRUE(a && b);
  std::vector<std::byte> src(256, std::byte{7});
  ASSERT_EQ(gpu_.poke(a.value(), src), Status::Ok);
  ASSERT_EQ(gpu_.copy_device_to_device(b.value(), a.value(), 256), Status::Ok);
  std::vector<std::byte> dst(256);
  ASSERT_EQ(gpu_.peek(dst, b.value(), 256), Status::Ok);
  EXPECT_EQ(src, dst);
}

// ---- Reserve / map / unmap ---------------------------------------------------

constexpr u64 kChunk = 64 * 1024;

/// A kernel that records the first byte its pointer argument addresses.
KernelDef probe_kernel(std::byte* seen) {
  KernelDef def;
  def.name = "probe";
  def.body = [seen](KernelExecContext& ctx) {
    *seen = ctx.bytes(0)[0];
    return Status::Ok;
  };
  def.cost = per_thread_cost(1.0, 1.0);
  return def;
}

TEST_F(SimGpuTest, MallocPlacesSpansFirstFit) {
  // malloc is a span mapped whole at its chunk's first-fit placement, so a
  // fixed alloc/free sequence lands at the first-fit offsets from GPU 1's
  // address base, reusing freed holes.
  const DevicePtr base{1ull << 40};
  auto a = gpu_.malloc(1000);
  auto b = gpu_.malloc(5000);
  auto c = gpu_.malloc(300);
  ASSERT_TRUE(a && b && c);
  ASSERT_EQ(gpu_.free(b.value()), Status::Ok);
  auto d = gpu_.malloc(256);
  auto e = gpu_.malloc(4096);
  ASSERT_EQ(gpu_.free(a.value()), Status::Ok);
  auto f = gpu_.malloc(2000);
  auto g = gpu_.malloc(700000);
  ASSERT_TRUE(d && e && f && g);
  EXPECT_EQ(a.value(), base + 0);
  EXPECT_EQ(b.value(), base + 1024);
  EXPECT_EQ(c.value(), base + 6144);
  EXPECT_EQ(d.value(), base + 1024);
  EXPECT_EQ(e.value(), base + 1280);
  EXPECT_EQ(f.value(), base + 6656);
  EXPECT_EQ(g.value(), base + 8704);
  // 400 000 bytes exceed the largest hole although less is in use in total.
  EXPECT_EQ(gpu_.malloc(400000).status(), Status::ErrorMemoryAllocation);
  EXPECT_EQ(gpu_.used_bytes(), 512u + 256 + 4096 + 2048 + 700160);
}

TEST_F(SimGpuTest, ReserveChargesNothingAndMapChargesEachChunk) {
  auto span = gpu_.reserve(4 * kChunk);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(gpu_.used_bytes(), 0u);
  EXPECT_EQ(gpu_.live_allocation_count(), 1u);
  EXPECT_TRUE(gpu_.valid_pointer(span.value() + 3 * kChunk));

  ASSERT_EQ(gpu_.map(span.value(), kChunk), Status::Ok);
  EXPECT_EQ(gpu_.used_bytes(), kChunk);
  ASSERT_EQ(gpu_.map(span.value() + 2 * kChunk, kChunk), Status::Ok);
  EXPECT_EQ(gpu_.used_bytes(), 2 * kChunk);

  // Copies need mapped bytes: into a chunk works, into the hole between
  // the chunks or across its edge does not.
  std::vector<std::byte> buf(1024, std::byte{0x33});
  EXPECT_EQ(gpu_.copy_to_device(span.value() + 2 * kChunk, buf), Status::Ok);
  EXPECT_EQ(gpu_.copy_to_device(span.value() + kChunk, buf), Status::ErrorInvalidDevicePointer);
  EXPECT_EQ(gpu_.copy_to_device(span.value() + kChunk - 512, buf),
            Status::ErrorInvalidDevicePointer);

  ASSERT_EQ(gpu_.free(span.value()), Status::Ok);  // unmaps both chunks
  EXPECT_EQ(gpu_.used_bytes(), 0u);
  EXPECT_EQ(gpu_.live_allocation_count(), 0u);
}

TEST_F(SimGpuTest, MapRunsOutOfMemoryWhileReservedAddressSpaceRemains) {
  // Address space is not capacity: a span four times the device reserves
  // fine, and mapping fails once the 1 MiB device is full.
  auto span = gpu_.reserve(64 * kChunk);
  ASSERT_TRUE(span.has_value());
  for (u64 i = 0; i < 16; ++i) {
    ASSERT_EQ(gpu_.map(span.value() + i * kChunk, kChunk), Status::Ok) << "chunk " << i;
  }
  EXPECT_EQ(gpu_.map(span.value() + 16 * kChunk, kChunk), Status::ErrorMemoryAllocation);
  EXPECT_EQ(gpu_.malloc(1).status(), Status::ErrorMemoryAllocation);
  ASSERT_EQ(gpu_.unmap(span.value() + 3 * kChunk, kChunk), Status::Ok);
  EXPECT_EQ(gpu_.map(span.value() + 16 * kChunk, kChunk), Status::Ok);
}

TEST_F(SimGpuTest, UnmappedBytesArePoisonAndRemappedBytesZero) {
  auto span = gpu_.reserve(2 * kChunk);
  ASSERT_TRUE(span.has_value());
  std::byte seen{0};
  const KernelDef probe = probe_kernel(&seen);
  const LaunchConfig one{{1, 1, 1}, {1, 1, 1}};
  // Never mapped: a kernel reading there sees poison, not plausible data.
  ASSERT_EQ(gpu_.launch(probe, one, {KernelArg::dev(span.value() + kChunk)}), Status::Ok);
  EXPECT_EQ(seen, std::byte{0xDE});

  ASSERT_EQ(gpu_.map(span.value(), 2 * kChunk), Status::Ok);
  std::vector<std::byte> data(2 * kChunk, std::byte{0x11});
  ASSERT_EQ(gpu_.poke(span.value(), data), Status::Ok);
  ASSERT_EQ(gpu_.unmap(span.value(), 2 * kChunk), Status::Ok);
  ASSERT_EQ(gpu_.launch(probe, one, {KernelArg::dev(span.value() + kChunk)}), Status::Ok);
  EXPECT_EQ(seen, std::byte{0xDE});
  std::vector<std::byte> back(16);
  EXPECT_EQ(gpu_.peek(back, span.value(), 16), Status::ErrorInvalidDevicePointer);

  ASSERT_EQ(gpu_.map(span.value() + kChunk, kChunk), Status::Ok);
  ASSERT_EQ(gpu_.peek(back, span.value() + kChunk, 16), Status::Ok);
  EXPECT_EQ(back, std::vector<std::byte>(16, std::byte{0}));
}

TEST_F(SimGpuTest, SpanMappedWholeStartsZeroAndEndsPoisonEveryCycle) {
  // A span mapped whole at once (an entry-engine page) holds host memory
  // only while mapped, like a malloc followed by a free: each map reads
  // zero, each unmap leaves poison behind.
  const u64 size = 2 * kChunk + 100;  // not a multiple of any alignment
  auto span = gpu_.reserve(size);
  ASSERT_TRUE(span.has_value());
  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_EQ(gpu_.map(span.value(), size), Status::Ok);
    std::vector<std::byte> back(size, std::byte{0x77});
    ASSERT_EQ(gpu_.peek(back, span.value(), size), Status::Ok);
    EXPECT_EQ(back, std::vector<std::byte>(size, std::byte{0})) << "cycle " << cycle;
    ASSERT_EQ(gpu_.poke(span.value(), std::vector<std::byte>(size, std::byte{0x11})),
              Status::Ok);
    ASSERT_EQ(gpu_.unmap(span.value(), size), Status::Ok);
  }
  EXPECT_EQ(gpu_.used_bytes(), 0u);
  std::byte seen{0};
  const KernelDef probe = probe_kernel(&seen);
  ASSERT_EQ(gpu_.launch(probe, {{1, 1, 1}, {1, 1, 1}}, {KernelArg::dev(span.value() + size - 1)}),
            Status::Ok);
  EXPECT_EQ(seen, std::byte{0xDE});
}

TEST_F(SimGpuTest, DoubleMapAndStrayUnmapRejected) {
  auto span = gpu_.reserve(4 * kChunk);
  ASSERT_TRUE(span.has_value());
  ASSERT_EQ(gpu_.map(span.value(), kChunk), Status::Ok);
  EXPECT_EQ(gpu_.map(span.value(), kChunk), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.map(span.value() + kChunk / 2, kChunk), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.map(span.value() + 3 * kChunk, 2 * kChunk), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.map(DevicePtr{123456}, kChunk), Status::ErrorInvalidDevicePointer);
  EXPECT_EQ(gpu_.unmap(span.value() + kChunk, kChunk), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.unmap(span.value(), kChunk / 2), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.unmap(span.value(), 2 * kChunk), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.used_bytes(), kChunk);  // nothing rejected touched capacity
  EXPECT_EQ(gpu_.unmap(span.value(), kChunk), Status::Ok);
  EXPECT_EQ(gpu_.unmap(span.value(), kChunk), Status::ErrorInvalidValue);
  EXPECT_EQ(gpu_.used_bytes(), 0u);
}

TEST_F(SimGpuTest, AllocFaultPulseFailsMapsToo) {
  auto span = gpu_.reserve(kChunk);
  ASSERT_TRUE(span.has_value());
  gpu_.fail_next_allocs(1);
  EXPECT_EQ(gpu_.map(span.value(), kChunk), Status::ErrorMemoryAllocation);
  EXPECT_EQ(gpu_.map(span.value(), kChunk), Status::Ok);
  EXPECT_EQ(gpu_.stats().alloc_faults, 1u);
}

// ---- SimMachine ------------------------------------------------------------

TEST(SimMachine, AddRemoveFailLifecycle) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimMachine machine(dom, SimParams{1});
  const GpuId a = machine.add_gpu(test_gpu());
  const GpuId b = machine.add_gpu(test_gpu());
  EXPECT_EQ(machine.gpus().size(), 2u);

  ASSERT_EQ(machine.remove_gpu(a), Status::Ok);
  EXPECT_EQ(machine.gpus().size(), 1u);
  EXPECT_EQ(machine.gpus()[0], b);
  EXPECT_NE(machine.gpu(a), nullptr);  // object survives for error reporting
  EXPECT_FALSE(machine.gpu(a)->healthy());

  EXPECT_EQ(machine.remove_gpu(a), Status::ErrorInvalidDevice);
  ASSERT_EQ(machine.fail_gpu(b), Status::Ok);
  EXPECT_TRUE(machine.gpus().empty());
}

TEST(SimMachine, TopologyNotifications) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimMachine machine(dom, SimParams{1});
  std::vector<std::pair<TopologyEvent, GpuId>> events;
  machine.subscribe([&](TopologyEvent e, GpuId id) { events.emplace_back(e, id); });

  const GpuId a = machine.add_gpu(test_gpu());
  const GpuId b = machine.add_gpu(test_gpu());
  ASSERT_EQ(machine.fail_gpu(a), Status::Ok);
  ASSERT_EQ(machine.remove_gpu(b), Status::Ok);

  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], (std::pair{TopologyEvent::GpuAdded, a}));
  EXPECT_EQ(events[1], (std::pair{TopologyEvent::GpuAdded, b}));
  EXPECT_EQ(events[2], (std::pair{TopologyEvent::GpuFailed, a}));
  EXPECT_EQ(events[3], (std::pair{TopologyEvent::GpuRemoved, b}));
}

TEST(SimMachine, DistinctAddressSpacesPerGpu) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  SimMachine machine(dom, SimParams{1});
  SimGpu* g1 = machine.gpu(machine.add_gpu(test_gpu()));
  SimGpu* g2 = machine.gpu(machine.add_gpu(test_gpu()));
  auto p1 = g1->malloc(256);
  auto p2 = g2->malloc(256);
  ASSERT_TRUE(p1 && p2);
  // A pointer from one device is invalid on the other.
  EXPECT_FALSE(g2->valid_pointer(p1.value()));
  EXPECT_FALSE(g1->valid_pointer(p2.value()));
  EXPECT_EQ(g2->free(p1.value()), Status::ErrorInvalidDevicePointer);
}

TEST(SimMachine, PaperSpecsHaveExpectedCapacities) {
  SimParams params{1024};
  EXPECT_EQ(tesla_c2050(params).memory_bytes, 3ull * 1024 * 1024);
  EXPECT_EQ(tesla_c1060(params).memory_bytes, 4ull * 1024 * 1024);
  EXPECT_EQ(quadro_2000(params).memory_bytes, 1ull * 1024 * 1024);
  // Relative compute power ordering drives the load-balancing experiments.
  EXPECT_GT(tesla_c2050(params).compute_power(), tesla_c1060(params).compute_power());
  EXPECT_GT(tesla_c1060(params).compute_power(), quadro_2000(params).compute_power());
}

}  // namespace
}  // namespace gpuvm::sim
