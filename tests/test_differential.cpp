// Differential property tests: randomized CUDA-call sequences must produce
// byte-identical results on the bare runtime (DirectApi) and through the
// gpuvm daemon (FrontendApi) -- including under artificial memory pressure
// that forces the gpuvm path to swap constantly. This is the apples-to-
// apples guarantee behind every performance comparison in the evaluation.
// Every memory-engine mode runs the same oracle: the entry engine and the
// paged engine, each with deferred and with eager transfers.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/direct_api.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "sim/machine.hpp"

namespace gpuvm::core {
namespace {

void register_kernels(sim::SimMachine& machine) {
  sim::KernelDef scale_add;
  scale_add.name = "scale_add";  // dst[i] = a * src[i] + dst[i]
  scale_add.body = [](sim::KernelExecContext& kc) {
    auto src = kc.buffer<float>(0);
    auto dst = kc.buffer<float>(1);
    const double a = kc.scalar_f64(2);
    const u64 n = static_cast<u64>(kc.scalar_i64(3));
    if (src.size() < n || dst.size() < n) return Status::ErrorLaunchFailure;
    for (u64 i = 0; i < n; ++i) dst[i] += static_cast<float>(a) * src[i];
    return Status::Ok;
  };
  scale_add.cost = sim::per_thread_cost(2.0, 8.0);
  machine.kernels().add(scale_add);

  sim::KernelDef fill;
  fill.name = "fill";  // dst[i] = v
  fill.body = [](sim::KernelExecContext& kc) {
    auto dst = kc.buffer<float>(0);
    const double v = kc.scalar_f64(1);
    const u64 n = static_cast<u64>(kc.scalar_i64(2));
    if (dst.size() < n) return Status::ErrorLaunchFailure;
    for (u64 i = 0; i < n; ++i) dst[i] = static_cast<float>(v);
    return Status::Ok;
  };
  fill.cost = sim::per_thread_cost(1.0, 4.0);
  machine.kernels().add(fill);
}

/// Runs a seeded random op sequence; returns a digest of every byte the
/// application observed (copy-outs) plus the status sequence.
struct Trace {
  std::vector<Status> statuses;
  std::vector<std::vector<float>> observations;

  bool operator==(const Trace&) const = default;
};

Trace run_sequence(GpuApi& api, u64 seed, int ops, u64 max_floats) {
  Trace trace;
  Rng rng(seed);
  (void)api.register_kernels({"scale_add", "fill"});

  struct Buffer {
    VirtualPtr ptr;
    u64 floats;
  };
  std::vector<Buffer> buffers;

  const auto random_buffer = [&]() -> Buffer& {
    return buffers[rng.below(buffers.size())];
  };

  for (int op = 0; op < ops; ++op) {
    const u64 kind = rng.below(6);
    if (buffers.empty() || kind == 0) {
      if (buffers.size() >= 6) continue;
      const u64 floats = rng.below(max_floats) + 16;
      auto p = api.malloc(floats * sizeof(float));
      trace.statuses.push_back(p.status());
      if (p) buffers.push_back({p.value(), floats});
      continue;
    }
    switch (kind) {
      case 1: {  // host -> device (possibly interior)
        Buffer& buf = random_buffer();
        const u64 offset = rng.below(buf.floats);
        const u64 count = rng.below(buf.floats - offset) + 1;
        std::vector<float> data(count);
        for (auto& v : data) v = static_cast<float>(rng.below(1000));
        trace.statuses.push_back(
            api.memcpy_h2d(buf.ptr + offset * sizeof(float), std::as_bytes(std::span(data))));
        break;
      }
      case 2: {  // device -> host: record observation
        Buffer& buf = random_buffer();
        const u64 offset = rng.below(buf.floats);
        const u64 count = rng.below(buf.floats - offset) + 1;
        std::vector<float> data(count, -1.0f);
        trace.statuses.push_back(api.memcpy_d2h(std::as_writable_bytes(std::span(data)),
                                                buf.ptr + offset * sizeof(float),
                                                count * sizeof(float)));
        trace.observations.push_back(std::move(data));
        break;
      }
      case 3: {  // kernel launch
        Buffer& src = random_buffer();
        Buffer& dst = random_buffer();
        const u64 n = std::min(src.floats, dst.floats);
        trace.statuses.push_back(
            api.launch("scale_add", {{static_cast<u32>((n + 255) / 256), 1, 1}, {256, 1, 1}},
                       {sim::KernelArg::dev(src.ptr), sim::KernelArg::dev(dst.ptr),
                        sim::KernelArg::f64v(static_cast<double>(rng.below(5))),
                        sim::KernelArg::i64v(static_cast<i64>(n))}));
        break;
      }
      case 4: {  // fill kernel
        Buffer& buf = random_buffer();
        trace.statuses.push_back(api.launch(
            "fill", {{static_cast<u32>((buf.floats + 255) / 256), 1, 1}, {256, 1, 1}},
            {sim::KernelArg::dev(buf.ptr), sim::KernelArg::f64v(static_cast<double>(op)),
             sim::KernelArg::i64v(static_cast<i64>(buf.floats))}));
        break;
      }
      case 5: {  // free
        const u64 index = rng.below(buffers.size());
        trace.statuses.push_back(api.free(buffers[index].ptr));
        buffers.erase(buffers.begin() + static_cast<long>(index));
        break;
      }
      default:
        break;
    }
  }
  // Final observation of everything still allocated.
  for (const Buffer& buf : buffers) {
    std::vector<float> data(buf.floats, -2.0f);
    trace.statuses.push_back(api.copy_out(data, buf.ptr));
    trace.observations.push_back(std::move(data));
    (void)api.free(buf.ptr);
  }
  return trace;
}

/// Runs the sequence through gpuvm configured by `config` on one GPU of
/// `capacity` bytes.
Trace run_gpuvm(const RuntimeConfig& config, u64 capacity, u64 seed, int ops, u64 max_floats) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, sim::SimParams{1});
  machine.add_gpu(sim::test_gpu(capacity));
  register_kernels(machine);
  cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
  Runtime runtime(rt, config);
  FrontendApi api(runtime.connect());
  return run_sequence(api, seed, ops, max_floats);
}

void expect_bare_and_gpuvm_identical(const RuntimeConfig& config, u64 seed) {
  // Plenty of device memory: no swapping, pure protocol equivalence.
  Trace direct_trace;
  {
    vt::Domain dom;
    vt::AttachGuard guard(dom);
    sim::SimMachine machine(dom, sim::SimParams{1});
    machine.add_gpu(sim::test_gpu(8 << 20));
    register_kernels(machine);
    cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
    DirectApi api(rt);
    direct_trace = run_sequence(api, seed, 120, 8 * 1024);
  }
  const Trace gpuvm_trace = run_gpuvm(config, 8 << 20, seed, 120, 8 * 1024);
  EXPECT_EQ(direct_trace.observations, gpuvm_trace.observations);
}

void expect_pressure_invisible(const RuntimeConfig& config, u64 seed) {
  // The same sequence against a tiny device (constant swapping) and a huge
  // device (no swapping) must observe identical bytes: swapping is
  // invisible to the application.
  const Trace ample = run_gpuvm(config, 8 << 20, seed * 7919, 100, 6 * 1024);
  // A few buffers (up to ~24 KiB each) fit.
  const Trace pressured = run_gpuvm(config, 96 * 1024, seed * 7919, 100, 6 * 1024);
  EXPECT_EQ(ample.observations, pressured.observations);
  EXPECT_EQ(ample.statuses, pressured.statuses);
}

/// One oracle run: the memory-engine mode and the sequence's seed.
struct Mode {
  bool paging;
  bool deferred;
  u64 seed;
};

/// The printed parameter names each test. The default mode (entry engine,
/// deferred transfers) prints as its bare seed, so those tests keep the
/// names they had before the other modes joined the oracle.
void PrintTo(const Mode& m, std::ostream* os) {
  if (!m.paging && m.deferred) {
    *os << m.seed;
    return;
  }
  *os << (m.paging ? "paged" : "entry") << (m.deferred ? "_deferred_" : "_eager_") << m.seed;
}

/// The eight seeds in each of the given (paging, deferred) modes.
std::vector<Mode> modes(std::initializer_list<std::pair<bool, bool>> engines) {
  std::vector<Mode> out;
  for (const auto& [paging, deferred] : engines) {
    for (const u64 seed : {1, 2, 3, 5, 8, 13, 21, 42}) out.push_back({paging, deferred, seed});
  }
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<Mode> {
 protected:
  static RuntimeConfig config() {
    RuntimeConfig config;
    config.paging = GetParam().paging;
    config.defer_transfers = GetParam().deferred;
    return config;
  }
};

TEST_P(DifferentialTest, BareAndGpuvmObserveIdenticalBytes) {
  expect_bare_and_gpuvm_identical(config(), GetParam().seed);
}

TEST_P(DifferentialTest, GpuvmUnderMemoryPressureMatchesAmpleMemoryRun) {
  expect_pressure_invisible(config(), GetParam().seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::ValuesIn(modes({{false, true}})));
INSTANTIATE_TEST_SUITE_P(Modes, DifferentialTest,
                         ::testing::ValuesIn(modes({{false, false}, {true, true}, {true, false}})));

}  // namespace
}  // namespace gpuvm::core
