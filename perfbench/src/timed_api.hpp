// TimedApi: the benchmark's probe at the frontend layer boundary.
//
// A core::GpuApi that forwards every call to the gpuvm frontend
// (core::FrontendApi) and accounts for it in the calling tenant's CallLog:
// every call is counted and its failure recorded; in a traced run each call
// also becomes a span stamped on both clocks -- host wall time
// (steady_clock) and modeled time (the simulation's vt::Domain) -- whose
// parent is the job's root span. Nothing inside the program is
// instrumented; the spans see only what the frontend boundary sees.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <vector>

#include "common/vt.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"

namespace perfbench {

using namespace gpuvm;

/// GpuApi entry points, grouped the way the per-layer metrics report them.
enum class Op : u8 {
  Job,      ///< root span of one job (not a call)
  Connect,  ///< FrontendApi construction: the Hello handshake
  Malloc,
  Free,
  H2D,
  D2H,
  D2D,
  Launch,
  Sync,
  Other,  ///< registration, device management, errors, checkpoint
  kCount,
};
inline constexpr std::array<const char*, static_cast<size_t>(Op::kCount)> kOpNames = {
    "job", "connect", "malloc", "free", "h2d", "d2h", "d2d", "launch", "sync", "other"};

/// One recorded interval. Wall stamps are microseconds since the run's
/// epoch; modeled stamps are seconds of the round's virtual clock.
struct Span {
  u64 job = 0;  ///< job id; a call span's parent is the job's root span
  Op op = Op::Job;
  double wall_us0 = 0.0;
  double wall_us1 = 0.0;
  double model_s0 = 0.0;
  double model_s1 = 0.0;
};

/// Per-tenant accounting, written by exactly one tenant thread.
struct CallLog {
  u64 calls = 0;
  u64 failed = 0;
  bool traced = false;
  std::vector<Span> spans;
};

/// Host wall clock shared by every span of a run.
double wall_us_since_epoch();

class TimedApi final : public core::GpuApi {
 public:
  /// Opens one frontend connection to `runtime` for job `job`, accounting
  /// the handshake as a Connect call (failed when the daemon refused it).
  TimedApi(core::Runtime& runtime, vt::Domain& dom, CallLog& log, u64 job);

  int device_count() override;
  Status set_device(int index) override;
  Status register_kernels(const std::vector<std::string>& names) override;
  Result<VirtualPtr> malloc(u64 size) override;
  Status free(VirtualPtr ptr) override;
  Status memcpy_h2d(VirtualPtr dst, std::span<const std::byte> src) override;
  Status memcpy_d2h(std::span<std::byte> dst, VirtualPtr src, u64 size) override;
  Status memcpy_d2d(VirtualPtr dst, VirtualPtr src, u64 size) override;
  Status launch(const std::string& kernel, const sim::LaunchConfig& config,
                const std::vector<sim::KernelArg>& args) override;
  Status synchronize() override;
  Status get_last_error() override;
  Status register_nested(VirtualPtr parent, const std::vector<core::NestedRef>& refs) override;
  Status checkpoint() override;

 private:
  template <typename Fn>
  auto timed(Op op, Fn&& fn);

  std::unique_ptr<core::FrontendApi> inner_;
  vt::Domain* dom_;
  CallLog* log_;
  u64 job_;
};

}  // namespace perfbench
