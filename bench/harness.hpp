// Shared harness of the seven CI-gated bench drivers (bench_throughput,
// swap, paging, preempt, migration, cluster_lb, scale): plain programs that
// compare designs in modeled (virtual-clock) time, print their rows and
// write one JSON result whose bounds bench/check_gates.py checks. It holds
// their flag parser, die(), kernels, single-node environment and JSON
// writer.
#pragma once

#include <concepts>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/runtime.hpp"
#include "cudart/cudart.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"

namespace gpuvm::harness {

/// Prints "<driver>: <what>" to stderr and exits 1. <driver> is the name
/// given to parse_flags ("bench" before it runs).
[[noreturn]] void die(const char* what);

/// One driver-specific flag. `apply` receives the flag's value, or nullptr
/// for a switch.
struct Flag {
  const char* name;
  bool takes_value;
  std::function<void(const char* value)> apply;
};

/// `--name <n>`, n a positive integer (else dies "bad --name"); `--name`
/// alone.
Flag count_flag(const char* name, int* target);
Flag switch_flag(const char* name, bool* target);

/// Parses argv left to right for driver `driver` ("bench_<name>") and
/// returns the `--out <path>` value (default BENCH_<name>.json). `--quick`
/// runs `on_quick`, so a later flag still overrides what it set; each of
/// `flags` applies itself. An unknown flag or a missing value dies naming
/// the flags the driver accepts.
std::string parse_flags(int argc, char** argv, const char* driver,
                        const std::function<void()>& on_quick, const std::vector<Flag>& flags);

/// Writes `text` to `path`; dies "cannot open <flag> file" when it cannot.
void write_file(const std::string& path, const std::string& text, const char* flag);

/// Registers `name` as a kernel with an empty body costing `flops` (1e7 is
/// 100 us on the 100-GFLOPS test GPU).
void add_kernel(sim::SimMachine& machine, const char* name, double flops);

/// The drivers' churn kernel, registered on every Node: ~100 us of compute,
/// long enough to look like work, short enough that modeled time stays
/// transfer-dominated.
inline constexpr const char* kTouch = "touch";

/// One simulated node on a shared virtual clock: `gpus` test GPUs of
/// `device_bytes` each with the touch kernel registered, a CudaRt and a
/// Runtime. Kernel bodies are skipped (traffic and modeled time only).
/// Drivers that run two nodes on one clock (migration) build two.
class Node {
 public:
  Node(vt::Domain& dom, int gpus, u64 device_bytes, cudart::CudaRtConfig cudart,
       const core::RuntimeConfig& config);

  sim::SimMachine& machine() { return machine_; }
  core::Runtime& runtime() { return runtime_; }

 private:
  sim::SimMachine machine_;
  cudart::CudaRt rt_;
  core::Runtime runtime_;
};

/// A whole single-node run: its own clock (attached to the calling thread),
/// an optional trace recorder installed before any device exists, and one
/// Node.
class TenantEnv {
 public:
  TenantEnv(int gpus, u64 device_bytes, cudart::CudaRtConfig cudart,
            const core::RuntimeConfig& config, bool traced = false);

  vt::Domain& dom() { return dom_; }
  sim::SimMachine& machine() { return node_.machine(); }
  core::Runtime& runtime() { return node_.runtime(); }
  /// The run's recorder, or nullptr when untraced.
  obs::TraceRecorder* recorder() { return recorder_ ? &*recorder_ : nullptr; }

  /// Starts `n` tenant threads running `tenant(t)` at one virtual instant,
  /// joins them, drains the runtime and returns the modeled seconds taken.
  double run_tenants(int n, const std::function<void(int)>& tenant);

 private:
  vt::Domain dom_;
  vt::AttachGuard guard_;
  std::optional<obs::TraceRecorder> recorder_;
  std::optional<obs::ScopedTracer> scoped_;
  Node node_;
};

/// Builds one result file. Objects and arrays are laid out one member per
/// line, or on one line when opened `inline_`; everything inside an inline
/// container is inline too. Keys pass nullptr inside arrays.
class Json {
 public:
  /// Opens the top-level object with its "bench" key.
  explicit Json(const char* bench);

  Json& object(const char* key, bool inline_ = false);
  Json& array(const char* key, bool inline_ = false);
  Json& end();

  template <std::integral T>
  Json& num(const char* key, T value) {
    return raw(key, std::to_string(value));
  }
  /// A fixed-point number with `decimals` digits after the point.
  Json& num(const char* key, double value, int decimals);
  Json& boolean(const char* key, bool value) { return raw(key, value ? "true" : "false"); }
  Json& str(const char* key, const char* value);

  /// Closes the top-level object and writes the file (dies "cannot open
  /// --out file" when it cannot).
  void save(const std::string& path);

 private:
  struct Level {
    char close;
    bool inline_;
    bool empty = true;
  };
  Json& raw(const char* key, std::string_view value);
  Json& open(const char* key, char bracket, bool inline_);
  void separate();
  void newline(size_t depth);

  std::string text_;
  std::vector<Level> levels_;
};

}  // namespace gpuvm::harness
