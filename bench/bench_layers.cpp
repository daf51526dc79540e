// Per-layer wall-clock microbenches: what one hand-off through the runtime
// costs the host, isolated from any workload. Not a CI gate; the numbers
// are for before/after comparisons of a change to the layer they isolate.
//
//   Layers/FrontendRoundTrip -- one FrontendApi call (GetDeviceCount) over
//       the local channel: request hop, daemon dispatch, reply hop. Each hop
//       is a thread hand-off through the virtual clock.
//   Layers/LoneSleep -- one Domain::sleep_for on the only attached thread:
//       the advance pops the caller's own sleeper (self-wake, no park).
//
// Each reports wall ns per operation and voluntary + involuntary context
// switches per operation (getrusage over the whole process). The process is
// pinned to one CPU first, like perfbench, so the hand-off cost does not
// depend on how many idle cores the host happens to have.
//
//   ./build/bench/bench_layers [--benchmark_filter=...]
#include <benchmark/benchmark.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>

#include "core/frontend.hpp"
#include "harness.hpp"

namespace {

using namespace gpuvm;

/// Confines the process, and every thread it starts later, to the last CPU
/// it may run on. Returns that CPU, or -1 when the mask cannot be changed.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Context switches of the whole process since `start` (from getrusage),
/// reported per benchmark iteration.
class SwitchCounter {
 public:
  SwitchCounter() { getrusage(RUSAGE_SELF, &start_); }

  void report(benchmark::State& state) const {
    rusage now{};
    getrusage(RUSAGE_SELF, &now);
    const auto per_op = [](long delta) {
      return benchmark::Counter(static_cast<double>(delta), benchmark::Counter::kAvgIterations);
    };
    state.counters["vol_switches"] = per_op(now.ru_nvcsw - start_.ru_nvcsw);
    state.counters["invol_switches"] = per_op(now.ru_nivcsw - start_.ru_nivcsw);
  }

 private:
  rusage start_{};
};

void BM_FrontendRoundTrip(benchmark::State& state) {
  harness::TenantEnv env(1, 64ull << 20, cudart::CudaRtConfig{4 * 1024, 8},
                         core::RuntimeConfig{});
  core::FrontendApi api(env.runtime().connect());
  if (!api.connected()) {
    state.SkipWithError("handshake failed");
    return;
  }
  const SwitchCounter switches;
  for (auto _ : state) benchmark::DoNotOptimize(api.device_count());
  switches.report(state);
}
BENCHMARK(BM_FrontendRoundTrip)->Name("Layers/FrontendRoundTrip")->UseRealTime();

void BM_LoneSleep(benchmark::State& state) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  const SwitchCounter switches;
  for (auto _ : state) dom.sleep_for(vt::from_micros(1));
  switches.report(state);
  state.counters["self_wakes"] = benchmark::Counter(
      static_cast<double>(dom.clock_stats().self_wakes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LoneSleep)->Name("Layers/LoneSleep")->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const int cpu = pin_to_one_cpu();
  std::printf("pinned to cpu %d\n", cpu);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
