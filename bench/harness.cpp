#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace gpuvm::harness {

namespace {

const char* g_driver = "bench";

}  // namespace

void die(const char* what) {
  std::fprintf(stderr, "%s: %s\n", g_driver, what);
  std::exit(1);
}

Flag count_flag(const char* name, int* target) {
  return {name, true, [name, target](const char* value) {
            *target = std::atoi(value);
            if (*target <= 0) die((std::string("bad ") + name).c_str());
          }};
}

Flag switch_flag(const char* name, bool* target) {
  return {name, false, [target](const char*) { *target = true; }};
}

std::string parse_flags(int argc, char** argv, const char* driver,
                        const std::function<void()>& on_quick, const std::vector<Flag>& flags) {
  g_driver = driver;
  std::string out = std::string("BENCH_") + (driver + std::strlen("bench_")) + ".json";
  std::string expected = "unknown flag (expected --out/--quick";
  for (const Flag& flag : flags) expected += std::string("/") + flag.name;
  expected += ")";

  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) die("missing flag value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      out = value();
      continue;
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      on_quick();
      continue;
    }
    const Flag* match = nullptr;
    for (const Flag& flag : flags) {
      if (std::strcmp(argv[i], flag.name) == 0) match = &flag;
    }
    if (match == nullptr) die(expected.c_str());
    match->apply(match->takes_value ? value() : nullptr);
  }
  return out;
}

void write_file(const std::string& path, const std::string& text, const char* flag) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die((std::string("cannot open ") + flag + " file").c_str());
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

void add_kernel(sim::SimMachine& machine, const char* name, double flops) {
  sim::KernelDef def;
  def.name = name;
  def.body = [](sim::KernelExecContext&) { return Status::Ok; };
  def.cost = [flops](const sim::LaunchConfig&, const std::vector<sim::KernelArg>&) {
    return sim::KernelCost{flops, 0.0};
  };
  machine.kernels().add(def);
}

namespace {

constexpr double kTouchFlops = 1e7;  // 100 us on the 100-GFLOPS test GPU

/// The single-node drivers' simulation: paper mem_scale, kernel bodies
/// skipped.
sim::SimParams bench_params() {
  sim::SimParams params;
  params.execute_kernel_bodies = false;
  return params;
}

/// Installs a node's devices and the touch kernel before its CudaRt and
/// Runtime exist (the Runtime makes vGPUs for the devices it finds).
sim::SimMachine& equip(sim::SimMachine& machine, int gpus, u64 device_bytes) {
  for (int i = 0; i < gpus; ++i) machine.add_gpu(sim::test_gpu(device_bytes));
  add_kernel(machine, kTouch, kTouchFlops);
  return machine;
}

}  // namespace

Node::Node(vt::Domain& dom, int gpus, u64 device_bytes, cudart::CudaRtConfig cudart,
           const core::RuntimeConfig& config)
    : machine_(dom, bench_params()),
      rt_(equip(machine_, gpus, device_bytes), cudart),
      runtime_(rt_, config) {}

TenantEnv::TenantEnv(int gpus, u64 device_bytes, cudart::CudaRtConfig cudart,
                     const core::RuntimeConfig& config, bool traced)
    : guard_(dom_),
      recorder_(traced ? std::optional<obs::TraceRecorder>(std::in_place, dom_) : std::nullopt),
      scoped_(traced ? std::optional<obs::ScopedTracer>(std::in_place, *recorder_)
                     : std::nullopt),
      node_(dom_, gpus, device_bytes, cudart, config) {}

double TenantEnv::run_tenants(int n, const std::function<void(int)>& tenant) {
  vt::StopWatch watch(dom_);
  {
    dom_.hold();
    std::vector<vt::Thread> apps;
    for (int t = 0; t < n; ++t) apps.emplace_back(dom_, [&tenant, t] { tenant(t); });
    dom_.unhold();
  }
  runtime().drain();
  return watch.elapsed_seconds();
}

Json::Json(const char* bench) : levels_{{'}', false}} {
  text_ += '{';
  str("bench", bench);
}

void Json::newline(size_t depth) {
  text_ += '\n';
  text_.append(2 * depth, ' ');
}

void Json::separate() {
  Level& level = levels_.back();
  if (!level.empty) text_ += ',';
  if (level.inline_) {
    if (!level.empty) text_ += ' ';
  } else {
    newline(levels_.size());
  }
  level.empty = false;
}

Json& Json::raw(const char* key, std::string_view value) {
  separate();
  if (key != nullptr) {
    text_ += '"';
    text_ += key;
    text_ += "\": ";
  }
  text_ += value;
  return *this;
}

Json& Json::open(const char* key, char bracket, bool inline_) {
  raw(key, std::string_view(&bracket, 1));
  levels_.push_back({bracket == '{' ? '}' : ']', inline_ || levels_.back().inline_});
  return *this;
}

Json& Json::object(const char* key, bool inline_) { return open(key, '{', inline_); }

Json& Json::array(const char* key, bool inline_) { return open(key, '[', inline_); }

Json& Json::end() {
  const Level level = levels_.back();
  levels_.pop_back();
  if (!level.inline_ && !level.empty) newline(levels_.size());
  text_ += level.close;
  return *this;
}

Json& Json::num(const char* key, double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return raw(key, buf);
}

Json& Json::str(const char* key, const char* value) {
  std::string quoted = "\"";
  quoted += value;
  quoted += '"';
  return raw(key, quoted);
}

void Json::save(const std::string& path) {
  while (!levels_.empty()) end();
  text_ += '\n';
  write_file(path, text_, "--out");
}

}  // namespace gpuvm::harness
