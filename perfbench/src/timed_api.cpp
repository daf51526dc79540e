#include "timed_api.hpp"

#include <type_traits>

namespace perfbench {

namespace {

bool failed(Status s) { return !ok(s); }
template <typename T>
bool failed(const StatusOr<T>& r) {
  return !r;
}
bool failed(int) { return false; }

const auto kEpoch = std::chrono::steady_clock::now();

}  // namespace

double wall_us_since_epoch() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - kEpoch)
      .count();
}

template <typename Fn>
auto TimedApi::timed(Op op, Fn&& fn) {
  ++log_->calls;
  if (!log_->traced) {
    auto result = fn();
    if (failed(result)) ++log_->failed;
    return result;
  }
  Span span;
  span.job = job_;
  span.op = op;
  span.model_s0 = vt::to_seconds(dom_->now());
  span.wall_us0 = wall_us_since_epoch();
  auto result = fn();
  span.wall_us1 = wall_us_since_epoch();
  span.model_s1 = vt::to_seconds(dom_->now());
  if (failed(result)) ++log_->failed;
  log_->spans.push_back(span);
  return result;
}

TimedApi::TimedApi(core::Runtime& runtime, vt::Domain& dom, CallLog& log, u64 job)
    : dom_(&dom), log_(&log), job_(job) {
  timed(Op::Connect, [&] {
    inner_ = std::make_unique<core::FrontendApi>(runtime.connect());
    return inner_->handshake_status();
  });
}

int TimedApi::device_count() {
  return timed(Op::Other, [&] { return inner_->device_count(); });
}
Status TimedApi::set_device(int index) {
  return timed(Op::Other, [&] { return inner_->set_device(index); });
}
Status TimedApi::register_kernels(const std::vector<std::string>& names) {
  return timed(Op::Other, [&] { return inner_->register_kernels(names); });
}
Result<VirtualPtr> TimedApi::malloc(u64 size) {
  return timed(Op::Malloc, [&] { return inner_->malloc(size); });
}
Status TimedApi::free(VirtualPtr ptr) {
  return timed(Op::Free, [&] { return inner_->free(ptr); });
}
Status TimedApi::memcpy_h2d(VirtualPtr dst, std::span<const std::byte> src) {
  return timed(Op::H2D, [&] { return inner_->memcpy_h2d(dst, src); });
}
Status TimedApi::memcpy_d2h(std::span<std::byte> dst, VirtualPtr src, u64 size) {
  return timed(Op::D2H, [&] { return inner_->memcpy_d2h(dst, src, size); });
}
Status TimedApi::memcpy_d2d(VirtualPtr dst, VirtualPtr src, u64 size) {
  return timed(Op::D2D, [&] { return inner_->memcpy_d2d(dst, src, size); });
}
Status TimedApi::launch(const std::string& kernel, const sim::LaunchConfig& config,
                        const std::vector<sim::KernelArg>& args) {
  return timed(Op::Launch, [&] { return inner_->launch(kernel, config, args); });
}
Status TimedApi::synchronize() {
  return timed(Op::Sync, [&] { return inner_->synchronize(); });
}
Status TimedApi::get_last_error() {
  return timed(Op::Other, [&] { return inner_->get_last_error(); });
}
Status TimedApi::register_nested(VirtualPtr parent, const std::vector<core::NestedRef>& refs) {
  return timed(Op::Other, [&] { return inner_->register_nested(parent, refs); });
}
Status TimedApi::checkpoint() {
  return timed(Op::Other, [&] { return inner_->checkpoint(); });
}

}  // namespace perfbench
