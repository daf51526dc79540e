#include "core/frontend.hpp"

#include <cstring>

#include "common/log.hpp"
#include "common/wire.hpp"
#include "obs/trace.hpp"

namespace gpuvm::core {

using transport::Message;
using transport::Opcode;

FrontendApi::FrontendApi(std::unique_ptr<transport::MessageChannel> channel,
                         ConnectOptions options)
    : channel_(std::move(channel)) {
  transport::HelloPayload hello;
  hello.caps = options.caps;
  hello.job_cost_hint_seconds = options.job_cost_hint_seconds;
  hello.forwarded = false;
  hello.app_id = options.application_id;
  hello.deadline_seconds = options.deadline_seconds;
  const obs::TraceContext trace =
      options.trace.valid() ? options.trace : obs::current_trace();
  hello.trace_id = trace.trace_id;
  hello.parent_span = trace.parent_span;
  auto reply = roundtrip(Opcode::Hello, transport::encode_hello(hello));
  if (reply && ok(transport::reply_status(reply.value()))) {
    auto hr = transport::decode_hello_reply(transport::reply_payload(reply.value()));
    if (hr.has_value()) {
      connection_ = ConnectionId{hr->context_id};
      caps_ = hr->caps;
      handshake_status_ = Status::Ok;
      if (trace.valid() && (caps_ & protocol::caps::kTraceContext) == 0) {
        // Daemon predates caps::kTraceContext: its events won't carry our
        // trace. Mark the causal gap on the client side so the exported
        // trace says why the daemon's spans are missing.
        obs::emit_instant("trace-gap: peer lacks kTraceContext", "trace",
                          obs::kRuntimePid, connection_.value, connection_.value);
      }
    } else {
      handshake_status_ = hr.status();
      log::warn("frontend: Hello reply malformed (%s)", to_string(hr.status()));
    }
  } else {
    handshake_status_ =
        reply ? transport::reply_status(reply.value()) : reply.status();
    log::warn("frontend: Hello handshake failed (%s)", to_string(handshake_status_));
  }
}

FrontendApi::~FrontendApi() {
  if (channel_ != nullptr && connected() && !channel_->closed()) {
    (void)simple_call(Opcode::Goodbye, {});
  }
  if (channel_ != nullptr) channel_->close();
}

Result<Message> FrontendApi::roundtrip(Opcode op, std::vector<u8> payload) {
  Message msg;
  msg.op = op;
  msg.connection = connection_;
  msg.payload = std::move(payload);
  if (!channel_->send(std::move(msg))) return Status::ErrorConnectionClosed;
  auto reply = channel_->receive();
  if (!reply.has_value()) return Status::ErrorConnectionClosed;
  return std::move(*reply);
}

Status FrontendApi::simple_call(Opcode op, std::vector<u8> payload) {
  auto reply = roundtrip(op, std::move(payload));
  if (!reply) return reply.status();
  return transport::reply_status(reply.value());
}

int FrontendApi::device_count() {
  auto reply = roundtrip(Opcode::GetDeviceCount, {});
  if (!reply || !ok(transport::reply_status(reply.value()))) return 0;
  WireReader r(transport::reply_payload(reply.value()));
  return r.get<i32>();
}

Status FrontendApi::set_device(int index) {
  WireWriter w;
  w.put<i32>(index);
  return simple_call(Opcode::SetDevice, w.take());
}

Status FrontendApi::register_kernels(const std::vector<std::string>& names) {
  // Mirrors the toolchain-emitted sequence: one fat binary, then one
  // __cudaRegisterFunction per kernel symbol.
  auto module_reply = roundtrip(Opcode::RegisterFatBinary, {});
  if (!module_reply) return module_reply.status();
  if (const Status s = transport::reply_status(module_reply.value()); !ok(s)) return s;
  WireReader mr(transport::reply_payload(module_reply.value()));
  const u64 module = mr.get<u64>();
  u64 handle = 0x1000;
  for (const auto& name : names) {
    WireWriter w;
    w.put<u64>(module);
    w.put<u64>(handle++);
    w.put_string(name);
    if (const Status s = simple_call(Opcode::RegisterFunction, w.take()); !ok(s)) return s;
  }
  return Status::Ok;
}

Result<VirtualPtr> FrontendApi::malloc(u64 size) {
  WireWriter w;
  w.put<u64>(size);
  auto reply = roundtrip(Opcode::Malloc, w.take());
  if (!reply) return reply.status();
  if (const Status s = transport::reply_status(reply.value()); !ok(s)) return s;
  WireReader r(transport::reply_payload(reply.value()));
  return VirtualPtr{r.get<u64>()};
}

Status FrontendApi::free(VirtualPtr ptr) {
  WireWriter w;
  w.put<u64>(ptr);
  return simple_call(Opcode::Free, w.take());
}

Status FrontendApi::memcpy_h2d(VirtualPtr dst, std::span<const std::byte> src) {
  WireWriter w;
  w.put<u64>(dst);
  w.put_bytes({reinterpret_cast<const u8*>(src.data()), src.size()});
  return simple_call(Opcode::MemcpyH2D, w.take());
}

Status FrontendApi::memcpy_d2h(std::span<std::byte> dst, VirtualPtr src, u64 size) {
  if (dst.size() < size) return Status::ErrorInvalidValue;
  WireWriter w;
  w.put<u64>(src);
  w.put<u64>(size);
  auto reply = roundtrip(Opcode::MemcpyD2H, w.take());
  if (!reply) return reply.status();
  if (const Status s = transport::reply_status(reply.value()); !ok(s)) return s;
  WireReader r(transport::reply_payload(reply.value()));
  auto data = r.get_span();
  if (!r.ok() || data.size() != size) return Status::ErrorProtocol;
  std::memcpy(dst.data(), data.data(), size);
  return Status::Ok;
}

Status FrontendApi::memcpy_d2d(VirtualPtr dst, VirtualPtr src, u64 size) {
  WireWriter w;
  w.put<u64>(dst);
  w.put<u64>(src);
  w.put<u64>(size);
  return simple_call(Opcode::MemcpyD2D, w.take());
}

Status FrontendApi::launch(const std::string& kernel, const sim::LaunchConfig& config,
                           const std::vector<sim::KernelArg>& args) {
  // The real frontend issues cudaConfigureCall + N cudaSetupArgument +
  // cudaLaunch; we coalesce them into one self-contained Launch frame to
  // keep the hop count realistic for one logical call.
  WireWriter w;
  w.put_string(kernel);
  w.put<sim::LaunchConfig>(config);
  w.put<u64>(args.size());
  for (const auto& arg : args) {
    w.put<u8>(static_cast<u8>(arg.kind));
    w.put<u64>(arg.bits);
  }
  return simple_call(Opcode::Launch, w.take());
}

Status FrontendApi::synchronize() { return simple_call(Opcode::Synchronize, {}); }

Status FrontendApi::get_last_error() { return simple_call(Opcode::GetLastError, {}); }

Status FrontendApi::register_nested(VirtualPtr parent, const std::vector<NestedRef>& refs) {
  WireWriter w;
  w.put<u64>(parent);
  w.put<u64>(refs.size());
  for (const auto& ref : refs) {
    w.put<u64>(ref.offset);
    w.put<u64>(ref.target);
  }
  return simple_call(Opcode::RegisterNested, w.take());
}

Status FrontendApi::checkpoint() { return simple_call(Opcode::Checkpoint, {}); }

Result<obs::MetricsSnapshot> FrontendApi::query_stats() {
  // Optional op: refuse locally when the bit did not survive negotiation.
  if ((caps_ & protocol::caps::kQueryStats) == 0) return Status::ErrorNotSupported;
  auto reply = roundtrip(Opcode::QueryStats, {});
  if (!reply) return reply.status();
  if (const Status s = transport::reply_status(reply.value()); !ok(s)) return s;
  WireReader r(transport::reply_payload(reply.value()));
  auto snap = obs::MetricsSnapshot::decode(r);
  if (!snap.has_value()) return Status::ErrorProtocol;
  return std::move(*snap);
}

Result<transport::LoadSnapshot> FrontendApi::query_load() {
  if ((caps_ & protocol::caps::kQueryLoad) == 0) return Status::ErrorNotSupported;
  // interval 0 = one-shot poll; a nonzero interval would convert this
  // connection into a heartbeat subscription (see NodeDirectory::watch).
  auto reply = roundtrip(Opcode::QueryLoad, transport::encode_query_load(0));
  if (!reply) return reply.status();
  if (const Status s = transport::reply_status(reply.value()); !ok(s)) return s;
  auto load = transport::decode_load(transport::reply_payload(reply.value()));
  if (!load) return Status::ErrorProtocol;
  return std::move(load.value());
}

}  // namespace gpuvm::core
