#include "workloads/trace.hpp"

#include <mutex>

#include "common/wire.hpp"

namespace gpuvm::workloads {
namespace {

enum class TraceOp : u8 {
  RegisterKernels = 1,
  SetDevice = 2,
  Malloc = 3,
  Free = 4,
  H2D = 5,
  D2H = 6,
  D2D = 7,
  Launch = 8,
  Synchronize = 9,
  RegisterNested = 10,
  Checkpoint = 11,
};

constexpr u32 kTraceMagic = 0x67747263;  // "gtrc"
constexpr u64 kInvalidIndex = ~0ull;
/// Initial trace buffer. A recording only grows; reserving before the first
/// write also spares GCC 12 a false -Wstringop-overflow on an insert into
/// the empty vector.
constexpr size_t kInitialTraceBytes = 4096;

/// A (allocation-index, byte-offset) reference replacing raw virtual
/// pointers in the serialized form.
struct PtrRef {
  u64 index = kInvalidIndex;
  u64 offset = 0;
};

}  // namespace

struct TracingApi::Impl {
  core::GpuApi* inner;
  mutable std::mutex mu;
  WireWriter out;

  struct Allocation {
    VirtualPtr ptr;
    u64 size;
    bool live;
  };
  std::vector<Allocation> allocations;

  explicit Impl(core::GpuApi& api) : inner(&api) {
    out.reserve(kInitialTraceBytes);
    out.put<u32>(kTraceMagic);
  }

  PtrRef resolve(VirtualPtr ptr) const {
    for (u64 i = 0; i < allocations.size(); ++i) {
      const Allocation& a = allocations[i];
      if (a.live && ptr >= a.ptr && ptr < a.ptr + a.size) return {i, ptr - a.ptr};
    }
    return {};
  }

  void put_ref(VirtualPtr ptr) {
    const PtrRef ref = resolve(ptr);
    out.put<u64>(ref.index);
    out.put<u64>(ref.offset);
  }
};

TracingApi::TracingApi(core::GpuApi& inner) : impl_(std::make_shared<Impl>(inner)) {}

std::vector<u8> TracingApi::trace() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->out.bytes();
}

int TracingApi::device_count() { return impl_->inner->device_count(); }

Status TracingApi::set_device(int index) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::SetDevice));
  impl_->out.put<i32>(index);
  return impl_->inner->set_device(index);
}

Status TracingApi::register_kernels(const std::vector<std::string>& names) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::RegisterKernels));
  impl_->out.put<u64>(names.size());
  for (const auto& name : names) impl_->out.put_string(name);
  return impl_->inner->register_kernels(names);
}

Result<VirtualPtr> TracingApi::malloc(u64 size) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::Malloc));
  impl_->out.put<u64>(size);
  auto r = impl_->inner->malloc(size);
  impl_->allocations.push_back({r ? r.value() : kNullVirtualPtr, size, r.has_value()});
  return r;
}

Status TracingApi::free(VirtualPtr ptr) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::Free));
  const PtrRef ref = impl_->resolve(ptr);
  impl_->out.put<u64>(ref.index);
  if (ref.index != kInvalidIndex && ref.offset == 0) {
    impl_->allocations[ref.index].live = false;
  }
  return impl_->inner->free(ptr);
}

Status TracingApi::memcpy_h2d(VirtualPtr dst, std::span<const std::byte> src) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::H2D));
  impl_->put_ref(dst);
  impl_->out.put_bytes({reinterpret_cast<const u8*>(src.data()), src.size()});
  return impl_->inner->memcpy_h2d(dst, src);
}

Status TracingApi::memcpy_d2h(std::span<std::byte> dst, VirtualPtr src, u64 size) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::D2H));
  impl_->put_ref(src);
  impl_->out.put<u64>(size);
  return impl_->inner->memcpy_d2h(dst, src, size);
}

Status TracingApi::memcpy_d2d(VirtualPtr dst, VirtualPtr src, u64 size) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::D2D));
  impl_->put_ref(dst);
  impl_->put_ref(src);
  impl_->out.put<u64>(size);
  return impl_->inner->memcpy_d2d(dst, src, size);
}

Status TracingApi::launch(const std::string& kernel, const sim::LaunchConfig& config,
                          const std::vector<sim::KernelArg>& args) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::Launch));
  impl_->out.put_string(kernel);
  impl_->out.put<sim::LaunchConfig>(config);
  impl_->out.put<u64>(args.size());
  for (const auto& arg : args) {
    impl_->out.put<u8>(static_cast<u8>(arg.kind));
    if (arg.is_dev_ptr()) {
      impl_->put_ref(arg.as_ptr());
    } else {
      impl_->out.put<u64>(arg.bits);
    }
  }
  return impl_->inner->launch(kernel, config, args);
}

Status TracingApi::synchronize() {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::Synchronize));
  return impl_->inner->synchronize();
}

Status TracingApi::get_last_error() { return impl_->inner->get_last_error(); }

Status TracingApi::register_nested(VirtualPtr parent, const std::vector<core::NestedRef>& refs) {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::RegisterNested));
  impl_->put_ref(parent);
  impl_->out.put<u64>(refs.size());
  for (const auto& ref : refs) {
    impl_->out.put<u64>(ref.offset);
    impl_->put_ref(ref.target);
  }
  return impl_->inner->register_nested(parent, refs);
}

Status TracingApi::checkpoint() {
  std::scoped_lock lock(impl_->mu);
  impl_->out.put<u8>(static_cast<u8>(TraceOp::Checkpoint));
  return impl_->inner->checkpoint();
}

ReplayResult replay_trace(core::GpuApi& api, std::span<const u8> trace) {
  ReplayResult result;
  WireReader r(trace);
  if (r.get<u32>() != kTraceMagic) {
    result.status = Status::ErrorProtocol;
    return result;
  }

  std::vector<VirtualPtr> table;  // allocation index -> replay-time pointer
  const auto read_ref = [&]() -> VirtualPtr {
    const u64 index = r.get<u64>();
    const u64 offset = r.get<u64>();
    if (index == kInvalidIndex || index >= table.size()) return kNullVirtualPtr;
    return table[index] + offset;
  };
  const auto note = [&](Status s) {
    if (!ok(s) && ok(result.status)) result.status = s;
  };

  while (r.ok() && r.remaining() > 0) {
    const auto op = static_cast<TraceOp>(r.get<u8>());
    ++result.calls_replayed;
    switch (op) {
      case TraceOp::RegisterKernels: {
        const u64 n = r.get<u64>();
        std::vector<std::string> names;
        for (u64 i = 0; i < n && r.ok(); ++i) names.push_back(r.get_string());
        note(api.register_kernels(names));
        break;
      }
      case TraceOp::SetDevice:
        note(api.set_device(r.get<i32>()));
        break;
      case TraceOp::Malloc: {
        auto p = api.malloc(r.get<u64>());
        note(p.status());
        table.push_back(p ? p.value() : kNullVirtualPtr);
        break;
      }
      case TraceOp::Free: {
        const u64 index = r.get<u64>();
        if (index < table.size()) note(api.free(table[index]));
        break;
      }
      case TraceOp::H2D: {
        const VirtualPtr dst = read_ref();
        const auto bytes = r.get_span();
        note(api.memcpy_h2d(
            dst, std::as_bytes(std::span(bytes.data(), bytes.size()))));
        break;
      }
      case TraceOp::D2H: {
        const VirtualPtr src = read_ref();
        const u64 size = r.get<u64>();
        std::vector<std::byte> out(size);
        note(api.memcpy_d2h(out, src, size));
        result.observed.insert(result.observed.end(),
                               reinterpret_cast<const u8*>(out.data()),
                               reinterpret_cast<const u8*>(out.data() + out.size()));
        break;
      }
      case TraceOp::D2D: {
        const VirtualPtr dst = read_ref();
        const VirtualPtr src = read_ref();
        note(api.memcpy_d2d(dst, src, r.get<u64>()));
        break;
      }
      case TraceOp::Launch: {
        const std::string kernel = r.get_string();
        const auto config = r.get<sim::LaunchConfig>();
        const u64 argc = r.get<u64>();
        std::vector<sim::KernelArg> args;
        for (u64 i = 0; i < argc && r.ok(); ++i) {
          const auto kind = static_cast<sim::KernelArg::Kind>(r.get<u8>());
          if (kind == sim::KernelArg::Kind::DevPtr) {
            args.push_back(sim::KernelArg::dev(read_ref()));
          } else if (kind == sim::KernelArg::Kind::DevPtrOut) {
            args.push_back(sim::KernelArg::dev_out(read_ref()));
          } else {
            sim::KernelArg arg;
            arg.kind = kind;
            arg.bits = r.get<u64>();
            args.push_back(arg);
          }
        }
        note(api.launch(kernel, config, args));
        break;
      }
      case TraceOp::Synchronize:
        note(api.synchronize());
        break;
      case TraceOp::RegisterNested: {
        const VirtualPtr parent = read_ref();
        const u64 n = r.get<u64>();
        std::vector<core::NestedRef> refs;
        for (u64 i = 0; i < n && r.ok(); ++i) {
          core::NestedRef ref;
          ref.offset = r.get<u64>();
          ref.target = read_ref();
          refs.push_back(ref);
        }
        note(api.register_nested(parent, refs));
        break;
      }
      case TraceOp::Checkpoint:
        note(api.checkpoint());
        break;
      default:
        result.status = Status::ErrorProtocol;
        return result;
    }
  }
  if (!r.ok()) result.status = Status::ErrorProtocol;
  return result;
}

}  // namespace gpuvm::workloads
