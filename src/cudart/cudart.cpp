#include "cudart/cudart.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpuvm::cudart {

namespace {

obs::Counter& calls_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kCudartCalls);
  return c;
}

}  // namespace

CudaRt::CudaRt(sim::SimMachine& machine, CudaRtConfig config)
    : machine_(&machine), max_contexts_(config.max_contexts_per_device) {
  reservation_ = config.context_reservation_bytes != 0
                     ? config.context_reservation_bytes
                     : kContextReservationPaperBytes / machine.params().mem_scale;
}

ClientId CudaRt::create_client() {
  std::scoped_lock lock(mu_);
  const ClientId id{next_client_++};
  clients_.emplace(id, Client{});
  return id;
}

void CudaRt::destroy_client(ClientId id) {
  Client client;
  {
    std::scoped_lock lock(mu_);
    const auto it = clients_.find(id);
    if (it == clients_.end()) return;
    client = std::move(it->second);
    clients_.erase(it);
  }
  if (!client.has_context) return;
  sim::SimGpu* gpu = machine_->gpu(machine_->all_gpus()[static_cast<size_t>(client.context_device)]);
  if (gpu == nullptr) return;
  for (DevicePtr ptr : client.allocations) (void)gpu->free(ptr);
  if (client.reservation != kNullDevicePtr) (void)gpu->free(client.reservation);
}

int CudaRt::get_device_count() const { return static_cast<int>(machine_->all_gpus().size()); }

Status CudaRt::set_device(ClientId id, int device_index) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  if (device_index < 0 || device_index >= get_device_count()) {
    return record(*client, Status::ErrorInvalidDevice);
  }
  // CUDA 3.2: the context pins the thread to its device.
  if (client->has_context && client->context_device != device_index) {
    return record(*client, Status::ErrorInvalidValue);
  }
  client->current_device = device_index;
  return Status::Ok;
}

Result<int> CudaRt::get_device(ClientId id) const {
  std::scoped_lock lock(mu_);
  const Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  return client->current_device;
}

Result<u64> CudaRt::register_fat_binary(ClientId id) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  const u64 module = client->next_module++;
  client->modules.emplace(module, Module{});
  return module;
}

Status CudaRt::unregister_fat_binary(ClientId id, u64 module) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  return client->modules.erase(module) != 0 ? Status::Ok : Status::ErrorInvalidValue;
}

Status CudaRt::register_function(ClientId id, u64 module, u64 handle, const std::string& name) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  const auto it = client->modules.find(module);
  if (it == client->modules.end()) return record(*client, Status::ErrorInvalidValue);
  it->second.functions[handle] = name;
  return Status::Ok;
}

Status CudaRt::register_var(ClientId id, u64 module, const std::string& name, u64 size) {
  (void)size;
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  const auto it = client->modules.find(module);
  if (it == client->modules.end()) return record(*client, Status::ErrorInvalidValue);
  it->second.vars.insert(name);
  return Status::Ok;
}

Status CudaRt::register_texture(ClientId id, u64 module, const std::string& name) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  const auto it = client->modules.find(module);
  if (it == client->modules.end()) return record(*client, Status::ErrorInvalidValue);
  it->second.textures.insert(name);
  return Status::Ok;
}

template <typename Make>
Result<DevicePtr> CudaRt::allocate(ClientId id, Make make) {
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  Result<DevicePtr> ptr = make(*gpu);
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) {
    if (ptr) (void)gpu->free(ptr.value());
    return Status::ErrorInvalidValue;
  }
  if (!ptr) return record(*client, ptr.status());
  client->allocations.insert(ptr.value());
  return ptr.value();
}

Result<DevicePtr> CudaRt::malloc(ClientId id, u64 size) {
  return allocate(id, [size](sim::SimGpu& gpu) { return gpu.malloc(size); });
}

Result<DevicePtr> CudaRt::reserve(ClientId id, u64 size) {
  return allocate(id, [size](sim::SimGpu& gpu) { return gpu.reserve(size); });
}

template <typename Op>
Status CudaRt::span_op(ClientId id, DevicePtr ptr, Op op) {
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    // The span holding `ptr` is the client's last one starting at or below
    // it; the device checks that `ptr` is really inside.
    const auto it = client->allocations.upper_bound(ptr);
    if (!client->has_context || it == client->allocations.begin()) {
      return record(*client, Status::ErrorInvalidDevicePointer);
    }
    gpu = context_gpu_locked(*client);
  }
  if (gpu == nullptr) return Status::ErrorInvalidDevice;
  const Status s = op(*gpu);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) return record(*client, s);
  return s;
}

Status CudaRt::map(ClientId id, DevicePtr ptr, u64 size) {
  return span_op(id, ptr, [&](sim::SimGpu& gpu) { return gpu.map(ptr, size); });
}

Status CudaRt::unmap(ClientId id, DevicePtr ptr, u64 size) {
  return span_op(id, ptr, [&](sim::SimGpu& gpu) { return gpu.unmap(ptr, size); });
}

StatusOr<CudaRt::PitchedAlloc> CudaRt::malloc_pitch(ClientId id, u64 width, u64 height) {
  const u64 row = (width + 255) / 256 * 256;
  auto ptr = malloc(id, row * height);
  if (!ptr) return ptr.status();
  return PitchedAlloc{ptr.value(), row};
}

Status CudaRt::free(ClientId id, DevicePtr ptr) {
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    if (!client->has_context || client->allocations.count(ptr) == 0) {
      return record(*client, Status::ErrorInvalidDevicePointer);
    }
    client->allocations.erase(ptr);
    gpu = context_gpu_locked(*client);
  }
  if (gpu == nullptr) return Status::ErrorInvalidDevice;
  const Status s = gpu->free(ptr);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) return record(*client, s);
  return s;
}

Status CudaRt::memcpy_h2d(ClientId id, DevicePtr dst, std::span<const std::byte> src) {
  calls_counter().add(1);
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  obs::SpanScope sp("cudaMemcpy H2D", "cudart", gpu->id().value,
                    obs::kClientTidBase + id.value, 0, src.size());
  const Status s = gpu->copy_to_device(dst, src);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) return record(*client, s);
  return s;
}

StatusOr<vt::TimePoint> CudaRt::memcpy_h2d_async(ClientId id, DevicePtr dst,
                                                 std::span<const std::byte> src) {
  calls_counter().add(1);
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  obs::SpanScope sp("cudaMemcpyAsync H2D", "cudart", gpu->id().value,
                    obs::kClientTidBase + id.value, 0, src.size());
  auto done = gpu->copy_to_device_async(dst, src);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) (void)record(*client, done.status());
  return done;
}

Status CudaRt::memcpy_d2h(ClientId id, std::span<std::byte> dst, DevicePtr src, u64 size) {
  calls_counter().add(1);
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  obs::SpanScope sp("cudaMemcpy D2H", "cudart", gpu->id().value,
                    obs::kClientTidBase + id.value, 0, size);
  const Status s = gpu->copy_from_device(dst, src, size);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) return record(*client, s);
  return s;
}

StatusOr<vt::TimePoint> CudaRt::memcpy_d2h_async(ClientId id, std::span<std::byte> dst,
                                                 DevicePtr src, u64 size) {
  calls_counter().add(1);
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  obs::SpanScope sp("cudaMemcpyAsync D2H", "cudart", gpu->id().value,
                    obs::kClientTidBase + id.value, 0, size);
  auto done = gpu->copy_from_device_async(dst, src, size);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) (void)record(*client, done.status());
  return done;
}

Status CudaRt::memcpy_d2d(ClientId id, DevicePtr dst, DevicePtr src, u64 size) {
  calls_counter().add(1);
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  obs::SpanScope sp("cudaMemcpy D2D", "cudart", gpu->id().value,
                    obs::kClientTidBase + id.value, 0, size);
  const Status s = gpu->copy_device_to_device(dst, src, size);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) return record(*client, s);
  return s;
}

Status CudaRt::memcpy_peer(ClientId id, DevicePtr dst, DevicePtr src, u64 size) {
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  sim::SimGpu* peer = machine_->locate_gpu(src);
  if (peer == nullptr) return Status::ErrorInvalidDevicePointer;
  calls_counter().add(1);
  obs::SpanScope sp("cudaMemcpyPeer", "cudart", gpu->id().value,
                    obs::kClientTidBase + id.value, 0, size);
  const Status s =
      peer == gpu ? gpu->copy_device_to_device(dst, src, size)
                  : gpu->copy_from_peer(dst, *peer, src, size);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) return record(*client, s);
  return s;
}

Status CudaRt::memcpy2d_h2d(ClientId id, DevicePtr dst, u64 dpitch,
                            std::span<const std::byte> src, u64 spitch, u64 width,
                            u64 height) {
  if (width > spitch || width > dpitch || src.size() < spitch * height) {
    return Status::ErrorInvalidValue;
  }
  for (u64 row = 0; row < height; ++row) {
    const Status s =
        memcpy_h2d(id, dst + row * dpitch, src.subspan(row * spitch, width));
    if (!ok(s)) return s;
  }
  return Status::Ok;
}

Status CudaRt::memcpy2d_d2h(ClientId id, std::span<std::byte> dst, u64 dpitch, DevicePtr src,
                            u64 spitch, u64 width, u64 height) {
  if (width > spitch || width > dpitch || dst.size() < dpitch * height) {
    return Status::ErrorInvalidValue;
  }
  for (u64 row = 0; row < height; ++row) {
    const Status s =
        memcpy_d2h(id, dst.subspan(row * dpitch, width), src + row * spitch, width);
    if (!ok(s)) return s;
  }
  return Status::Ok;
}

Status CudaRt::configure_call(ClientId id, const sim::LaunchConfig& config) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  client->pending_config = config;
  client->pending_args.clear();
  return Status::Ok;
}

Status CudaRt::setup_argument(ClientId id, const sim::KernelArg& arg) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  if (!client->pending_config.has_value()) {
    return record(*client, Status::ErrorInvalidConfiguration);
  }
  client->pending_args.push_back(arg);
  return Status::Ok;
}

Status CudaRt::launch(ClientId id, u64 handle) {
  std::string name;
  sim::LaunchConfig config;
  std::vector<sim::KernelArg> args;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    if (!client->pending_config.has_value()) {
      return record(*client, Status::ErrorInvalidConfiguration);
    }
    bool found = false;
    for (const auto& [module, data] : client->modules) {
      const auto it = data.functions.find(handle);
      if (it != data.functions.end()) {
        name = it->second;
        found = true;
        break;
      }
    }
    if (!found) return record(*client, Status::ErrorUnknownSymbol);
    config = *client->pending_config;
    args = std::move(client->pending_args);
    client->pending_config.reset();
    client->pending_args.clear();
  }
  return launch_by_name(id, name, config, args);
}

Status CudaRt::launch_by_name(ClientId id, const std::string& name,
                              const sim::LaunchConfig& config,
                              const std::vector<sim::KernelArg>& args) {
  sim::SimGpu* gpu = nullptr;
  {
    std::scoped_lock lock(mu_);
    Client* client = find_client_locked(id);
    if (client == nullptr) return Status::ErrorInvalidValue;
    auto ensured = ensure_context_locked(*client);
    if (!ensured) return record(*client, ensured.status());
    gpu = ensured.value();
  }
  const auto def = machine_->kernels().find(name);
  if (def == nullptr) {
    std::scoped_lock lock(mu_);
    if (Client* client = find_client_locked(id)) return record(*client, Status::ErrorUnknownSymbol);
    return Status::ErrorUnknownSymbol;
  }
  calls_counter().add(1);
  obs::SpanScope sp(name, "cudart", gpu->id().value, obs::kClientTidBase + id.value);
  const Status s = gpu->launch(*def, config, args);
  std::scoped_lock lock(mu_);
  if (Client* client = find_client_locked(id)) return record(*client, s);
  return s;
}

Status CudaRt::device_synchronize(ClientId id) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  if (!client->has_context) return Status::Ok;
  sim::SimGpu* gpu = context_gpu_locked(*client);
  if (gpu == nullptr || !gpu->healthy()) return record(*client, Status::ErrorDeviceUnavailable);
  return Status::Ok;
}

Status CudaRt::get_last_error(ClientId id) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  const Status s = client->last_error;
  client->last_error = Status::Ok;
  return s;
}

int CudaRt::contexts_on_device(int device_index) const {
  std::scoped_lock lock(mu_);
  int count = 0;
  for (const auto& [id, client] : clients_) {
    if (client.has_context && client.context_device == device_index) ++count;
  }
  return count;
}

Result<u64> CudaRt::free_memory(ClientId id) {
  std::scoped_lock lock(mu_);
  Client* client = find_client_locked(id);
  if (client == nullptr) return Status::ErrorInvalidValue;
  auto ensured = ensure_context_locked(*client);
  if (!ensured) return record(*client, ensured.status());
  return ensured.value()->free_bytes();
}

std::optional<int> CudaRt::context_device(ClientId id) const {
  std::scoped_lock lock(mu_);
  const Client* client = find_client_locked(id);
  if (client == nullptr || !client->has_context) return std::nullopt;
  return client->context_device;
}

Result<sim::SimGpu*> CudaRt::ensure_context_locked(Client& client) {
  const auto all = machine_->all_gpus();
  if (client.current_device < 0 || static_cast<size_t>(client.current_device) >= all.size()) {
    return Status::ErrorInvalidDevice;
  }
  sim::SimGpu* gpu = machine_->gpu(all[static_cast<size_t>(client.current_device)]);
  if (gpu == nullptr) return Status::ErrorInvalidDevice;
  if (client.has_context) {
    if (!gpu->healthy()) return Status::ErrorDeviceUnavailable;
    return gpu;
  }
  if (!gpu->healthy()) return Status::ErrorDeviceUnavailable;
  // The CUDA runtime cannot sustain an arbitrary number of contexts: the
  // paper measured a ceiling of eight on a Tesla C2050.
  int existing = 0;
  for (const auto& [cid, other] : clients_) {
    if (other.has_context && other.context_device == client.current_device) ++existing;
  }
  if (existing >= max_contexts_) return Status::ErrorTooManyContexts;
  // Context creation additionally reserves a slab of device memory; a
  // device too full for the reservation also rejects the context.
  auto slab = gpu->malloc(reservation_);
  if (!slab) return Status::ErrorTooManyContexts;
  client.reservation = slab.value();
  client.has_context = true;
  client.context_device = client.current_device;
  return gpu;
}

sim::SimGpu* CudaRt::context_gpu_locked(const Client& client) const {
  const auto all = machine_->all_gpus();
  if (client.context_device < 0 || static_cast<size_t>(client.context_device) >= all.size()) {
    return nullptr;
  }
  return machine_->gpu(all[static_cast<size_t>(client.context_device)]);
}

CudaRt::Client* CudaRt::find_client_locked(ClientId id) {
  const auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : &it->second;
}

const CudaRt::Client* CudaRt::find_client_locked(ClientId id) const {
  const auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : &it->second;
}

Status CudaRt::record(Client& client, Status s) {
  if (!ok(s)) client.last_error = s;
  return s;
}

}  // namespace gpuvm::cudart
