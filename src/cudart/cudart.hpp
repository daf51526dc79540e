// CudaRt: a simulated CUDA 3.2 runtime.
//
// This is both the paper's *baseline* ("bare CUDA runtime") and the backend
// the gpuvm daemon's virtual GPUs issue calls to. It reproduces the CUDA
// 3.2 semantics the paper depends on:
//   - one CUDA context per client (application thread), created lazily at
//     the first device-touching call on the thread's current device;
//   - each context reserves a fixed slab of device memory at creation.
//     On a 3 GiB Tesla C2050 the reservation admits exactly eight
//     concurrent contexts -- the limit the paper observed experimentally;
//   - attempting to over-commit device memory across contexts fails with
//     cudaErrorMemoryAllocation (no virtual memory!);
//   - requests are served first-come-first-served by the device engines;
//   - cudaSetDevice is rejected once the calling client has an active
//     context (CUDA 3.2 contexts were pinned to their device);
//   - module/function registration (__cudaRegisterFatBinary/Function)
//     happens before context creation and does not touch the device.
//
// Clients are explicit handles rather than OS threads so that the daemon's
// virtual-GPU worker threads can own CUDA contexts of their own -- exactly
// how the paper's prototype drives the real CUDA runtime.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "common/vt.hpp"
#include "sim/machine.hpp"

namespace gpuvm::cudart {

/// Per-context device-memory reservation at paper scale (bytes): the CUDA
/// runtime claims a working slab per context at creation.
inline constexpr u64 kContextReservationPaperBytes = 64ull * 1024 * 1024;

/// Maximum concurrent contexts per device. The paper observed that "the
/// maximum number of application threads supported by the CUDA runtime in
/// the absence of conflicting memory requirements is eight" on a Tesla
/// C2050; beyond that, context creation fails.
inline constexpr int kMaxContextsPerDevice = 8;

struct CudaRtConfig {
  /// Reservation in *scaled* bytes; 0 = derive from the paper-scale figure
  /// using the machine's mem_scale.
  u64 context_reservation_bytes = 0;
  int max_contexts_per_device = kMaxContextsPerDevice;
};

class CudaRt {
 public:
  explicit CudaRt(sim::SimMachine& machine, CudaRtConfig config = {});

  sim::SimMachine& machine() { return *machine_; }
  u64 context_reservation_bytes() const { return reservation_; }

  // ---- Client lifecycle ---------------------------------------------------
  /// One client per application thread (or per virtual GPU).
  ClientId create_client();
  /// Destroys the client's context: frees its reservation and any leaked
  /// allocations (as a real process teardown would).
  void destroy_client(ClientId id);

  // ---- Device management --------------------------------------------------
  int get_device_count() const;
  Status set_device(ClientId id, int device_index);
  Result<int> get_device(ClientId id) const;

  // ---- Registration (no device interaction) -------------------------------
  Result<u64> register_fat_binary(ClientId id);
  Status unregister_fat_binary(ClientId id, u64 module);
  /// Binds `handle` (the host-side function stub address in real CUDA) to a
  /// kernel symbol name within a module.
  Status register_function(ClientId id, u64 module, u64 handle, const std::string& name);
  Status register_var(ClientId id, u64 module, const std::string& name, u64 size);
  Status register_texture(ClientId id, u64 module, const std::string& name);

  // ---- Memory management --------------------------------------------------
  Result<DevicePtr> malloc(ClientId id, u64 size);
  /// cudaMallocPitch/MallocArray stand-in: pads rows to 256B.
  struct PitchedAlloc {
    DevicePtr ptr = kNullDevicePtr;
    u64 pitch = 0;  ///< row stride in bytes (width padded to 256)
  };
  StatusOr<PitchedAlloc> malloc_pitch(ClientId id, u64 width, u64 height);
  /// Frees a span from malloc or reserve (every chunk mapped in it too).
  Status free(ClientId id, DevicePtr ptr);
  /// Reserves device address space on the client's device without charging
  /// capacity (SimGpu::reserve); map() backs it piecewise, free() releases it.
  Result<DevicePtr> reserve(ClientId id, u64 size);
  /// Maps / unmaps device memory inside one of the client's spans
  /// (SimGpu::map / SimGpu::unmap).
  Status map(ClientId id, DevicePtr ptr, u64 size);
  Status unmap(ClientId id, DevicePtr ptr, u64 size);
  Status memcpy_h2d(ClientId id, DevicePtr dst, std::span<const std::byte> src);
  /// Host->device without blocking for the modeled transfer: the bytes are
  /// placed immediately and the returned time point is when the copy
  /// engine finishes the page-in (see SimGpu::copy_to_device_async).
  StatusOr<vt::TimePoint> memcpy_h2d_async(ClientId id, DevicePtr dst,
                                           std::span<const std::byte> src);
  Status memcpy_d2h(ClientId id, std::span<std::byte> dst, DevicePtr src, u64 size);
  /// Device->host without blocking for the modeled transfer: the bytes land
  /// in `dst` immediately and the returned time point is when the copy
  /// engine finishes the drain (see SimGpu::copy_from_device_async).
  StatusOr<vt::TimePoint> memcpy_d2h_async(ClientId id, std::span<std::byte> dst, DevicePtr src,
                                           u64 size);
  Status memcpy_d2d(ClientId id, DevicePtr dst, DevicePtr src, u64 size);
  /// cudaMemcpyPeer (CUDA 4.0): dst lives on the client's device, src on
  /// whichever device owns that address.
  Status memcpy_peer(ClientId id, DevicePtr dst, DevicePtr src, u64 size);
  /// cudaMemcpy2D host->device: `height` rows of `width` bytes, source rows
  /// spaced `spitch` apart, destination rows `dpitch` apart.
  Status memcpy2d_h2d(ClientId id, DevicePtr dst, u64 dpitch, std::span<const std::byte> src,
                      u64 spitch, u64 width, u64 height);
  Status memcpy2d_d2h(ClientId id, std::span<std::byte> dst, u64 dpitch, DevicePtr src,
                      u64 spitch, u64 width, u64 height);

  // ---- Execution ----------------------------------------------------------
  Status configure_call(ClientId id, const sim::LaunchConfig& config);
  Status setup_argument(ClientId id, const sim::KernelArg& arg);
  /// Launches the function registered under `handle`; synchronous (the
  /// simulated app model issues dependent calls back to back).
  Status launch(ClientId id, u64 handle);
  /// Launch by symbol name (convenience used by the daemon).
  Status launch_by_name(ClientId id, const std::string& name,
                        const sim::LaunchConfig& config,
                        const std::vector<sim::KernelArg>& args);
  Status device_synchronize(ClientId id);

  Status get_last_error(ClientId id);

  // ---- Introspection for tests/benches ------------------------------------
  int contexts_on_device(int device_index) const;
  /// Scaled free bytes visible to new allocations on the client's device.
  Result<u64> free_memory(ClientId id);
  /// Device the client's context lives on, if a context exists.
  std::optional<int> context_device(ClientId id) const;

 private:
  struct Module {
    std::map<u64, std::string> functions;  // handle -> kernel symbol name
    std::set<std::string> vars;
    std::set<std::string> textures;
  };

  struct Client {
    int current_device = 0;
    bool has_context = false;
    int context_device = -1;
    DevicePtr reservation = kNullDevicePtr;
    std::set<DevicePtr> allocations;  ///< span base addresses
    std::map<u64, Module> modules;
    u64 next_module = 1;
    Status last_error = Status::Ok;
    // Pending cudaConfigureCall/cudaSetupArgument state.
    std::optional<sim::LaunchConfig> pending_config;
    std::vector<sim::KernelArg> pending_args;
  };

  // Requires mu_ held. Creates the context lazily; returns the device or an
  // error (invalid device, too many contexts / reservation OOM).
  Result<sim::SimGpu*> ensure_context_locked(Client& client);
  sim::SimGpu* context_gpu_locked(const Client& client) const;
  Client* find_client_locked(ClientId id);
  const Client* find_client_locked(ClientId id) const;
  Status record(Client& client, Status s);
  // Shared body of malloc and reserve: creates a span on the client's device
  // with `make` and records it as the client's allocation.
  template <typename Make>
  Result<DevicePtr> allocate(ClientId id, Make make);
  // Shared body of map and unmap: runs `op` on the device of the client
  // span containing `ptr`.
  template <typename Op>
  Status span_op(ClientId id, DevicePtr ptr, Op op);

  sim::SimMachine* machine_;
  u64 reservation_;
  int max_contexts_;

  mutable std::mutex mu_;
  u64 next_client_ = 1;
  std::map<ClientId, Client> clients_;
};

}  // namespace gpuvm::cudart
