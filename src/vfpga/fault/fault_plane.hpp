// Unified fault-injection plane.
//
// Every layer of the stack consults one FaultPlane at its natural
// injection points: the PCIe root complex (TLP drop/corruption, lost or
// duplicated MSI-X messages), host memory (poisoned DMA read
// completions), the split/packed virtqueue engines (descriptor-table
// corruption, used-ring write failures), and the XDMA engine
// (descriptor-magic halts). The plane draws from its own deterministic
// RNG stream, so a campaign run is reproducible from (fault config,
// seed) alone — and a layer holding a null plane pointer, or a plane
// whose rate for a class is zero, performs no RNG draws at all, keeping
// the happy path bit-identical to a build without fault hooks.
#pragma once

#include <array>
#include <cstddef>

#include "vfpga/common/types.hpp"
#include "vfpga/sim/rng.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::fault {

/// The fault classes the plane can inject. Each maps to one injection
/// point in the stack (see the class comment).
enum class FaultClass : u8 {
  kTlpDrop = 0,       ///< payload-sized posted DMA write dropped in flight
  kTlpCorrupt,        ///< payload-sized posted DMA write corrupted in flight
  kDmaPoison,         ///< DMA read completion returns poisoned payload
  kDescCorrupt,       ///< virtqueue descriptor fetched by the engine corrupts
  kUsedWriteFail,     ///< used-ring / completion write lost before host memory
  kNotifyLost,        ///< MSI-X message dropped
  kNotifyDup,         ///< MSI-X message delivered twice
  kEngineHalt,        ///< XDMA descriptor magic corrupted -> engine halt
  kQueueIrqLost,      ///< per-queue MSI-X message dropped at the device
  kIndirectCorrupt,   ///< indirect descriptor table corrupts on fetch
  kBlkHeaderCorrupt,  ///< blk request header corrupts on the fabric bus
  kBlkIrqLost,        ///< blk completion MSI-X message dropped
  kBlkBackingTimeout, ///< blk backing store stalls past its deadline
};

inline constexpr std::size_t kFaultClassCount = 13;

/// Control-plane ring traffic (indices, descriptors, used elements, MSI
/// messages) is 2-32 bytes; only payload-sized TLPs at or above this
/// threshold are eligible for drop/corrupt/poison, mirroring how link
/// level errors on tiny TLPs are caught by DLLP replay while large
/// payloads survive to the application layer.
inline constexpr std::size_t kMinPayloadBytes = 64;

[[nodiscard]] const char* fault_class_name(FaultClass cls);

/// Per-class injection rates (probability per opportunity) plus the
/// campaign seed. All-zero rates == fault injection disabled.
struct FaultConfig {
  std::array<double, kFaultClassCount> rate{};
  u64 seed = 1;

  void set_rate(FaultClass cls, double r) {
    rate[static_cast<std::size_t>(cls)] = r;
  }
  [[nodiscard]] double rate_of(FaultClass cls) const {
    return rate[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] bool any_enabled() const {
    for (double r : rate) {
      if (r > 0.0) {
        return true;
      }
    }
    return false;
  }
};

class FaultPlane {
 public:
  explicit FaultPlane(const FaultConfig& config);

  /// Decide whether to inject `cls` at this opportunity. Never draws
  /// from the RNG when the class rate is zero or the plane is disarmed,
  /// so a disarmed plane is observationally identical to no plane.
  [[nodiscard]] bool should_inject(FaultClass cls);

  /// Flip one random byte of `data` (draws from the plane's RNG).
  void corrupt(ByteSpan data);

  /// Runtime arm/disarm switch — campaigns disarm the plane after the
  /// fault phase to verify the stack returns to steady state.
  void set_armed(bool armed) { armed_ = armed; }
  [[nodiscard]] bool armed() const { return armed_; }

  [[nodiscard]] u64 injected(FaultClass cls) const {
    return injected_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] u64 total_injected() const;
  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Snapshot/restore of the plane's dynamic state (RNG position,
  /// injection counters, arm switch). The fault *config* is part of the
  /// snapshot compatibility fingerprint: a restore fails when the
  /// restore target was built with different rates or seed, since the
  /// replayed RNG stream would no longer mean the same thing.
  void transfer(migrate::StateIo& io);

 private:
  FaultConfig config_;
  sim::Xoshiro256 rng_;
  std::array<u64, kFaultClassCount> injected_{};
  bool armed_ = true;
};

}  // namespace vfpga::fault
