#include "vfpga/fault/fault_plane.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::fault {

const char* fault_class_name(FaultClass cls) {
  switch (cls) {
    case FaultClass::kTlpDrop:
      return "tlp-drop";
    case FaultClass::kTlpCorrupt:
      return "tlp-corrupt";
    case FaultClass::kDmaPoison:
      return "dma-poison";
    case FaultClass::kDescCorrupt:
      return "desc-corrupt";
    case FaultClass::kUsedWriteFail:
      return "used-write-fail";
    case FaultClass::kNotifyLost:
      return "notify-lost";
    case FaultClass::kNotifyDup:
      return "notify-dup";
    case FaultClass::kEngineHalt:
      return "engine-halt";
    case FaultClass::kQueueIrqLost:
      return "queue-irq-lost";
    case FaultClass::kIndirectCorrupt:
      return "indirect-corrupt";
    case FaultClass::kBlkHeaderCorrupt:
      return "blk-header-corrupt";
    case FaultClass::kBlkIrqLost:
      return "blk-irq-lost";
    case FaultClass::kBlkBackingTimeout:
      return "blk-backing-timeout";
  }
  VFPGA_UNREACHABLE("bad fault class");
}

FaultPlane::FaultPlane(const FaultConfig& config)
    : config_(config), rng_(config.seed ^ 0xfa017f4417ULL) {}

bool FaultPlane::should_inject(FaultClass cls) {
  const double rate = config_.rate_of(cls);
  if (!armed_ || rate <= 0.0) {
    return false;  // no RNG draw: disarmed plane == no plane
  }
  if (rng_.uniform01() >= rate) {
    return false;
  }
  ++injected_[static_cast<std::size_t>(cls)];
  return true;
}

void FaultPlane::corrupt(ByteSpan data) {
  VFPGA_EXPECTS(!data.empty());
  const u64 offset = rng_.uniform_below(data.size());
  // XOR with a non-zero byte so the flip is guaranteed to change data.
  const u8 mask = static_cast<u8>(1u + rng_.uniform_below(255));
  data[offset] ^= mask;
}

void FaultPlane::transfer(migrate::StateIo& io) {
  // Config fingerprint: the restore target must have been constructed
  // with the identical campaign, or the restored RNG stream diverges.
  io.expect<u64>(config_.seed);
  for (double rate : config_.rate) {
    io.expect<double>(rate);
  }
  std::array<u64, 4> s = rng_.state();
  for (u64& word : s) {
    io.u64(word);
  }
  if (io.loading()) {
    rng_.set_state(s);
  }
  for (u64& n : injected_) {
    io.u64(n);
  }
  io.boolean(armed_);
}

u64 FaultPlane::total_injected() const {
  u64 total = 0;
  for (u64 n : injected_) {
    total += n;
  }
  return total;
}

}  // namespace vfpga::fault
