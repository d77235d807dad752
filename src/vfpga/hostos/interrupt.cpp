#include "vfpga/hostos/interrupt.hpp"

#include "vfpga/common/contract.hpp"
#include "vfpga/common/log.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::hostos {

u32 InterruptController::allocate_vector() {
  queues_.emplace_back();
  return static_cast<u32>(queues_.size() - 1);
}

void InterruptController::deliver(u32 message_data, sim::SimTime at) {
  if (message_data >= queues_.size()) {
    // No vector was allocated for this message: a spurious interrupt,
    // which the host drops (e.g. from an MSI-X entry a corrupt
    // snapshot image programmed).
    VFPGA_WARN("irq", "spurious MSI: no vector for its message data");
    return;
  }
  queues_[message_data].push_back(at);
  ++delivered_;
}

bool InterruptController::pending(u32 vector) const {
  VFPGA_EXPECTS(vector < queues_.size());
  return !queues_[vector].empty();
}

std::optional<sim::SimTime> InterruptController::next_pending(
    u32 vector) const {
  VFPGA_EXPECTS(vector < queues_.size());
  if (queues_[vector].empty()) {
    return std::nullopt;
  }
  return queues_[vector].front();
}

sim::SimTime InterruptController::consume(u32 vector) {
  VFPGA_EXPECTS(vector < queues_.size());
  VFPGA_EXPECTS(!queues_[vector].empty());
  const sim::SimTime at = queues_[vector].front();
  queues_[vector].pop_front();
  return at;
}

void InterruptController::transfer(migrate::StateIo& io) {
  // The vector count is dynamic state, not configuration: a device
  // reset on the snapshot source re-allocates vectors, so the source
  // may have more than a freshly-probed target. Resize to match.
  queues_.resize(io.count<u32>(queues_.size()));
  for (auto& q : queues_) {
    q.resize(io.count<u32>(q.size()));
    for (sim::SimTime& at : q) {
      io.time(at);
    }
  }
  io.u64(delivered_);
}

}  // namespace vfpga::hostos
