// Ring-format-independent driver-side interface.
//
// The virtio-net front-end (and any other driver model) talks to its
// queues through this interface so the split and packed formats are
// interchangeable at negotiation time — exactly how Linux's virtio_ring
// hides vring_split/vring_packed behind one API.
#pragma once

#include <optional>
#include <span>

#include "vfpga/virtio/ring_layout.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::virtio {

class DriverRing {
 public:
  DriverRing() = default;
  DriverRing(const DriverRing&) = delete;
  DriverRing& operator=(const DriverRing&) = delete;
  virtual ~DriverRing() = default;

  [[nodiscard]] virtual u16 size() const = 0;
  [[nodiscard]] virtual RingFormat ring_format() const = 0;
  [[nodiscard]] virtual u16 free_descriptors() const = 0;

  /// Expose a buffer chain; returns an opaque handle (split: head
  /// descriptor index; packed: buffer id) or nullopt when full.
  virtual std::optional<u16> add_chain(std::span<const ChainBuffer> buffers,
                                       u64 token) = 0;

  /// Expose a chain through an indirect descriptor table: one ring slot
  /// regardless of chain length, and the device fetches the whole table
  /// in a single DMA read. Requires VIRTIO_F_INDIRECT_DESC: the caller
  /// (VirtioNetDriver, VirtioBlkDriver) chooses add_chain when it was not
  /// negotiated.
  virtual std::optional<u16> add_chain_indirect(
      std::span<const ChainBuffer> buffers, u64 token) = 0;

  /// Make everything added since the last publish device-visible.
  virtual u16 publish() = 0;

  /// Should the driver notify the device after the last publish?
  [[nodiscard]] virtual bool should_kick() const = 0;

  struct Completion {
    u64 token = 0;
    u32 written = 0;
    u16 handle = 0;
  };
  virtual std::optional<Completion> harvest() = 0;
  [[nodiscard]] virtual bool used_pending() const = 0;

  /// The ring observed a malformed completion (out-of-range id, zero
  /// chain length) and refused to harvest it — the vring is corrupt and
  /// the device must be reset, mirroring Linux's vq->broken flag.
  [[nodiscard]] bool broken() const { return broken_; }

  /// Re-enable device->driver interrupts after harvesting (split: write
  /// used_event; packed: write ENABLE into the driver event structure).
  virtual void enable_interrupts() = 0;
  /// Suppress device->driver interrupts (TX-completion style).
  virtual void disable_interrupts() = 0;

  /// Addresses for the common-config queue_desc/driver/device fields.
  /// Split: descriptor table / avail ring / used ring. Packed:
  /// descriptor ring / driver event struct / device event struct.
  [[nodiscard]] virtual RingAddresses ring_addresses() const = 0;

  /// Snapshot/restore of the ring's driver-RAM bookkeeping.
  virtual void transfer(migrate::StateIo& io) = 0;

 protected:
  void mark_broken() { broken_ = true; }
  /// Snapshot restore only: reinstate the captured broken flag.
  void restore_broken(bool broken) { broken_ = broken; }

 private:
  bool broken_ = false;
};

}  // namespace vfpga::virtio
