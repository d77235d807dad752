// User-logic interface to the VirtIO controller.
//
// Fig. 2 of the paper: the controller sits between the XDMA IP and the
// user logic and exposes RX/TX queue interfaces "that follow the same
// semantics as a virtqueue". A UserLogic implementation is one device
// personality: it supplies the device type / device-specific feature
// bits / device-specific configuration structure, and processes buffers
// the controller delivers from the host. The controller itself stays
// personality-agnostic — the paper's point that supporting a new VirtIO
// device type only requires the device-specific structure (§III-A).
#pragma once

#include <optional>

#include "vfpga/common/types.hpp"
#include "vfpga/sim/time.hpp"
#include "vfpga/virtio/features.hpp"
#include "vfpga/virtio/ids.hpp"

namespace vfpga::fault {
class FaultPlane;
}  // namespace vfpga::fault

namespace vfpga::core {

class UserLogic {
 public:
  UserLogic() = default;
  UserLogic(const UserLogic&) = delete;
  UserLogic& operator=(const UserLogic&) = delete;
  virtual ~UserLogic() = default;

  [[nodiscard]] virtual virtio::DeviceType device_type() const = 0;

  /// Device-specific feature bits to offer (the controller adds the
  /// generic ring/transport bits itself).
  [[nodiscard]] virtual virtio::FeatureSet device_features() const = 0;

  /// Number of virtqueues this personality requires (§IV-B: "only the
  /// minimum number of queues and the device-specific configuration
  /// structure change across device types").
  [[nodiscard]] virtual u16 queue_count() const = 0;

  /// Called once negotiation finished so the personality can adapt
  /// (e.g. enable checksum offload datapaths).
  virtual void on_driver_ready(virtio::FeatureSet /*negotiated*/) {}

  /// The controller forwards its fault plane so personalities with
  /// internal state (e.g. the blk request parser) can expose their own
  /// injection points. Null or never-called == no faults.
  virtual void attach_fault_plane(fault::FaultPlane* /*plane*/) {}

  // ---- device-specific configuration structure -------------------------------
  /// Read-only to the driver: the controller ignores its writes.
  [[nodiscard]] virtual u32 device_config_size() const = 0;
  [[nodiscard]] virtual u8 device_config_read(u32 offset) const = 0;

  // ---- datapath ----------------------------------------------------------------

  struct Response {
    /// Bytes to return to the host (including any device-type header).
    Bytes payload;
    /// Per-request status byte (virtio-blk style): when set, the
    /// controller writes it into the LAST byte of the chain's LAST
    /// device-writable descriptor after scattering `payload` — the spec
    /// position of the virtio_blk status descriptor. `payload` must then
    /// leave that byte free (payload.size() <= writable_capacity - 1).
    /// Personalities that never set it (net, console) keep the legacy
    /// scatter bit-for-bit.
    std::optional<u8> chain_status;
    /// Queue to deliver on. Equal to the source queue => write into the
    /// device-writable tail of the *same* chain (block-device style);
    /// different queue => consume a buffer from that queue's avail ring
    /// (network RX style).
    u16 target_queue = 0;
    /// User-logic processing time in fabric cycles — the paper's
    /// "time to generate the response packet", measured by its own
    /// perf counter and deducted from the latency breakdown (§IV-B).
    u64 processing_cycles = 0;
  };

  /// Descriptor-level shape of the chain being processed, for
  /// personalities that enforce per-request segment limits (virtio-blk
  /// seg_max) — the gathered bytes cannot show segment boundaries.
  struct ChainMeta {
    u32 readable_descriptors = 0;
    u32 writable_descriptors = 0;
    /// Largest single descriptor in each direction — what a size_max
    /// enforcing device checks per §5.2.5.2 (0 when no descriptors in
    /// that direction).
    u32 largest_readable_bytes = 0;
    u32 largest_writable_bytes = 0;
  };

  /// Process one buffer the host made available on `queue`. `payload`
  /// is the gathered device-readable bytes of the chain;
  /// `writable_capacity` is the total size of the chain's
  /// device-writable buffers (a same-chain response must fit in it —
  /// block-style requests derive their read length from it); `meta` is
  /// the chain's descriptor shape, which byte-oriented personalities
  /// (net, console) ignore.
  virtual std::optional<Response> process(u16 queue, ConstByteSpan payload,
                                          u32 writable_capacity,
                                          const ChainMeta& meta) = 0;
};

}  // namespace vfpga::core
