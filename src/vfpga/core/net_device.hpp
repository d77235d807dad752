// virtio-net device personality: the paper's test case (§III-A).
//
// "When used as a network device, the FPGA receives Ethernet frames from
// the host. ... the FPGA could either send out a received Ethernet frame
// as is or perform additional tasks on behalf of the host, e.g., a
// checksum calculation." The echo logic here implements the paper's
// test workload: answer every UDP packet with a UDP packet of the same
// size (addresses/ports swapped, checksums regenerated) and — when
// VIRTIO_NET_F_CSUM is negotiated — complete checksums the driver
// offloaded. The host reaches the FPGA through a static neighbour
// entry, so ARP, every other non-IPv4 frame and every IPv4 protocol but
// UDP are dropped and counted.
#pragma once

#include "vfpga/core/user_logic.hpp"
#include "vfpga/net/addr.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::migrate {
class StateIo;
}  // namespace vfpga::migrate

namespace vfpga::core {

struct NetDeviceConfig {
  /// Offer TX checksum offload (VIRTIO_NET_F_CSUM).
  bool offer_csum = true;
};

/// User-logic pipeline model of the echo personality (fabric cycles).
struct NetPipelineTiming {
  /// Fixed cycles + per-8-byte-beat cycles (parse + rebuild), doubled
  /// when a checksum must be computed in the slow path.
  u64 fixed_cycles;
  u64 cycles_per_beat;
};
inline constexpr NetPipelineTiming kNetPipelineTiming{.fixed_cycles = 52,
                                                      .cycles_per_beat = 1};

class NetDeviceLogic final : public UserLogic {
 public:
  /// The FPGA's addresses on the point-to-point link to the host.
  static constexpr net::MacAddr kFpgaMac{{0x02, 0xfa, 0xde, 0x00, 0x00, 0x01}};
  static constexpr net::Ipv4Addr kFpgaIp =
      net::Ipv4Addr::from_octets(10, 42, 0, 2);

  explicit NetDeviceLogic(NetDeviceConfig config = {});

  // ---- UserLogic ---------------------------------------------------------------
  [[nodiscard]] virtio::DeviceType device_type() const override {
    return virtio::DeviceType::Net;
  }
  [[nodiscard]] virtio::FeatureSet device_features() const override;
  /// The paper's one RX/TX pair (§III-B): queue 0 receives, queue 1
  /// transmits.
  [[nodiscard]] u16 queue_count() const override { return 2; }
  void on_driver_ready(virtio::FeatureSet negotiated) override;
  [[nodiscard]] u32 device_config_size() const override {
    return virtio::net::NetConfigLayout::kSize;
  }
  [[nodiscard]] u8 device_config_read(u32 offset) const override;
  std::optional<Response> process(u16 queue, ConstByteSpan payload,
                                  u32 writable_capacity,
                                  const ChainMeta& meta) override;

  // ---- stats ---------------------------------------------------------------------
  [[nodiscard]] u64 udp_echoes() const { return udp_echoes_; }
  [[nodiscard]] u64 checksums_offloaded() const {
    return checksums_offloaded_;
  }
  [[nodiscard]] u64 dropped() const { return dropped_; }
  [[nodiscard]] const NetDeviceConfig& device_config() const {
    return config_;
  }
  [[nodiscard]] virtio::FeatureSet negotiated() const { return negotiated_; }

  /// Snapshot/restore of the fabric personality's dynamic state:
  /// negotiated features and counters.
  void transfer(migrate::StateIo& io);

 private:
  [[nodiscard]] u64 processing_cycles(u64 frame_bytes, bool checksummed) const;

  NetDeviceConfig config_;
  virtio::FeatureSet negotiated_{};
  u64 udp_echoes_ = 0;
  u64 checksums_offloaded_ = 0;
  u64 dropped_ = 0;
};

}  // namespace vfpga::core
