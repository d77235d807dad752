#include "vfpga/core/virtio_controller.hpp"

#include <algorithm>
#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/common/endian.hpp"
#include "vfpga/common/log.hpp"
#include "vfpga/fault/fault_plane.hpp"
#include "vfpga/migrate/state_io.hpp"

namespace vfpga::core {
namespace {

using virtio::commoncfg::kConfigGeneration;
using virtio::commoncfg::kDeviceFeature;
using virtio::commoncfg::kDeviceFeatureSelect;
using virtio::commoncfg::kDeviceStatus;
using virtio::commoncfg::kDriverFeature;
using virtio::commoncfg::kDriverFeatureSelect;
using virtio::commoncfg::kMsixConfig;
using virtio::commoncfg::kNumQueues;
using virtio::commoncfg::kQueueDesc;
using virtio::commoncfg::kQueueDevice;
using virtio::commoncfg::kQueueDriver;
using virtio::commoncfg::kQueueEnable;
using virtio::commoncfg::kQueueMsixVector;
using virtio::commoncfg::kQueueNotifyOff;
using virtio::commoncfg::kQueueSelect;
using virtio::commoncfg::kQueueSize;

/// PCI class code per device personality.
struct ClassCode {
  u8 base, sub, prog_if;
};

ClassCode class_code_for(virtio::DeviceType type) {
  switch (type) {
    case virtio::DeviceType::Net:
      return {0x02, 0x00, 0x00};  // network controller, ethernet
    case virtio::DeviceType::Block:
      return {0x01, 0x80, 0x00};  // mass storage, other
    case virtio::DeviceType::Console:
      return {0x07, 0x80, 0x00};  // communication, other
    default:
      return {0xff, 0x00, 0x00};
  }
}

/// What the split queue engine can walk (§2.7): a power-of-two size, a
/// 16-byte aligned descriptor table and a 4-byte aligned used ring.
bool split_ring_walkable(u16 size, const virtio::RingAddresses& rings) {
  return size != 0 && (size & (size - 1)) == 0 &&
         rings.desc % virtio::kDescAlign == 0 &&
         rings.used % virtio::kUsedAlign == 0;
}

}  // namespace

VirtioDeviceFunction::VirtioDeviceFunction(UserLogic& user_logic,
                                           ControllerConfig config)
    : user_logic_(&user_logic),
      config_(config),
      bram_(kBramBytes),
      queue_state_(user_logic.queue_count()),
      engines_(user_logic.queue_count()),
      credits_(user_logic.queue_count(), 0),
      total_drained_(user_logic.queue_count(), 0),
      queue_busy_until_(user_logic.queue_count()) {
  const virtio::DeviceType type = user_logic.device_type();
  auto& cfg = this->config();
  cfg.set_ids(virtio::kVirtioPciVendorId, virtio::modern_pci_device_id(type),
              virtio::kVirtioPciVendorId, static_cast<u16>(type));
  cfg.set_revision(virtio::kVirtioPciModernRevision);
  const ClassCode cc = class_code_for(type);
  cfg.set_class_code(cc.base, cc.sub, cc.prog_if);
  cfg.define_bar(0, pcie::BarDefinition{kBar0Size, /*is_64bit=*/true,
                                        /*prefetchable=*/false});

  cfg.add_capability(pcie::CapabilityId::PciExpress,
                     pcie::PciExpressCapability{}.encode());
  const u16 vectors = static_cast<u16>(user_logic.queue_count() + 1);
  cfg.add_capability(
      pcie::CapabilityId::MsiX,
      pcie::make_msix_capability_body(vectors, /*table_bar=*/0,
                                      static_cast<u32>(kMsixTableOffset),
                                      /*pba_bar=*/0,
                                      static_cast<u32>(kMsixPbaOffset)));

  virtio::VirtioPciLayout layout;
  layout.common = {0, static_cast<u32>(kCommonCfgOffset),
                   virtio::commoncfg::kSize};
  layout.notify = {0, static_cast<u32>(kNotifyOffset),
                   kNotifyOffMultiplier * user_logic.queue_count()};
  layout.notify_off_multiplier = kNotifyOffMultiplier;
  layout.isr = {0, static_cast<u32>(kIsrOffset), 1};
  layout.device_specific = {0, static_cast<u32>(kDeviceCfgOffset),
                            user_logic.device_config_size()};
  virtio::add_virtio_capabilities(cfg, layout);

  offered_ = user_logic.device_features();
  offered_.set(virtio::feature::kVersion1);
  offered_.set(virtio::feature::kRingEventIdx);
  offered_.set(virtio::feature::kRingIndirectDesc);
  if (config_.policy.offer_packed) {
    offered_.set(virtio::feature::kRingPacked);
  }

  for (auto& qs : queue_state_) {
    qs.size = config_.max_queue_size;
  }
}

VirtioDeviceFunction::~VirtioDeviceFunction() = default;

void VirtioDeviceFunction::connect(pcie::RootComplex& rc) {
  port_.emplace(rc.dma_port(*this));
  msix_ = std::make_unique<pcie::MsixTable>(
      static_cast<u32>(user_logic_->queue_count() + 1));
  h2c_ = std::make_unique<xdma::DmaChannel>(xdma::Direction::H2C, *port_,
                                            bram_, &counters_);
  c2h_ = std::make_unique<xdma::DmaChannel>(xdma::Direction::C2H, *port_,
                                            bram_, &counters_);
}

std::unique_ptr<IQueueEngine> VirtioDeviceFunction::make_engine(
    virtio::RingFormat format) const {
  switch (format) {
    case virtio::RingFormat::kSplit:
      return std::make_unique<QueueEngine>(*port_, config_.policy, fault_);
    case virtio::RingFormat::kPacked:
      return std::make_unique<PackedQueueEngine>(*port_, fault_);
    default:
      return nullptr;
  }
}

IQueueEngine& VirtioDeviceFunction::engine(u16 q) {
  VFPGA_EXPECTS(q < engines_.size());
  VFPGA_EXPECTS(engines_[q] != nullptr);
  return *engines_[q];
}

// ---- MMIO dispatch -----------------------------------------------------------

u64 VirtioDeviceFunction::bar_read(u32 bar, BarOffset offset, u32 size,
                                   sim::SimTime at) {
  VFPGA_EXPECTS(bar == 0);
  (void)at;
  if (offset >= kCommonCfgOffset &&
      offset < kCommonCfgOffset + virtio::commoncfg::kSize) {
    return common_read(offset - kCommonCfgOffset, size);
  }
  if (offset == kIsrOffset) {
    const u8 isr = isr_status_;
    isr_status_ = 0;  // read-to-clear (§4.1.4.5)
    return isr;
  }
  if (offset >= kDeviceCfgOffset &&
      offset < kDeviceCfgOffset + user_logic_->device_config_size()) {
    u64 value = 0;
    for (u32 i = 0; i < size; ++i) {
      value |= static_cast<u64>(user_logic_->device_config_read(
                   static_cast<u32>(offset - kDeviceCfgOffset) + i))
               << (8 * i);
    }
    return value;
  }
  if (offset >= kMsixTableOffset && offset < kMsixPbaOffset) {
    return msix_->aperture_read(offset - kMsixTableOffset, size);
  }
  return 0;
}

void VirtioDeviceFunction::bar_write(u32 bar, BarOffset offset, u64 value,
                                     u32 size, sim::SimTime at) {
  VFPGA_EXPECTS(bar == 0);
  if (offset >= kCommonCfgOffset &&
      offset < kCommonCfgOffset + virtio::commoncfg::kSize) {
    common_write(offset - kCommonCfgOffset, value, size, at);
    return;
  }
  if (offset >= kDeviceCfgOffset &&
      offset < kDeviceCfgOffset + user_logic_->device_config_size()) {
    return;  // every personality's config structure is read-only
  }
  if (offset >= kNotifyOffset &&
      offset <
          kNotifyOffset + kNotifyOffMultiplier * user_logic_->queue_count()) {
    const u16 queue =
        static_cast<u16>((offset - kNotifyOffset) / kNotifyOffMultiplier);
    process_notify(queue, at);
    return;
  }
  if (offset >= kMsixTableOffset && offset < kMsixPbaOffset) {
    msix_->aperture_write(offset - kMsixTableOffset, static_cast<u32>(value),
                          size, at, *port_);
    return;
  }
}

// ---- common configuration ------------------------------------------------------

u64 VirtioDeviceFunction::common_read(BarOffset offset, u32 size) {
  // A queue_select naming no queue selects an absent one: its queue_size
  // reads 0, "unavailable" (§4.1.4.3).
  static const QueueState kAbsentQueue{};
  const QueueState& q = queue_select_ < queue_state_.size()
                            ? queue_state_[queue_select_]
                            : kAbsentQueue;
  switch (offset) {
    case kDeviceFeatureSelect:
      return device_feature_select_;
    case kDeviceFeature:
      return offered_.window(device_feature_select_);
    case kDriverFeatureSelect:
      return driver_feature_select_;
    case kDriverFeature:
      return driver_features_.window(driver_feature_select_);
    case kMsixConfig:
      return msix_config_vector_;
    case kNumQueues:
      return user_logic_->queue_count();
    case kDeviceStatus:
      return status_.status();
    case kConfigGeneration:
      return config_generation_;
    case kQueueSelect:
      return queue_select_;
    case kQueueSize:
      return q.size;
    case kQueueMsixVector:
      return q.msix_vector;
    case kQueueEnable:
      return q.enabled ? 1 : 0;
    case kQueueNotifyOff:
      return queue_select_;  // notify offset == queue index
    case kQueueDesc:
      return size == 8 ? q.rings.desc : q.rings.desc & 0xffffffffu;
    case kQueueDesc + 4:
      return q.rings.desc >> 32;
    case kQueueDriver:
      return size == 8 ? q.rings.avail : q.rings.avail & 0xffffffffu;
    case kQueueDriver + 4:
      return q.rings.avail >> 32;
    case kQueueDevice:
      return size == 8 ? q.rings.used : q.rings.used & 0xffffffffu;
    case kQueueDevice + 4:
      return q.rings.used >> 32;
    default:
      return 0;
  }
}

void VirtioDeviceFunction::common_write(BarOffset offset, u64 value, u32 size,
                                        sim::SimTime at) {
  const auto set_lo = [](u64& field, u64 v) {
    field = (field & ~0xffffffffull) | (v & 0xffffffffull);
  };
  const auto set_hi = [](u64& field, u64 v) {
    field = (field & 0xffffffffull) | (v << 32);
  };
  QueueState* const q = queue_select_ < queue_state_.size()
                            ? &queue_state_[queue_select_]
                            : nullptr;
  if (offset > kQueueSelect && q == nullptr) {
    // Every register after queue_select belongs to the selected queue,
    // and an absent queue has none to write.
    VFPGA_WARN("virtio-ctl", "write to an absent queue's register: ignored");
    return;
  }
  switch (offset) {
    case kDeviceFeatureSelect:
      device_feature_select_ = static_cast<u32>(value);
      break;
    case kDriverFeatureSelect:
      driver_feature_select_ = static_cast<u32>(value);
      break;
    case kDriverFeature:
      driver_features_.set_window(driver_feature_select_,
                                  static_cast<u32>(value));
      break;
    case kMsixConfig: {
      // Reject vectors past the advertised MSI-X table instead of
      // letting MsixTable::fire() abort later: the write simply does
      // not take, which the driver observes via read-back (§4.1.4.3).
      const u16 v = static_cast<u16>(value);
      const u16 table_size = static_cast<u16>(queue_state_.size() + 1);
      if (v != virtio::kNoVector && v >= table_size) {
        VFPGA_WARN("virtio-ctl", "config MSI-X vector out of range: rejected");
        msix_config_vector_ = virtio::kNoVector;
      } else {
        msix_config_vector_ = v;
      }
      break;
    }
    case kDeviceStatus: {
      if (value == 0) {
        device_reset();
        break;
      }
      const bool was_live = status_.live();
      status_.driver_writes_status(static_cast<u8>(value), offered_,
                                   driver_features_);
      if (!was_live && status_.live()) {
        on_driver_ok(at);
      }
      break;
    }
    case kQueueSelect:
      queue_select_ = static_cast<u16>(value);
      break;
    case kQueueSize:
      if (value == 0 || value > config_.max_queue_size) {
        VFPGA_WARN("virtio-ctl", "queue size out of range: ignored");
        break;
      }
      q->size = static_cast<u16>(value);
      break;
    case kQueueMsixVector: {
      const u16 v = static_cast<u16>(value);
      const u16 table_size = static_cast<u16>(queue_state_.size() + 1);
      if (v != virtio::kNoVector && v >= table_size) {
        VFPGA_WARN("virtio-ctl", "queue MSI-X vector out of range: rejected");
        q->msix_vector = virtio::kNoVector;
      } else {
        q->msix_vector = v;
      }
      break;
    }
    case kQueueEnable:
      if (value == 1 && !q->enabled) {
        // Latch the rings: from here on a single doorbell suffices to
        // start a transfer (§IV-A). The negotiated ring format selects
        // the queue FSM flavour.
        const virtio::FeatureSet negotiated =
            offered_.intersect(driver_features_);
        const bool packed = negotiated.has(virtio::feature::kRingPacked);
        if (!packed && !split_ring_walkable(q->size, q->rings)) {
          // A split ring the engine cannot walk (§2.7): the enable does
          // not take, and the device needs a reset to recover.
          device_error(at);
          break;
        }
        q->enabled = true;
        engines_[queue_select_] = make_engine(
            packed ? virtio::RingFormat::kPacked : virtio::RingFormat::kSplit);
        engines_[queue_select_]->configure(q->rings, q->size, negotiated, at);
        credits_[queue_select_] = 0;
      }
      break;
    case kQueueDesc:
      if (size == 8) {
        q->rings.desc = value;
      } else {
        set_lo(q->rings.desc, value);
      }
      break;
    case kQueueDesc + 4:
      set_hi(q->rings.desc, value);
      break;
    case kQueueDriver:
      if (size == 8) {
        q->rings.avail = value;
      } else {
        set_lo(q->rings.avail, value);
      }
      break;
    case kQueueDriver + 4:
      set_hi(q->rings.avail, value);
      break;
    case kQueueDevice:
      if (size == 8) {
        q->rings.used = value;
      } else {
        set_lo(q->rings.used, value);
      }
      break;
    case kQueueDevice + 4:
      set_hi(q->rings.used, value);
      break;
    default:
      break;
  }
}

void VirtioDeviceFunction::device_reset() {
  status_.reset();
  driver_features_ = virtio::FeatureSet{};
  device_feature_select_ = 0;
  driver_feature_select_ = 0;
  queue_select_ = 0;
  isr_status_ = 0;
  msix_config_vector_ = virtio::kNoVector;
  for (auto& qs : queue_state_) {
    qs = QueueState{};
    qs.size = config_.max_queue_size;
  }
  for (auto& e : engines_) {
    e.reset();
  }
  std::fill(credits_.begin(), credits_.end(), u16{0});
  std::fill(total_drained_.begin(), total_drained_.end(), u16{0});
  std::fill(queue_busy_until_.begin(), queue_busy_until_.end(),
            sim::SimTime{});
  frames_processed_ = 0;
  interrupts_suppressed_ = 0;
  ++config_generation_;
}

void VirtioDeviceFunction::on_driver_ok(sim::SimTime at) {
  (void)at;
  user_logic_->on_driver_ready(offered_.intersect(driver_features_));
}

// ---- datapath ---------------------------------------------------------------------

void VirtioDeviceFunction::device_error(sim::SimTime at) {
  ++device_errors_;
  status_.device_error();
  isr_status_ |= virtio::isr::kConfigInterrupt;
  if (msix_config_vector_ != virtio::kNoVector) {
    msix_->fire(msix_config_vector_, at, *port_);
  }
  VFPGA_WARN("virtio-ctl", "device error: DEVICE_NEEDS_RESET latched");
}

void VirtioDeviceFunction::fire_queue_interrupt(u16 queue, sim::SimTime at) {
  const u16 vector = queue_state_[queue].msix_vector;
  if (vector == virtio::kNoVector) {
    return;
  }
  // Blk completions have their own lost-interrupt class so the campaign
  // can target the storage path without disturbing net-path seeds.
  const fault::FaultClass irq_lost_class =
      user_logic_->device_type() == virtio::DeviceType::Block
          ? fault::FaultClass::kBlkIrqLost
          : fault::FaultClass::kQueueIrqLost;
  if (fault_ != nullptr && fault_->should_inject(irq_lost_class)) {
    // The MSI-X message for this queue dies at the device: no ISR
    // latch, no delivery. The driver's watchdog/poll path must notice.
    ++queue_irqs_lost_;
    return;
  }
  isr_status_ |= virtio::isr::kQueueInterrupt;
  msix_->fire(vector, at, *port_);
  counters_.capture(fpga::CounterEvent::kIrqSent, at);
}

void VirtioDeviceFunction::process_notify(u16 queue, sim::SimTime at) {
  VFPGA_EXPECTS(queue < queue_state_.size());
  if (!status_.live() || !queue_state_[queue].enabled) {
    return;  // spurious notify before DRIVER_OK: ignore, as hardware would
  }
  if (status_.needs_reset()) {
    return;  // error state: datapath fenced until the driver resets us
  }
  counters_.capture(fpga::CounterEvent::kNotify, at);
  IQueueEngine& eng = engine(queue);
  sim::SimTime t =
      at + kQueueTiming.clock.cycles(kQueueTiming.notify_decode_cycles);
  // Per-queue engine serialization: a notify landing while this queue's
  // FSM is still working queues up behind it (other queues in parallel).
  if (queue_busy_until_[queue] > t) {
    t = queue_busy_until_[queue];
  }

  // "The device then accesses the data structures in host memory to
  // determine how many new buffers were exposed" (§IV-A).
  auto poll = eng.poll_available(t);
  t = poll.done;
  credits_[queue] = poll.available;
  total_drained_[queue] = static_cast<u16>(total_drained_[queue] +
                                           credits_[queue]);
  // Advance the kick-suppression threshold past what we are about to
  // drain (split EVENT_IDX; no-op for packed flags-only suppression).
  t = eng.post_drain_update(total_drained_[queue], t);

  while (credits_[queue] > 0) {
    --credits_[queue];
    FetchedChain& chain = notify_chain_;
    t = eng.consume_chain(t, chain);
    if (chain.error) {
      // Corrupted descriptor table: never touch the chain's buffers —
      // fence the datapath and wait for the driver to reset us.
      device_error(t);
      return;
    }

    // Stage the device-readable payload into BRAM through the DMA
    // engine (Fig. 2: the engine moves data between host memory and
    // FPGA memory), then hand it to user logic. Multi-segment chains
    // gather as one pipelined read burst; single-buffer chains keep the
    // plain transfer path.
    payload_.clear();
    gather_.clear();
    for (const virtio::Descriptor& d : chain.descriptors) {
      if ((d.flags & virtio::descflags::kWrite) != 0) {
        continue;
      }
      gather_.push_back({d.addr, d.len});
    }
    if (gather_.size() > 1) {
      u64 total = 0;
      for (const xdma::DmaChannel::GatherSegment& s : gather_) {
        total += s.bytes;
      }
      t = h2c_->transfer_gather(t, gather_, 0);
      payload_.resize(total);
      bram_.read(0, ByteSpan{payload_});
    } else {
      FpgaAddr bram_cursor = 0;
      for (const xdma::DmaChannel::GatherSegment& s : gather_) {
        t = h2c_->transfer(t, s.host_addr, bram_cursor, s.bytes);
        const std::size_t old = payload_.size();
        payload_.resize(old + s.bytes);
        bram_.read(bram_cursor, ByteSpan{payload_}.subspan(old));
        bram_cursor += s.bytes;
      }
    }
    ++frames_processed_;

    u32 writable_capacity = 0;
    UserLogic::ChainMeta meta;
    for (const virtio::Descriptor& d : chain.descriptors) {
      if ((d.flags & virtio::descflags::kWrite) != 0) {
        writable_capacity += d.len;
        ++meta.writable_descriptors;
        meta.largest_writable_bytes =
            std::max(meta.largest_writable_bytes, d.len);
      } else {
        ++meta.readable_descriptors;
        meta.largest_readable_bytes =
            std::max(meta.largest_readable_bytes, d.len);
      }
    }

    counters_.capture(fpga::CounterEvent::kUlStart, t);
    std::optional<UserLogic::Response> response =
        user_logic_->process(queue, payload_, writable_capacity, meta);
    if (response.has_value()) {
      const sim::Duration processing =
          kQueueTiming.clock.cycles(response->processing_cycles);
      t += processing;
      last_response_generation_ = processing;
    } else {
      last_response_generation_ = sim::Duration{};
    }
    counters_.capture(fpga::CounterEvent::kUlDone, t);

    const bool same_chain_response =
        response.has_value() && response->target_queue == queue;

    if (same_chain_response) {
      // Block-device style: write into the writable tail of this chain.
      const Bytes& payload = response->payload;
      u32 written = 0;
      sim::SimTime issuer = t;
      std::size_t off = 0;
      for (const virtio::Descriptor& d : chain.descriptors) {
        if ((d.flags & virtio::descflags::kWrite) == 0 ||
            off >= payload.size()) {
          continue;
        }
        const u32 chunk = static_cast<u32>(
            std::min<std::size_t>(d.len, payload.size() - off));
        bram_.write(0, ConstByteSpan{payload}.subspan(off, chunk));
        issuer = c2h_->transfer(issuer, d.addr, 0, chunk);
        off += chunk;
        written += chunk;
      }
      VFPGA_ASSERT(off == payload.size());
      if (response->chain_status.has_value()) {
        // §5.2.6: the status byte is the LAST byte of the chain's last
        // device-writable descriptor — the dedicated status descriptor
        // in a conforming [header][data][status] request. The data
        // scatter above must have left it free.
        VFPGA_EXPECTS(payload.size() + 1 <= writable_capacity);
        const virtio::Descriptor* last_writable = nullptr;
        for (const virtio::Descriptor& d : chain.descriptors) {
          if ((d.flags & virtio::descflags::kWrite) != 0) {
            last_writable = &d;
          }
        }
        VFPGA_ASSERT(last_writable != nullptr);
        const std::array<u8, 1> status_byte{*response->chain_status};
        bram_.write(0, status_byte);
        issuer = c2h_->transfer(issuer,
                                last_writable->addr + last_writable->len - 1,
                                0, 1);
        written += 1;
      }
      t = issuer;
      const auto completion =
          eng.complete_chain(chain, written, t, /*refresh_suppression=*/true);
      t = completion.engine_free;
      if (completion.interrupt) {
        fire_queue_interrupt(queue, t);
      } else {
        ++interrupts_suppressed_;
      }
      t = replenish_credits(eng, queue, t);
      continue;
    }

    // Per the paper's naive serialized FSM, the TX used-ring update runs
    // before the response delivery. It only recycles the buffer; the
    // driver keeps its interrupt suppressed, so the FSM may use its
    // cached used_event threshold instead of a fresh DMA read.
    const auto completion =
        eng.complete_chain(chain, 0, t, /*refresh_suppression=*/false);
    t = completion.engine_free;
    if (completion.interrupt) {
      fire_queue_interrupt(queue, t);
    } else {
      ++interrupts_suppressed_;
    }
    if (response.has_value()) {
      t = deliver_response(*response, t);
    }
    t = replenish_credits(eng, queue, t);
  }
  queue_busy_until_[queue] = t;
}

sim::SimTime VirtioDeviceFunction::replenish_credits(IQueueEngine& eng,
                                                     u16 queue,
                                                     sim::SimTime t) {
  // Packed rings cannot report an exact outstanding count: when the
  // drain estimate runs out, peek again until the ring is empty.
  if (credits_[queue] == 0 && !eng.poll_is_exact()) {
    const auto poll = eng.poll_available(t);
    t = poll.done;
    credits_[queue] = poll.available;
    total_drained_[queue] =
        static_cast<u16>(total_drained_[queue] + poll.available);
  }
  return t;
}

sim::SimTime VirtioDeviceFunction::deliver_response(
    const UserLogic::Response& response, sim::SimTime t) {
  const u16 target = response.target_queue;
  VFPGA_EXPECTS(target < queue_state_.size());
  if (!queue_state_[target].enabled) {
    return t;  // target queue not live: drop, as a NIC drops without buffers
  }
  IQueueEngine& eng = engine(target);
  if (queue_busy_until_[target] > t) {
    t = queue_busy_until_[target];
  }

  // Every response is one frame in one RX chain.
  if (credits_[target] == 0 || !config_.policy.trust_cached_credits) {
    const auto poll = eng.poll_available(t);
    t = poll.done;
    credits_[target] = poll.available;
    if (credits_[target] == 0) {
      VFPGA_WARN("virtio-ctl", "no RX buffer available: dropping response");
      queue_busy_until_[target] = t;
      return t;
    }
  }
  --credits_[target];
  FetchedChain& chain = rx_chain_;
  t = eng.consume_chain(t, chain);
  if (chain.error) {
    device_error(t);
    queue_busy_until_[target] = t;
    return t;
  }

  // Stage the response in BRAM, then scatter it into the chain's
  // writable buffers via the C2H engine.
  const Bytes& payload = response.payload;
  bram_.write(0, payload);
  std::size_t off = 0;
  for (const virtio::Descriptor& d : chain.descriptors) {
    if ((d.flags & virtio::descflags::kWrite) == 0) {
      continue;
    }
    if (off >= payload.size()) {
      break;
    }
    const u32 chunk =
        static_cast<u32>(std::min<std::size_t>(d.len, payload.size() - off));
    t = c2h_->transfer(t, d.addr, off, chunk);
    off += chunk;
  }
  if (off < payload.size()) {
    // A chain too small for the frame: a NIC truncates rather than
    // halting — the driver sees the short `written` total.
    VFPGA_WARN("virtio-ctl", "RX capacity exhausted: response truncated");
  }
  const auto completion = eng.complete_chain(
      chain, static_cast<u32>(off), t, /*refresh_suppression=*/true);
  t = completion.engine_free;
  if (completion.interrupt) {
    fire_queue_interrupt(target, t);
  } else {
    ++interrupts_suppressed_;
  }
  queue_busy_until_[target] = t;
  return t;
}

// ---- snapshot ---------------------------------------------------------------------

namespace {

/// A restored MSI-X vector: kNoVector or an entry of the table. One
/// past the table fails the reader and is dropped, as a register write
/// would drop it: the failed restore's device_error() fires the config
/// vector.
void transfer_vector(migrate::StateIo& io, u16& vector,
                     std::size_t table_size) {
  io.u16(vector);
  if (vector != virtio::kNoVector && vector >= table_size) {
    vector = virtio::kNoVector;
    io.fail();
  }
}

}  // namespace

void VirtioDeviceFunction::transfer(migrate::StateIo& io) {
  u8 status = status_.status();
  io.u8(status);
  if (io.loading()) {
    status_.restore_status(status);
  }
  io.features(offered_);
  io.features(driver_features_);
  io.u32(device_feature_select_);
  io.u32(driver_feature_select_);
  transfer_vector(io, msix_config_vector_, msix_->size());
  io.u16(queue_select_);  // any value: an absent queue is selectable
  io.u8(config_generation_);
  io.u8(isr_status_);

  io.expect<u16>(static_cast<u16>(queue_state_.size()));
  for (std::size_t q = 0; q < queue_state_.size() && !io.failed(); ++q) {
    QueueState& qs = queue_state_[q];
    io.u16(qs.size);
    // What a kQueueSize register write accepts.
    if (qs.size == 0 || qs.size > config_.max_queue_size) {
      io.fail();
    }
    transfer_vector(io, qs.msix_vector, msix_->size());
    io.boolean(qs.enabled);
    io.u64(qs.rings.desc);
    io.u64(qs.rings.avail);
    io.u64(qs.rings.used);

    // Recreate the engine in the serialized ring format, then overwrite
    // its registers. Unlike the kQueueEnable path this does not call
    // configure, which writes the packed device-event flags: host
    // memory already holds the source's ring bytes.
    auto format = static_cast<u8>(engines_[q] ? engines_[q]->ring_format()
                                              : virtio::RingFormat::kNone);
    io.u8(format);
    if (io.loading()) {
      const auto tag = static_cast<virtio::RingFormat>(format);
      engines_[q] = make_engine(tag);
      if (!engines_[q] && tag != virtio::RingFormat::kNone) {
        io.fail();
        return;
      }
    }
    if (engines_[q]) {
      engines_[q]->transfer(io, qs.size);
    }

    io.u16(credits_[q]);
    io.u16(total_drained_[q]);
    io.time(queue_busy_until_[q]);
  }

  io.duration(last_response_generation_);
  io.u64(frames_processed_);
  io.u64(interrupts_suppressed_);
  io.u64(queue_irqs_lost_);
  io.u64(device_errors_);

  msix_->transfer(io);
  counters_.transfer(io);
}

}  // namespace vfpga::core
