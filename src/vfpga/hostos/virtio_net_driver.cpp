#include "vfpga/hostos/virtio_net_driver.hpp"

#include <array>

#include "vfpga/common/contract.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::hostos {

using virtio::net::NetHeader;

bool VirtioNetDriver::probe(const BindContext& ctx, HostThread& thread) {
  ctx_ = ctx;
  return initialize_device(thread);
}

bool VirtioNetDriver::recover(HostThread& thread) {
  // §2.1.2 recovery: full reset (begin_probe writes status 0), feature
  // renegotiation, queue rebuild, and requeue of the (reused) buffers.
  // In-flight chains on the old rings are forfeit; upper layers retry.
  ++device_resets_;
  kick_retries_ = 0;
  tx_stall_since_.reset();
  return initialize_device(thread);
}

virtio::DriverRing& VirtioNetDriver::rx_queue() {
  return transport_.queue(virtio::net::kRxQueue);
}

virtio::DriverRing& VirtioNetDriver::tx_queue() {
  return transport_.queue(virtio::net::kTxQueue);
}

bool VirtioNetDriver::initialize_device(HostThread& thread) {
  // Device-class features the Linux virtio-net driver would accept.
  virtio::FeatureSet wanted;
  wanted.set(virtio::feature::net::kCsum);
  wanted.set(virtio::feature::net::kGuestCsum);
  wanted.set(virtio::feature::net::kMac);
  wanted.set(virtio::feature::net::kMtu);
  wanted.set(virtio::feature::net::kStatus);
  if (!transport_.begin_probe(ctx_, virtio::DeviceType::Net, wanted, thread)) {
    return false;
  }
  // Rings are rebuilt below: the device's completion log restarts at
  // zero, and any coalesced-but-unpublished TX frames are forfeit.
  rx_harvest_seq_ = 0;
  tx_pending_kick_ = 0;

  // MSI-X: entry 0 = config changes, 1 = RX, 2 = TX.
  const u32 config_vec = transport_.setup_vector(0, thread);
  (void)config_vec;
  transport_.set_config_vector(0, thread);
  rx_vector_ = transport_.setup_vector(1, thread);
  tx_vector_ = transport_.setup_vector(2, thread);

  transport_.setup_queue(virtio::net::kRxQueue, 1, thread);
  auto& tx = transport_.setup_queue(virtio::net::kTxQueue, 2, thread);

  // TX buffers, one per ring slot: virtio_net_hdr headroom immediately
  // followed by the frame area (single-buffer transmission). Allocated
  // once; a recovery cycle reuses the same memory and just rebuilds the
  // free list.
  auto& memory = transport_.memory();
  tx_buffers_.resize(tx.size());
  tx_free_.clear();
  for (u16 i = 0; i < tx.size(); ++i) {
    if (tx_buffers_[i].hdr_addr == 0) {
      const HostAddr base =
          memory.allocate(NetHeader::kSize + kFrameCapacity, 64);
      tx_buffers_[i].hdr_addr = base;
      tx_buffers_[i].frame_addr = base + NetHeader::kSize;
    }
    tx_free_.push_back(i);
  }

  if (!transport_.finish_probe(thread)) {
    return false;
  }

  // Device config: MAC + MTU.
  for (u32 i = 0; i < 6; ++i) {
    mac_.octets[i] = transport_.device_config_read8(
        virtio::net::NetConfigLayout::kMacOffset + i, thread);
  }
  if (transport_.negotiated().has(virtio::feature::net::kMtu)) {
    mtu_ = transport_.device_config_read16(
        virtio::net::NetConfigLayout::kMtuOffset, thread);
  }

  post_initial_rx_buffers();
  rx_queue().enable_interrupts();  // interrupt on the first used entry
  // Suppress TX-completion interrupts; they are harvested by NAPI.
  tx_queue().disable_interrupts();
  return true;
}

void VirtioNetDriver::post_initial_rx_buffers() {
  // Single-buffer layout: virtio_net_hdr and a full frame in one
  // descriptor, as modern virtio-net posts them.
  constexpr u32 kRxBufferBytes = NetHeader::kSize + kFrameCapacity;
  auto& rx = rx_queue();
  auto& memory = transport_.memory();
  const u16 size = rx.size();
  rx_buffers_.resize(size);
  for (u16 i = 0; i < size; ++i) {
    if (rx_buffers_[i].addr == 0) {
      rx_buffers_[i].addr = memory.allocate(kRxBufferBytes, 64);
    }
    rx_buffers_[i].len = kRxBufferBytes;
    const virtio::ChainBuffer buf{rx_buffers_[i].addr, kRxBufferBytes,
                                  /*device_writable=*/true};
    const auto handle = rx.add_chain(std::span{&buf, 1}, i);
    VFPGA_ASSERT(handle.has_value());
  }
  rx.publish();
}

VirtioNetDriver::WatchdogAction VirtioNetDriver::tx_watchdog(
    HostThread& thread) {
  VFPGA_EXPECTS(bound());
  // Flush doorbells still held by TX kick coalescing: a batch whose
  // final xmit never came must not look like a stall.
  flush_tx(thread);
  // Reclaim whatever did complete before judging the queue stuck.
  auto& tx = tx_queue();
  while (const auto completion = tx.harvest()) {
    tx_free_.push_back(static_cast<u32>(completion->token));
  }
  // A broken vring or a device that latched DEVICE_NEEDS_RESET cannot
  // make progress — no amount of re-kicking helps; reset immediately.
  if (tx.broken() || rx_queue().broken() ||
      transport_.device_needs_reset(thread)) {
    VFPGA_ASSERT(recover(thread));
    return WatchdogAction::kReset;
  }

  const u16 in_flight = static_cast<u16>(tx.size() - tx.free_descriptors());
  if (in_flight == 0) {
    kick_retries_ = 0;
    tx_stall_since_.reset();
    return WatchdogAction::kNone;
  }
  if (!tx_stall_since_.has_value()) {
    tx_stall_since_ = thread.now();
  }
  const bool deadline_passed =
      thread.now() - *tx_stall_since_ >= kWatchdogPolicy.deadline;
  if (deadline_passed || kick_retries_ >= kWatchdogPolicy.max_kick_retries) {
    VFPGA_ASSERT(recover(thread));
    return WatchdogAction::kReset;
  }
  // Bounded exponential backoff, then re-ring the doorbell: a lost
  // notify left the published chains in the ring, so a repeat kick is
  // enough to restart the device FSM.
  const sim::Duration backoff =
      kWatchdogPolicy.backoff_base * static_cast<i64>(1ll << kick_retries_);
  ++kick_retries_;
  thread.block_until(thread.now() + backoff);
  transport_.notify(virtio::net::kTxQueue, thread);
  ++watchdog_kicks_;
  return WatchdogAction::kRekicked;
}

bool VirtioNetDriver::xmit_frame(HostThread& thread, ConstByteSpan frame,
                                 bool needs_csum, u16 csum_start,
                                 u16 csum_offset, bool more_coming) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(frame.size() <= kFrameCapacity);
  thread.exec(thread.costs().virtio_xmit);

  auto& tx = tx_queue();
  if (tx_free_.empty()) {
    // Ring full: free completed skbs inline, as virtio-net's start_xmit
    // does before netif_stop_queue.
    while (const auto completion = tx.harvest()) {
      tx_free_.push_back(static_cast<u32>(completion->token));
    }
  }
  if (tx_free_.empty()) {
    // Still full: a stuck device is holding every slot. Drop the frame
    // (netif_stop_queue analogue) and leave recovery to the watchdog.
    ++tx_dropped_;
    return false;
  }
  const u32 slot = tx_free_.front();
  tx_free_.pop_front();

  NetHeader hdr;
  if (needs_csum && transport_.negotiated().has(virtio::feature::net::kCsum)) {
    hdr.flags = NetHeader::kNeedsCsum;
    hdr.csum_start = csum_start;
    hdr.csum_offset = csum_offset;
  }
  std::array<u8, NetHeader::kSize> hdr_bytes{};
  hdr.encode(hdr_bytes);
  auto& memory = transport_.memory();
  memory.write(tx_buffers_[slot].hdr_addr, hdr_bytes);
  memory.write(tx_buffers_[slot].frame_addr, frame);

  std::optional<u16> handle;
  if (datapath_.tx_path == TxPath::kBounceCopy) {
    // Contiguous bounce buffer, one descriptor. The calibrated
    // virtio_xmit segment covers the sub-MTU memcpy.
    const virtio::ChainBuffer chain{
        tx_buffers_[slot].hdr_addr,
        static_cast<u32>(NetHeader::kSize + frame.size()), false};
    handle = tx.add_chain(std::span{&chain, 1}, slot);
  } else {
    // Zero-copy: the header and the frame go out as separate
    // descriptors — no bounce memcpy; the charge is one DMA mapping per
    // segment (dma_map_single / sg-entry build). A frame of at most
    // kFrameCapacity bytes fits one page, so it is one segment.
    const std::array<virtio::ChainBuffer, 2> sg = {
        virtio::ChainBuffer{tx_buffers_[slot].hdr_addr,
                            static_cast<u32>(NetHeader::kSize), false},
        virtio::ChainBuffer{tx_buffers_[slot].frame_addr,
                            static_cast<u32>(frame.size()), false}};
    for (u64 i = 0; i < sg.size(); ++i) {
      thread.exec(thread.costs().dma_map_segment);
    }
    const bool indirect =
        transport_.negotiated().has(virtio::feature::kRingIndirectDesc);
    const std::span<const virtio::ChainBuffer> list{sg.data(), sg.size()};
    handle = indirect ? tx.add_chain_indirect(list, slot)
                      : tx.add_chain(list, slot);
    if (!handle.has_value()) {
      // A chained sg-list needs one ring descriptor per segment, so the
      // ring can fill before the slot pool does. Reclaim completions and
      // retry once; drop on a genuinely full ring.
      while (const auto completion = tx.harvest()) {
        tx_free_.push_back(static_cast<u32>(completion->token));
      }
      handle = indirect ? tx.add_chain_indirect(list, slot)
                        : tx.add_chain(list, slot);
    }
  }
  if (!handle.has_value()) {
    tx_free_.push_front(slot);
    ++tx_dropped_;
    return false;
  }
  ++tx_packets_;
  ++tx_pending_kick_;

  if (more_coming && tx_pending_kick_ < kick_coalesce_) {
    // xmit_more: hold the publish and the doorbell. The whole batch
    // becomes one avail-idx update — one EVENT_IDX window, at most one
    // kick — when the final frame (or an explicit flush_tx) lands.
    ++tx_kicks_coalesced_;
    return false;
  }
  return flush_tx(thread);
}

bool VirtioNetDriver::flush_tx(HostThread& thread) {
  VFPGA_EXPECTS(bound());
  if (tx_pending_kick_ == 0) {
    return false;
  }
  tx_pending_kick_ = 0;
  auto& tx = tx_queue();
  tx.publish();

  if (!tx.should_kick()) {
    return false;
  }
  // The doorbell: one posted write. The FPGA takes it from here.
  transport_.notify(virtio::net::kTxQueue, thread);
  ++tx_kicks_;
  return true;
}

void VirtioNetDriver::harvest_one_rx(virtio::DriverRing& rx) {
  const auto completion = rx.harvest();
  VFPGA_ASSERT(completion.has_value());
  const RxBuffer& buf = rx_buffers_[completion->token];
  const auto& memory = transport_.memory();
  VFPGA_ASSERT(completion->written >= NetHeader::kSize);
  std::array<u8, NetHeader::kSize> hdr_bytes{};
  memory.read(buf.addr, hdr_bytes);
  const NetHeader vhdr = NetHeader::decode(hdr_bytes);
  RxFrame received;
  received.csum_valid = (vhdr.flags & NetHeader::kDataValid) != 0;
  // Frame bytes go straight from the buffer into the backlog entry,
  // with no intermediate copy.
  received.frame.resize(completion->written - NetHeader::kSize);
  memory.read(buf.addr + NetHeader::kSize, ByteSpan{received.frame});
  rx_backlog_.push_back(std::move(received));
  ++rx_packets_;
  ++rx_harvest_seq_;

  // Recycle the buffer straight back into the avail ring.
  const virtio::ChainBuffer chain{buf.addr, buf.len, true};
  const auto handle = rx.add_chain(std::span{&chain, 1}, completion->token);
  VFPGA_ASSERT(handle.has_value());
}

u32 VirtioNetDriver::napi_poll(HostThread& thread) {
  VFPGA_EXPECTS(bound());
  thread.exec(thread.costs().virtio_rx_napi);

  auto& rx = rx_queue();
  u32 harvested = 0;
  while (rx.used_pending()) {
    harvest_one_rx(rx);
    ++harvested;
  }
  if (harvested > 0) {
    rx.publish();
    thread.exec(thread.costs().virtio_rx_refill);
    // Re-enable RX interrupts: ask for one when the next entry lands.
    rx.enable_interrupts();
  }

  // TX completions: recycle buffers, keep interrupts suppressed.
  auto& tx = tx_queue();
  while (const auto completion = tx.harvest()) {
    tx_free_.push_back(static_cast<u32>(completion->token));
  }
  tx.disable_interrupts();
  return harvested;
}

u32 VirtioNetDriver::busy_poll(HostThread& thread, sim::Duration budget) {
  VFPGA_EXPECTS(bound());
  if (budget <= sim::Duration{}) {
    budget = kBusyPollPolicy.default_budget;
  }
  ++busy_polls_;

  // A deferred TX doorbell would deadlock the poll: the device has not
  // seen the frames whose completions we are about to spin for.
  flush_tx(thread);

  auto& rx = rx_queue();
  // Disarm the RX vector: poll mode owns this queue now. With
  // EVENT_IDX this is the used_event push-away write; the device's next
  // completion then skips the MSI-X message entirely.
  rx.disable_interrupts();
  thread.exec(thread.costs().irq_disarm);

  const sim::SimTime enter = thread.now();
  const sim::SimTime deadline = enter + budget;
  u32 harvested = 0;
  u64 spins = 0;
  for (;;) {
    VFPGA_ASSERT(spins < kBusyPollPolicy.max_spin_iterations);
    ++spins;
    // One poll iteration: re-read the used ring's idx cache line.
    thread.exec_poll(thread.costs().busy_poll_iteration);
    const auto visible = ctx_.device->completion_visible_time(
        virtio::net::kRxQueue, rx_harvest_seq_);
    if (!visible.has_value()) {
      // Nothing further is in flight: with the transaction-level device
      // (completions are computed synchronously at notify) no amount of
      // extra spinning can make data appear.
      break;
    }
    if (*visible > deadline) {
      break;  // will not land within the budget: fall back to interrupts
    }
    if (*visible > thread.now()) {
      // Spin across the arrival gap: the core stays runnable (full
      // interference accrual) until the used-ring write lands.
      thread.spin_until(*visible);
    }
    if (harvested == 0) {
      note_rx_wait(thread.now() - enter);
    }
    // Batched harvest: the one used-idx read this iteration paid for
    // covers every completion whose used-ring write is already visible,
    // not just the one the spin ended on — drain them all before the
    // next poll charge.
    harvest_one_rx(rx);
    ++harvested;
    for (;;) {
      const auto next = ctx_.device->completion_visible_time(
          virtio::net::kRxQueue, rx_harvest_seq_);
      if (!next.has_value() || *next > thread.now()) {
        break;
      }
      harvest_one_rx(rx);
      ++harvested;
    }
  }
  busy_poll_spins_ += spins;
  busy_poll_harvested_ += harvested;

  if (harvested > 0) {
    rx.publish();  // repost the recycled buffers
    thread.exec(thread.costs().virtio_rx_refill);
    // Retire the interrupts our harvests made moot: deliveries up to
    // now correspond to completions already taken above. A pending
    // delivery with a future timestamp belongs to a completion we chose
    // to leave (past the budget) — it stays queued so the blocking
    // fallback still gets its wake.
    InterruptController& irq = *ctx_.irq;
    while (const auto at = irq.next_pending(rx_vector_)) {
      if (*at > thread.now()) {
        break;
      }
      irq.consume(rx_vector_);
    }
  } else {
    // Budget expired dry: charge the full wait to the EWMA so the
    // adaptive controller drifts toward sleeping.
    note_rx_wait(budget);
  }

  // TX completions: recycle buffers, keep interrupts suppressed.
  auto& tx = tx_queue();
  while (const auto completion = tx.harvest()) {
    tx_free_.push_back(static_cast<u32>(completion->token));
  }
  tx.disable_interrupts();

  // Hybrid exit: re-arm so a completion landing after the budget raises
  // the normal RX interrupt and wakes a sleeper.
  rx.enable_interrupts();
  thread.exec(thread.costs().irq_rearm);
  return harvested;
}

bool VirtioNetDriver::should_busy_poll() const {
  const double ewma = rx_wait_ewma_us_;
  // No observation yet: optimistically spin — one budget-bounded poll
  // either pays off or seeds the EWMA with the miss.
  if (ewma < 0.0) {
    return true;
  }
  return ewma <= kBusyPollPolicy.spin_threshold.micros();
}

void VirtioNetDriver::note_rx_wait(sim::Duration wait) {
  const double us = wait.micros();
  if (rx_wait_ewma_us_ < 0.0) {
    rx_wait_ewma_us_ = us;
  } else {
    const double a = kBusyPollPolicy.ewma_alpha;
    rx_wait_ewma_us_ = a * us + (1.0 - a) * rx_wait_ewma_us_;
  }
}

std::optional<VirtioNetDriver::RxFrame> VirtioNetDriver::pop_rx_frame() {
  if (rx_backlog_.empty()) {
    return std::nullopt;
  }
  RxFrame frame = std::move(rx_backlog_.front());
  rx_backlog_.pop_front();
  return frame;
}

void VirtioNetDriver::transfer(migrate::StateIo& io) {
  transport_.transfer(io);
  if (io.failed()) {
    return;
  }
  io.bytes(mac_.octets);
  io.u16(mtu_);
  rx_buffers_.resize(io.count<u32>(rx_buffers_.size()));
  for (RxBuffer& b : rx_buffers_) {
    io.u64(b.addr);
    io.u32(b.len);
  }
  tx_buffers_.resize(io.count<u32>(tx_buffers_.size()));
  for (TxBuffer& b : tx_buffers_) {
    io.u64(b.hdr_addr);
    io.u64(b.frame_addr);
  }
  tx_free_.resize(io.count<u32>(tx_free_.size()));
  for (u32& slot : tx_free_) {
    io.index(slot, tx_buffers_.size());
  }
  rx_backlog_.resize(io.count<u32>(rx_backlog_.size()));
  for (RxFrame& f : rx_backlog_) {
    io.blob(f.frame);
    io.boolean(f.csum_valid);
  }
  // The vectors index the host's interrupt queues, restored before the
  // driver.
  const std::size_t vectors = ctx_.irq->vector_count();
  io.index(rx_vector_, vectors);
  io.index(tx_vector_, vectors);
  io.u32(kick_retries_);
  io.optional(tx_stall_since_);
  io.u64(rx_harvest_seq_);
  io.u32(tx_pending_kick_);
  io.f64(rx_wait_ewma_us_);

  io.u64(tx_packets_);
  io.u64(rx_packets_);
  io.u64(tx_kicks_);
  io.u64(tx_kicks_coalesced_);
  io.u64(tx_dropped_);
  io.u64(busy_polls_);
  io.u64(busy_poll_harvested_);
  io.u64(busy_poll_spins_);
  io.u64(device_resets_);
  io.u64(watchdog_kicks_);
}

}  // namespace vfpga::hostos
