#include "vfpga/hostos/virtio_net_driver.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "vfpga/common/contract.hpp"
#include "vfpga/core/virtio_controller.hpp"
#include "vfpga/hostos/interrupt.hpp"
#include "vfpga/migrate/state_io.hpp"
#include "vfpga/virtio/net_defs.hpp"

namespace vfpga::hostos {

using virtio::net::NetHeader;

bool VirtioNetDriver::probe(const BindContext& ctx, HostThread& thread,
                            u16 requested_pairs) {
  VFPGA_EXPECTS(requested_pairs >= 1);
  ctx_ = ctx;
  requested_pairs_ = requested_pairs;
  return initialize_device(thread);
}

bool VirtioNetDriver::recover(HostThread& thread) {
  // §2.1.2 recovery: full reset (begin_probe writes status 0), feature
  // renegotiation, queue rebuild, and requeue of the (reused) buffers.
  // In-flight chains on the old rings are forfeit; upper layers retry.
  ++device_resets_;
  for (PairState& ps : pair_state_) {
    ps.kick_retries = 0;
    ps.tx_stall_since.reset();
  }
  return initialize_device(thread);
}

virtio::DriverRing& VirtioNetDriver::rx_queue(u16 pair) {
  return transport_.queue(virtio::net::rx_queue_index(pair));
}

virtio::DriverRing& VirtioNetDriver::tx_queue(u16 pair) {
  return transport_.queue(virtio::net::tx_queue_index(pair));
}

u16 VirtioNetDriver::ctrl_queue_index() const {
  return virtio::net::ctrl_queue_index(max_device_pairs_);
}

bool VirtioNetDriver::initialize_device(HostThread& thread) {
  // Device-class features the Linux virtio-net driver would accept.
  virtio::FeatureSet wanted;
  wanted.set(virtio::feature::net::kCsum);
  wanted.set(virtio::feature::net::kGuestCsum);
  wanted.set(virtio::feature::net::kMac);
  wanted.set(virtio::feature::net::kMtu);
  wanted.set(virtio::feature::net::kStatus);
  if (requested_pairs_ > 1) {
    wanted.set(virtio::feature::net::kCtrlVq);
    wanted.set(virtio::feature::net::kMq);
  }
  if (!transport_.begin_probe(ctx_, virtio::DeviceType::Net, wanted, thread)) {
    return false;
  }

  // Multiqueue: MQ requires the control queue to enable the pairs
  // (§5.1.5.1.1); without both negotiated, fall back to a single pair.
  mq_active_ = transport_.negotiated().has(virtio::feature::net::kMq) &&
               transport_.negotiated().has(virtio::feature::net::kCtrlVq);
  if (mq_active_) {
    max_device_pairs_ = transport_.device_config_read16(
        virtio::net::NetConfigLayout::kMaxPairsOffset, thread);
    if (max_device_pairs_ < 1) {
      return false;
    }
    pairs_ = std::min(requested_pairs_, max_device_pairs_);
  } else {
    max_device_pairs_ = 1;
    pairs_ = 1;
  }
  configured_pairs_ = pairs_;
  if (pair_state_.size() < pairs_) {
    pair_state_.resize(pairs_);
  }
  for (PairState& ps : pair_state_) {
    // Rings are rebuilt below: the device's completion log restarts at
    // zero, and any coalesced-but-unpublished TX frames are forfeit.
    ps.rx_harvest_seq = 0;
    ps.tx_pending_kick = 0;
  }

  // MSI-X: entry 0 = config changes, then per pair RX = 1+2p, TX = 2+2p
  // (pair 0 keeps the single-queue driver's entries 1 and 2).
  const u32 config_vec = transport_.setup_vector(0, thread);
  (void)config_vec;
  transport_.set_config_vector(0, thread);
  for (u16 p = 0; p < pairs_; ++p) {
    pair_state_[p].rx_vector =
        transport_.setup_vector(1 + 2u * p, thread);
    pair_state_[p].tx_vector =
        transport_.setup_vector(2 + 2u * p, thread);
  }

  auto& memory = transport_.memory();
  for (u16 p = 0; p < pairs_; ++p) {
    transport_.setup_queue(virtio::net::rx_queue_index(p),
                           static_cast<u16>(1 + 2 * p), thread);
    auto& tx = transport_.setup_queue(virtio::net::tx_queue_index(p),
                                      static_cast<u16>(2 + 2 * p), thread);

    // TX buffers, one per ring slot: virtio_net_hdr headroom immediately
    // followed by the frame area (single-buffer transmission). Allocated
    // once; a recovery cycle reuses the same memory and just rebuilds
    // the free list.
    PairState& ps = pair_state_[p];
    ps.tx_buffers.resize(tx.size());
    ps.tx_free.clear();
    for (u16 i = 0; i < tx.size(); ++i) {
      if (ps.tx_buffers[i].hdr_addr == 0) {
        const HostAddr base =
            memory.allocate(NetHeader::kSize + kFrameCapacity, 64);
        ps.tx_buffers[i].hdr_addr = base;
        ps.tx_buffers[i].frame_addr = base + NetHeader::kSize;
      }
      ps.tx_free.push_back(i);
    }
  }

  if (mq_active_) {
    // The control queue is polled, not interrupt-driven: no MSI-X entry.
    auto& ctrl =
        transport_.setup_queue(ctrl_queue_index(), virtio::kNoVector, thread);
    ctrl.disable_interrupts();
    if (ctrl_cmd_addr_ == 0) {
      ctrl_cmd_addr_ = memory.allocate(16, 64);
      ctrl_ack_addr_ = memory.allocate(16, 64);
    }
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

  for (u16 p = 0; p < pairs_; ++p) {
    post_initial_rx_buffers(p);
    rx_queue(p).enable_interrupts();  // interrupt on the first used entry
    // Suppress TX-completion interrupts; they are harvested by NAPI.
    tx_queue(p).disable_interrupts();
  }

  if (mq_active_) {
    const auto ack = set_queue_pairs(thread, pairs_);
    if (!ack.has_value() || *ack != virtio::net::kCtrlOk) {
      return false;
    }
  }
  return true;
}

void VirtioNetDriver::post_initial_rx_buffers(u16 pair) {
  // Single-buffer layout: virtio_net_hdr and a full frame in one
  // descriptor, as modern virtio-net posts them.
  constexpr u32 kRxBufferBytes = NetHeader::kSize + kFrameCapacity;
  auto& rx = rx_queue(pair);
  auto& memory = transport_.memory();
  const u16 size = rx.size();
  PairState& ps = pair_state_[pair];
  ps.rx_buffers.resize(size);
  for (u16 i = 0; i < size; ++i) {
    if (ps.rx_buffers[i].addr == 0) {
      ps.rx_buffers[i].addr = memory.allocate(kRxBufferBytes, 64);
    }
    ps.rx_buffers[i].len = kRxBufferBytes;
    const virtio::ChainBuffer buf{ps.rx_buffers[i].addr, kRxBufferBytes,
                                  /*device_writable=*/true};
    const auto handle = rx.add_chain(std::span{&buf, 1}, i);
    VFPGA_ASSERT(handle.has_value());
  }
  rx.publish();
}

std::optional<u8> VirtioNetDriver::send_ctrl(HostThread& thread, u8 cls,
                                             u8 cmd, ConstByteSpan payload) {
  VFPGA_EXPECTS(payload.size() + 2 <= 16);  // ctrl_cmd_addr_ allocation
  const u16 ctrl_index = ctrl_queue_index();
  auto& ctrl = transport_.queue(ctrl_index);
  auto& memory = transport_.memory();

  // Command layout (§5.1.6.5): {class, command, payload} readable, one
  // writable ack byte on the same chain.
  Bytes request;
  request.reserve(2 + payload.size());
  request.push_back(cls);
  request.push_back(cmd);
  request.insert(request.end(), payload.begin(), payload.end());
  memory.write(ctrl_cmd_addr_, request);
  const std::array<u8, 1> ack_seed = {0xff};  // neither OK nor ERR
  memory.write(ctrl_ack_addr_, ack_seed);

  const std::array<virtio::ChainBuffer, 2> chain = {
      virtio::ChainBuffer{ctrl_cmd_addr_, static_cast<u32>(request.size()),
                          /*device_writable=*/false},
      virtio::ChainBuffer{ctrl_ack_addr_, 1, /*device_writable=*/true}};
  const auto handle =
      ctrl.add_chain(std::span{chain.data(), chain.size()}, 0);
  VFPGA_ASSERT(handle.has_value());
  ctrl.publish();
  ++ctrl_commands_sent_;
  transport_.notify(ctrl_index, thread);

  // The control queue has no MSI-X vector: poll for the completion with
  // a bounded spin (the device handles the doorbell long before the
  // budget runs out; an unresponsive device yields nullopt).
  bool completed = false;
  for (int spin = 0; spin < 64 && !completed; ++spin) {
    if (ctrl.harvest().has_value()) {
      completed = true;
      break;
    }
    thread.block_until(thread.now() + sim::microseconds(1));
  }
  if (!completed) {
    return std::nullopt;
  }
  return memory.read_bytes(ctrl_ack_addr_, 1)[0];
}

std::optional<u8> VirtioNetDriver::set_queue_pairs(HostThread& thread,
                                                   u16 pairs) {
  if (!mq_active_) {
    return std::nullopt;
  }
  const std::array<u8, 2> arg = {static_cast<u8>(pairs & 0xff),
                                 static_cast<u8>(pairs >> 8)};
  const auto ack = send_ctrl(thread, virtio::net::kCtrlClassMq,
                             virtio::net::kCtrlMqVqPairsSet, arg);
  // Track the device's accepted count, but never beyond the pairs this
  // driver actually built rings and vectors for.
  if (ack.has_value() && *ack == virtio::net::kCtrlOk && pairs >= 1 &&
      pairs <= configured_pairs_) {
    pairs_ = pairs;
  }
  return ack;
}

bool VirtioNetDriver::reset_steering(HostThread& thread) {
  const auto ack = set_queue_pairs(thread, pairs_);
  const bool ok = ack.has_value() && *ack == virtio::net::kCtrlOk;
  if (ok) {
    ++steering_repairs_;
  }
  return ok;
}

VirtioNetDriver::WatchdogAction VirtioNetDriver::tx_watchdog(
    HostThread& thread) {
  VFPGA_EXPECTS(bound());
  // Flush doorbells still held by TX kick coalescing: a batch whose
  // final xmit never came must not look like a stall.
  for (u16 p = 0; p < pairs_; ++p) {
    flush_tx(thread, p);
  }
  // Reclaim whatever did complete before judging any queue stuck.
  for (u16 p = 0; p < pairs_; ++p) {
    auto& tx = tx_queue(p);
    while (const auto completion = tx.harvest()) {
      pair_state_[p].tx_free.push_back(static_cast<u32>(completion->token));
    }
  }
  // A broken vring or a device that latched DEVICE_NEEDS_RESET cannot
  // make progress — no amount of re-kicking helps; reset immediately.
  bool broken = false;
  for (u16 p = 0; p < pairs_ && !broken; ++p) {
    broken = tx_queue(p).broken() || rx_queue(p).broken();
  }
  if (broken || transport_.device_needs_reset(thread)) {
    VFPGA_ASSERT(recover(thread));
    return WatchdogAction::kReset;
  }

  WatchdogAction action = WatchdogAction::kNone;
  for (u16 p = 0; p < pairs_; ++p) {
    auto& tx = tx_queue(p);
    PairState& ps = pair_state_[p];
    const u16 in_flight = static_cast<u16>(tx.size() - tx.free_descriptors());
    if (in_flight == 0) {
      ps.kick_retries = 0;
      ps.tx_stall_since.reset();
      continue;
    }
    if (!ps.tx_stall_since.has_value()) {
      ps.tx_stall_since = thread.now();
    }
    const bool deadline_passed =
        thread.now() - *ps.tx_stall_since >= kWatchdogPolicy.deadline;
    if (deadline_passed ||
        ps.kick_retries >= kWatchdogPolicy.max_kick_retries) {
      VFPGA_ASSERT(recover(thread));
      return WatchdogAction::kReset;
    }
    // Bounded exponential backoff, then re-ring this queue's doorbell: a
    // lost notify left the published chains in the ring, so a repeat
    // kick is enough to restart the device FSM — per-queue recovery,
    // the other pairs keep running undisturbed.
    const sim::Duration backoff = kWatchdogPolicy.backoff_base *
                                  static_cast<i64>(1ll << ps.kick_retries);
    ++ps.kick_retries;
    thread.block_until(thread.now() + backoff);
    transport_.notify(virtio::net::tx_queue_index(p), thread);
    ++watchdog_kicks_;
    action = WatchdogAction::kRekicked;
  }
  return action;
}

bool VirtioNetDriver::xmit_frame(HostThread& thread, ConstByteSpan frame,
                                 bool needs_csum, u16 csum_start,
                                 u16 csum_offset, u16 pair,
                                 bool more_coming) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(frame.size() <= kFrameCapacity);
  VFPGA_EXPECTS(pair < pairs_);
  thread.exec(thread.costs().virtio_xmit);

  auto& tx = tx_queue(pair);
  PairState& ps = pair_state_[pair];
  if (ps.tx_free.empty()) {
    // Ring full: free completed skbs inline, as virtio-net's start_xmit
    // does before netif_stop_queue.
    while (const auto completion = tx.harvest()) {
      ps.tx_free.push_back(static_cast<u32>(completion->token));
    }
  }
  if (ps.tx_free.empty()) {
    // Still full: a stuck device is holding every slot. Drop the frame
    // (netif_stop_queue analogue) and leave recovery to the watchdog.
    ++tx_dropped_;
    return false;
  }
  const u32 slot = ps.tx_free.front();
  ps.tx_free.pop_front();

  NetHeader hdr;
  if (needs_csum && transport_.negotiated().has(virtio::feature::net::kCsum)) {
    hdr.flags = NetHeader::kNeedsCsum;
    hdr.csum_start = csum_start;
    hdr.csum_offset = csum_offset;
  }
  std::array<u8, NetHeader::kSize> hdr_bytes{};
  hdr.encode(hdr_bytes);
  auto& memory = transport_.memory();
  memory.write(ps.tx_buffers[slot].hdr_addr, hdr_bytes);
  memory.write(ps.tx_buffers[slot].frame_addr, frame);

  std::optional<u16> handle;
  if (datapath_.tx_path == TxPath::kBounceCopy) {
    // Contiguous bounce buffer, one descriptor. The calibrated
    // virtio_xmit segment covers the sub-MTU memcpy.
    const virtio::ChainBuffer chain{
        ps.tx_buffers[slot].hdr_addr,
        static_cast<u32>(NetHeader::kSize + frame.size()), false};
    handle = tx.add_chain(std::span{&chain, 1}, slot);
  } else {
    // Zero-copy: the header and the frame go out as separate
    // descriptors — no bounce memcpy; the charge is one DMA mapping per
    // segment (dma_map_single / sg-entry build). A frame of at most
    // kFrameCapacity bytes fits one page, so it is one segment.
    const std::array<virtio::ChainBuffer, 2> sg = {
        virtio::ChainBuffer{ps.tx_buffers[slot].hdr_addr,
                            static_cast<u32>(NetHeader::kSize), false},
        virtio::ChainBuffer{ps.tx_buffers[slot].frame_addr,
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
        ps.tx_free.push_back(static_cast<u32>(completion->token));
      }
      handle = indirect ? tx.add_chain_indirect(list, slot)
                        : tx.add_chain(list, slot);
    }
  }
  if (!handle.has_value()) {
    ps.tx_free.push_front(slot);
    ++tx_dropped_;
    return false;
  }
  ++tx_packets_;
  ++ps.tx_pending_kick;

  if (more_coming && ps.tx_pending_kick < kick_coalesce_) {
    // xmit_more: hold the publish and the doorbell. The whole batch
    // becomes one avail-idx update — one EVENT_IDX window, at most one
    // kick — when the final frame (or an explicit flush_tx) lands.
    ++tx_kicks_coalesced_;
    return false;
  }
  return flush_tx(thread, pair);
}

bool VirtioNetDriver::flush_tx(HostThread& thread, u16 pair) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(pair < pairs_);
  PairState& ps = pair_state_[pair];
  if (ps.tx_pending_kick == 0) {
    return false;
  }
  ps.tx_pending_kick = 0;
  auto& tx = tx_queue(pair);
  tx.publish();

  if (!tx.should_kick()) {
    return false;
  }
  // The doorbell: one posted write. The FPGA takes it from here.
  transport_.notify(virtio::net::tx_queue_index(pair), thread);
  ++tx_kicks_;
  return true;
}

void VirtioNetDriver::harvest_one_rx(virtio::DriverRing& rx, PairState& ps) {
  const auto completion = rx.harvest();
  VFPGA_ASSERT(completion.has_value());
  const RxBuffer& buf = ps.rx_buffers[completion->token];
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
  ps.rx_backlog.push_back(std::move(received));
  ++rx_packets_;
  ++ps.rx_packets;
  ++ps.rx_harvest_seq;

  // Recycle the buffer straight back into the avail ring.
  const virtio::ChainBuffer chain{buf.addr, buf.len, true};
  const auto handle = rx.add_chain(std::span{&chain, 1}, completion->token);
  VFPGA_ASSERT(handle.has_value());
}

u32 VirtioNetDriver::napi_poll(HostThread& thread, u16 pair) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(pair < pairs_);
  thread.exec(thread.costs().virtio_rx_napi);

  auto& rx = rx_queue(pair);
  PairState& ps = pair_state_[pair];
  u32 harvested = 0;
  while (rx.used_pending()) {
    harvest_one_rx(rx, ps);
    ++harvested;
  }
  if (harvested > 0) {
    rx.publish();
    thread.exec(thread.costs().virtio_rx_refill);
    // Re-enable RX interrupts: ask for one when the next entry lands.
    rx.enable_interrupts();
  }

  // TX completions: recycle buffers, keep interrupts suppressed.
  auto& tx = tx_queue(pair);
  while (const auto completion = tx.harvest()) {
    ps.tx_free.push_back(static_cast<u32>(completion->token));
  }
  tx.disable_interrupts();
  return harvested;
}

u32 VirtioNetDriver::busy_poll(HostThread& thread, u16 pair,
                               sim::Duration budget) {
  VFPGA_EXPECTS(bound());
  VFPGA_EXPECTS(pair < pairs_);
  if (budget <= sim::Duration{}) {
    budget = kBusyPollPolicy.default_budget;
  }
  ++busy_polls_;
  PairState& ps = pair_state_[pair];

  // A deferred TX doorbell would deadlock the poll: the device has not
  // seen the frames whose completions we are about to spin for.
  flush_tx(thread, pair);

  auto& rx = rx_queue(pair);
  // Disarm the pair's RX vector: poll mode owns this queue now. With
  // EVENT_IDX this is the used_event push-away write; the device's next
  // completion then skips the MSI-X message entirely.
  rx.disable_interrupts();
  thread.exec(thread.costs().irq_disarm);

  const sim::SimTime enter = thread.now();
  const sim::SimTime deadline = enter + budget;
  const u16 rx_index = virtio::net::rx_queue_index(pair);
  u32 harvested = 0;
  u64 spins = 0;
  for (;;) {
    VFPGA_ASSERT(spins < kBusyPollPolicy.max_spin_iterations);
    ++spins;
    // One poll iteration: re-read the used ring's idx cache line.
    thread.exec_poll(thread.costs().busy_poll_iteration);
    const auto visible = ctx_.device->completion_visible_time(
        rx_index, ps.rx_harvest_seq);
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
      note_rx_wait(pair, thread.now() - enter);
    }
    // Batched harvest: the one used-idx read this iteration paid for
    // covers every completion whose used-ring write is already visible,
    // not just the one the spin ended on — drain them all before the
    // next poll charge.
    harvest_one_rx(rx, ps);
    ++harvested;
    for (;;) {
      const auto next = ctx_.device->completion_visible_time(
          rx_index, ps.rx_harvest_seq);
      if (!next.has_value() || *next > thread.now()) {
        break;
      }
      harvest_one_rx(rx, ps);
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
    while (const auto at = irq.next_pending(ps.rx_vector)) {
      if (*at > thread.now()) {
        break;
      }
      irq.consume(ps.rx_vector);
    }
  } else {
    // Budget expired dry: charge the full wait to the EWMA so the
    // adaptive controller drifts toward sleeping on this pair.
    note_rx_wait(pair, budget);
  }

  // TX completions: recycle buffers, keep interrupts suppressed.
  auto& tx = tx_queue(pair);
  while (const auto completion = tx.harvest()) {
    ps.tx_free.push_back(static_cast<u32>(completion->token));
  }
  tx.disable_interrupts();

  // Hybrid exit: re-arm so a completion landing after the budget raises
  // the normal RX interrupt and wakes a sleeper.
  rx.enable_interrupts();
  thread.exec(thread.costs().irq_rearm);
  return harvested;
}

bool VirtioNetDriver::should_busy_poll(u16 pair) const {
  const double ewma = pair_state_.at(pair).rx_wait_ewma_us;
  // No observation yet: optimistically spin — one budget-bounded poll
  // either pays off or seeds the EWMA with the miss.
  if (ewma < 0.0) {
    return true;
  }
  return ewma <= kBusyPollPolicy.spin_threshold.micros();
}

void VirtioNetDriver::note_rx_wait(u16 pair, sim::Duration wait) {
  PairState& ps = pair_state_.at(pair);
  const double us = wait.micros();
  if (ps.rx_wait_ewma_us < 0.0) {
    ps.rx_wait_ewma_us = us;
  } else {
    const double a = kBusyPollPolicy.ewma_alpha;
    ps.rx_wait_ewma_us = a * us + (1.0 - a) * ps.rx_wait_ewma_us;
  }
}

std::optional<VirtioNetDriver::RxFrame> VirtioNetDriver::pop_rx_frame(
    u16 pair) {
  PairState& ps = pair_state_.at(pair);
  if (ps.rx_backlog.empty()) {
    return std::nullopt;
  }
  RxFrame frame = std::move(ps.rx_backlog.front());
  ps.rx_backlog.pop_front();
  return frame;
}


void VirtioNetDriver::transfer(migrate::StateIo& io) {
  transport_.transfer(io);
  if (io.failed()) {
    return;
  }
  io.bytes(mac_.octets);
  io.u16(mtu_);
  io.u16(requested_pairs_);
  io.u16(pairs_);
  io.u16(configured_pairs_);
  io.u16(max_device_pairs_);
  // Both pair counts bound loops over pair_state_.
  if (pairs_ > pair_state_.size() || configured_pairs_ > pair_state_.size()) {
    io.fail();
  }
  io.boolean(mq_active_);
  // Control chains go to the queue after the device's last pair: that
  // must be a queue this transport built, past every data queue and
  // inside the u16 queue numbering.
  if (mq_active_ && (max_device_pairs_ < configured_pairs_ ||
                     max_device_pairs_ >= virtio::net::kMqPairsMax ||
                     !transport_.has_queue(ctrl_queue_index()))) {
    io.fail();
  }
  io.u64(ctrl_cmd_addr_);
  io.u64(ctrl_ack_addr_);

  io.expect<u16>(static_cast<u16>(pair_state_.size()));
  // The vectors index the host's interrupt queues, restored before the
  // driver.
  const std::size_t vectors = ctx_.irq->vector_count();
  for (PairState& ps : pair_state_) {
    if (io.failed()) {
      return;
    }
    ps.rx_buffers.resize(io.count<u32>(ps.rx_buffers.size()));
    for (RxBuffer& b : ps.rx_buffers) {
      io.u64(b.addr);
      io.u32(b.len);
    }
    ps.tx_buffers.resize(io.count<u32>(ps.tx_buffers.size()));
    for (TxBuffer& b : ps.tx_buffers) {
      io.u64(b.hdr_addr);
      io.u64(b.frame_addr);
    }
    ps.tx_free.resize(io.count<u32>(ps.tx_free.size()));
    for (u32& slot : ps.tx_free) {
      io.index(slot, ps.tx_buffers.size());
    }
    ps.rx_backlog.resize(io.count<u32>(ps.rx_backlog.size()));
    for (RxFrame& f : ps.rx_backlog) {
      io.blob(f.frame);
      io.boolean(f.csum_valid);
    }
    io.index(ps.rx_vector, vectors);
    io.index(ps.tx_vector, vectors);
    io.u32(ps.kick_retries);
    io.optional(ps.tx_stall_since);
    io.u64(ps.rx_packets);
    io.u64(ps.rx_harvest_seq);
    io.u32(ps.tx_pending_kick);
    io.f64(ps.rx_wait_ewma_us);
  }

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
  io.u64(steering_repairs_);
  io.u64(ctrl_commands_sent_);
}

}  // namespace vfpga::hostos
