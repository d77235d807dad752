#include "vfpga/xdma/engine.hpp"

#include <array>

#include "vfpga/common/contract.hpp"

namespace vfpga::xdma {

namespace {

constexpr sim::Duration engine_cycles(u64 n) {
  return kEngineTiming.clock.cycles(n);
}

}  // namespace

DmaChannel::DmaChannel(Direction direction, pcie::DmaPort port,
                       mem::Bram& card_memory,
                       fpga::PerfCounterBank* counters)
    : direction_(direction),
      port_(port),
      card_memory_(&card_memory),
      counters_(counters) {}

void DmaChannel::capture(fpga::CounterEvent h2c_event, sim::SimTime at) {
  if (counters_ != nullptr) {
    counters_->capture(direction_ == Direction::H2C
                           ? h2c_event
                           : fpga::c2h_twin(h2c_event),
                       at);
  }
}

sim::SimTime DmaChannel::move_data(sim::SimTime start, HostAddr host_addr,
                                   FpgaAddr card_addr, u32 bytes) {
  VFPGA_EXPECTS(bytes > 0);
  sim::SimTime t = start + engine_cycles(kEngineTiming.datapath_fixed_cycles);
  const u64 beats = card_memory_->beats_for(bytes);

  staging_.resize(bytes);
  if (direction_ == Direction::H2C) {
    t = port_.read(t, host_addr, staging_);  // PCIe read of host payload
    card_memory_->write(card_addr, staging_);
    t += engine_cycles(beats);  // drain into BRAM
  } else {
    card_memory_->read(card_addr, staging_);
    t += engine_cycles(beats);  // fill from BRAM
    const auto timing = port_.write(t, host_addr, staging_);
    // The channel is architecturally "busy" until the data is globally
    // visible: the IRQ/writeback that follows must not pass the data.
    t = timing.delivered;
  }
  return t;
}

DmaChannel::RunResult DmaChannel::run(sim::SimTime start) {
  VFPGA_EXPECTS(descriptor_addr_ != 0);
  RunResult result;
  status_ = regs::kStatusBusy;
  sim::SimTime t = start + engine_cycles(kEngineTiming.setup_cycles);
  capture(fpga::CounterEvent::kH2cRun, start);

  u64 desc_addr = descriptor_addr_;
  for (;;) {
    std::array<u8, kDescriptorBytes> raw{};
    t = port_.read(t, desc_addr, raw);  // descriptor fetch over PCIe
    if (fault_ != nullptr &&
        fault_->should_inject(fault::FaultClass::kEngineHalt)) {
      raw[3] ^= 0x5a;  // corrupt the magic: the engine halts below
    }
    XdmaDescriptor desc;
    if (!XdmaDescriptor::decode(raw, desc)) {
      status_ = regs::kStatusMagicStopped | regs::kStatusDescStopped;
      result.error = true;
      result.complete = t;
      capture(fpga::CounterEvent::kH2cError, t);
      return result;
    }
    t += engine_cycles(kEngineTiming.per_descriptor_cycles);
    capture(fpga::CounterEvent::kH2cDescDecoded, t);

    if (direction_ == Direction::H2C) {
      t = move_data(t, desc.src_addr, desc.dst_addr, desc.length);
    } else {
      t = move_data(t, desc.dst_addr, desc.src_addr, desc.length);
    }
    ++completed_count_;
    ++result.descriptors_processed;
    result.bytes_moved += desc.length;

    if (desc.stop()) {
      break;
    }
    desc_addr = desc.next_addr;
  }

  t += engine_cycles(kEngineTiming.writeback_cycles);
  if (writeback_addr_ != 0) {
    std::array<u8, 8> wb{};
    store_le32(wb, 0, completed_count_);
    t = port_.write(t, writeback_addr_, wb).issuer_free;
  }
  status_ = regs::kStatusDescStopped | regs::kStatusDescCompleted;
  result.complete = t;
  capture(fpga::CounterEvent::kH2cComplete, t);

  if (irq_enabled_ && on_complete) {
    on_complete(t);
  }
  return result;
}

sim::SimTime DmaChannel::transfer_gather(
    sim::SimTime start, std::span<const GatherSegment> segments,
    FpgaAddr card_addr) {
  VFPGA_EXPECTS(direction_ == Direction::H2C);
  VFPGA_EXPECTS(!segments.empty());
  status_ = regs::kStatusBusy;
  capture(fpga::CounterEvent::kH2cIssue, start);
  sim::SimTime t = start + engine_cycles(kEngineTiming.per_descriptor_cycles *
                                         segments.size());
  t += engine_cycles(kEngineTiming.datapath_fixed_cycles);

  u64 total = 0;
  for (const GatherSegment& s : segments) {
    VFPGA_EXPECTS(s.bytes > 0);
    total += s.bytes;
  }
  staging_.resize(total);
  reads_.clear();
  u64 offset = 0;
  for (const GatherSegment& s : segments) {
    reads_.push_back(
        {s.host_addr, ByteSpan{staging_}.subspan(offset, s.bytes)});
    offset += s.bytes;
  }
  t = port_.read_burst(t, reads_);
  card_memory_->write(card_addr, staging_);
  t += engine_cycles(card_memory_->beats_for(total));

  status_ = regs::kStatusDescCompleted | regs::kStatusDescStopped;
  ++completed_count_;
  capture(fpga::CounterEvent::kH2cTransferDone, t);
  return t;
}

sim::SimTime DmaChannel::transfer(sim::SimTime start, HostAddr host_addr,
                                  FpgaAddr card_addr, u32 bytes) {
  // Fabric-driven: the controller supplies the descriptor directly; no
  // host fetch, only a short issue penalty.
  status_ = regs::kStatusBusy;
  capture(fpga::CounterEvent::kH2cIssue, start);
  sim::SimTime t =
      start + engine_cycles(kEngineTiming.per_descriptor_cycles);
  t = move_data(t, host_addr, card_addr, bytes);
  status_ = regs::kStatusDescCompleted | regs::kStatusDescStopped;
  ++completed_count_;
  capture(fpga::CounterEvent::kH2cTransferDone, t);
  return t;
}

}  // namespace vfpga::xdma
