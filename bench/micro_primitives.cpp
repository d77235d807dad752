// MICRO: google-benchmark microbenchmarks of the library primitives —
// wall-clock cost of the simulator itself (how fast the models run on
// the build machine, not simulated latency). Useful for keeping the
// 50k-packet sweeps quick and for spotting accidental slowdowns in the
// hot paths.
#include <benchmark/benchmark.h>

#include <array>

#include "vfpga/common/endian.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/fpga/perf_counter.hpp"
#include "vfpga/hostos/cost_model.hpp"
#include "vfpga/mem/host_memory.hpp"
#include "vfpga/migrate/snapshot.hpp"
#include "vfpga/net/checksum.hpp"
#include "vfpga/net/ethernet.hpp"
#include "vfpga/net/ipv4.hpp"
#include "vfpga/net/rss.hpp"
#include "vfpga/net/udp.hpp"
#include "vfpga/sim/distributions.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/virtio/packed_driver.hpp"
#include "vfpga/virtio/pci_caps.hpp"
#include "vfpga/virtio/virtqueue_driver.hpp"

namespace {

using namespace vfpga;

void BM_Checksum(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Checksum)->Arg(64)->Arg(512)->Arg(1500);

void BM_UdpFrameBuild(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 1);
  net::UdpFrameHeader header;
  header.ip.src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  header.ip.dst = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  header.udp = net::UdpHeader{1, 2};
  Bytes frame(net::udp_frame_size(payload.size()));
  for (auto _ : state) {
    net::write_udp_frame(frame, header, payload, std::nullopt);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_UdpFrameBuild)->Arg(64)->Arg(1024);

// Parse + checksum verification of one datagram of state.range(0) bytes.
void BM_UdpVerify(benchmark::State& state) {
  const u64 payload_len = static_cast<u64>(state.range(0)) - 8;
  const Bytes payload(payload_len, 0x5a);
  net::UdpFrameHeader header;
  header.ip.src = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  header.ip.dst = net::Ipv4Addr::from_octets(10, 0, 0, 2);
  header.udp = net::UdpHeader{1, 2};
  Bytes frame(net::udp_frame_size(payload_len));
  net::write_udp_frame(frame, header, payload, std::nullopt);
  const ConstByteSpan datagram = ConstByteSpan{frame}.subspan(
      net::EthernetHeader::kSize + net::Ipv4Header::kSize,
      static_cast<u64>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::parse_udp_datagram(datagram, header.ip.src, header.ip.dst));
  }
}
BENCHMARK(BM_UdpVerify)->Arg(64)->Arg(1024);

void BM_RssFlowHash(benchmark::State& state) {
  net::Ipv4Addr host = net::Ipv4Addr::from_octets(10, 42, 0, 1);
  net::Ipv4Addr fpga = net::Ipv4Addr::from_octets(10, 42, 0, 2);
  benchmark::DoNotOptimize(host);
  benchmark::DoNotOptimize(fpga);
  u16 port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::rss_flow_hash(host, ++port, fpga, 9000));
  }
}
BENCHMARK(BM_RssFlowHash);

void BM_VirtqueueAddHarvest(benchmark::State& state) {
  mem::HostMemory memory;
  virtio::VirtqueueDriver vq{memory, 256,
                             virtio::FeatureSet{
                                 1ull << virtio::feature::kVersion1}};
  const HostAddr buf = memory.allocate(64);
  const virtio::ChainBuffer chain{buf, 64, false};
  u64 token = 0;
  for (auto _ : state) {
    const auto head = vq.add_chain(std::span{&chain, 1}, token++);
    vq.publish();
    // Emulate the device completing instantly.
    const auto& addrs = vq.addresses();
    std::array<u8, 2> idx{};
    memory.read(addrs.used + 2, idx);
    const u16 used_idx = load_le16(idx);
    memory.write_le32(addrs.used + 4 + 8ull * (used_idx % 256), *head);
    memory.write_le16(addrs.used + 2, static_cast<u16>(used_idx + 1));
    benchmark::DoNotOptimize(vq.harvest_used());
  }
}
BENCHMARK(BM_VirtqueueAddHarvest);

// The packed-ring counterpart: add one buffer, mark its slot used as the
// device would (buffer id, USED bits at the wrap it was made available
// in), harvest it.
void BM_PackedAddHarvest(benchmark::State& state) {
  namespace pk = virtio::packed;
  mem::HostMemory memory;
  virtio::PackedVirtqueueDriver vq{
      memory, 256,
      virtio::FeatureSet{(1ull << virtio::feature::kVersion1) |
                         (1ull << virtio::feature::kRingPacked)}};
  const HostAddr buf = memory.allocate(64);
  const virtio::ChainBuffer chain{buf, 64, false};
  const HostAddr ring = vq.ring_addresses().desc;
  u64 token = 0;
  for (auto _ : state) {
    const u16 slot = vq.next_avail_slot();
    const bool wrap = vq.avail_wrap_counter();
    const auto id = vq.add_chain(std::span{&chain, 1}, token++);
    vq.publish();
    const HostAddr entry = ring + pk::desc_offset(slot);
    memory.write_le16(entry + pk::kDescIdOffset, *id);
    memory.write_le16(entry + pk::kDescFlagsOffset, pk::used_flags(wrap));
    benchmark::DoNotOptimize(vq.harvest());
  }
}
BENCHMARK(BM_PackedAddHarvest);

void BM_CapabilityWalk(benchmark::State& state) {
  pcie::ConfigSpace config;
  virtio::VirtioPciLayout layout;
  layout.common = {0, 0x0, virtio::commoncfg::kSize};
  layout.notify = {0, 0x1000, 8};
  layout.notify_off_multiplier = 4;
  layout.isr = {0, 0x40, 1};
  layout.device_specific = {0, 0x100, 20};
  virtio::add_virtio_capabilities(config, layout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(virtio::parse_virtio_capabilities(config));
  }
}
BENCHMARK(BM_CapabilityWalk);

void BM_VirtioRoundTripSim(benchmark::State& state) {
  core::TestbedOptions options;
  options.seed = 99;
  core::VirtioNetTestbed bed{options};
  Bytes payload(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    payload[0] = static_cast<u8>(state.iterations());
    benchmark::DoNotOptimize(bed.udp_round_trip(payload));
  }
}
BENCHMARK(BM_VirtioRoundTripSim)->Arg(64)->Arg(1024);

void BM_XdmaRoundTripSim(benchmark::State& state) {
  core::TestbedOptions options;
  options.seed = 98;
  core::XdmaTestbed bed{options};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bed.write_read_round_trip(static_cast<u64>(state.range(0))));
  }
}
BENCHMARK(BM_XdmaRoundTripSim)->Arg(64)->Arg(1024);

// ---- per-layer: one dry poll and what it is made of -----------------------

// One busy-poll spin as the blk and net drivers charge it: a lognormal
// cost draw plus its interference and rare-stall Poisson draws.
void BM_ExecPoll(benchmark::State& state) {
  sim::Xoshiro256 rng{7};
  const auto costs = hostos::CostModelConfig::fedora_defaults();
  const sim::NoiseModel noise;
  hostos::HostThread thread{rng, costs, noise};
  for (auto _ : state) {
    thread.exec_poll(costs.busy_poll_iteration);
    benchmark::DoNotOptimize(thread.now());
  }
}
BENCHMARK(BM_ExecPoll);

// One lognormal segment draw (Box–Muller, the table cosine and its
// rounding guard, clamp and round to picoseconds): the XDMA submit
// segment, the widest-sigma cost the loop-back charges.
void BM_JitteredSegmentSample(benchmark::State& state) {
  sim::Xoshiro256 rng{9};
  const auto costs = hostos::CostModelConfig::fedora_defaults();
  sim::JitteredSegment segment = costs.xdma_submit;
  benchmark::DoNotOptimize(segment);
  for (auto _ : state) {
    benchmark::DoNotOptimize(segment.sample(rng));
  }
}
BENCHMARK(BM_JitteredSegmentSample);

// Means of the noise model's two Poisson draws over a ~100 ns segment:
// common interference and rare stalls.
void BM_SamplePoisson(benchmark::State& state, double mean) {
  sim::Xoshiro256 rng{8};
  benchmark::DoNotOptimize(mean);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sample_poisson(rng, mean));
  }
}
BENCHMARK_CAPTURE(BM_SamplePoisson, common, 0.0012);
BENCHMARK_CAPTURE(BM_SamplePoisson, rare, 4e-6);

// A ring-index write and a used-index read, on one page (arg 0) or on
// two pages in turn (arg 1).
void BM_HostMemoryAccess(benchmark::State& state) {
  constexpr u64 kPage = mem::HostMemory::kPageSize;
  mem::HostMemory memory;
  const HostAddr a = memory.allocate(kPage, kPage);
  const HostAddr b = memory.allocate(kPage, kPage);
  const HostAddr read_at = state.range(0) == 0 ? a + 64 : b + 64;
  memory.write_le64(b, 1);  // both pages resident before timing
  u64 value = 0;
  std::array<u8, 2> used_idx{};
  for (auto _ : state) {
    memory.write_le64(a, value++);
    memory.read(read_at, used_idx);
    benchmark::DoNotOptimize(load_le16(used_idx));
  }
}
BENCHMARK(BM_HostMemoryAccess)->ArgName("two_pages")->Arg(0)->Arg(1);

// One FPGA counter capture, cycling through every event id.
void BM_CounterCapture(benchmark::State& state) {
  fpga::PerfCounterBank bank;
  sim::SimTime at{};
  std::size_t event = 0;
  for (auto _ : state) {
    at += sim::nanoseconds(8);
    bank.capture(static_cast<fpga::CounterEvent>(event), at);
    event = (event + 1) % fpga::kCounterEvents;
    benchmark::DoNotOptimize(bank);
  }
}
BENCHMARK(BM_CounterCapture);

// A quiesced echo testbed's snapshot: device and driver state and every
// resident page.
void BM_SnapshotWrite(benchmark::State& state) {
  core::TestbedOptions options;
  options.seed = 97;
  core::VirtioNetTestbed bed{options};
  const Bytes payload(256, 1);
  (void)bed.udp_round_trip(payload);
  bed.quiesce();
  for (auto _ : state) {
    benchmark::DoNotOptimize(migrate::save_snapshot(bed));
  }
}
BENCHMARK(BM_SnapshotWrite);

// Restoring that snapshot into a testbed built from the same options:
// validation, the pages and every layer's state. Each iteration
// restores over the previous one; construction is not timed.
void BM_SnapshotRestore(benchmark::State& state) {
  core::TestbedOptions options;
  options.seed = 97;
  core::VirtioNetTestbed source{options};
  const Bytes payload(256, 1);
  (void)source.udp_round_trip(payload);
  source.quiesce();
  const Bytes image = migrate::save_snapshot(source);
  core::VirtioNetTestbed target{options};
  for (auto _ : state) {
    if (migrate::restore_snapshot(target, image) !=
        migrate::RestoreStatus::kOk) {
      state.SkipWithError("restore failed");
      break;
    }
  }
}
BENCHMARK(BM_SnapshotRestore);

}  // namespace

BENCHMARK_MAIN();
