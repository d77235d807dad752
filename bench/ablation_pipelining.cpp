// ABL-PIPE: request pipelining.
//
// The paper measures strictly serialized round trips (one packet in
// flight). Queue-based interfaces change the picture under load: a
// VirtIO driver can publish a burst of buffers and take ONE interrupt
// for the batch (NAPI), while the vendor character device serializes —
// each write()/read() pair blocks on its own completion interrupts.
// This bench sweeps the burst size and reports per-packet cost and
// packet rate for both stacks.
#include <cstdio>

#include "experiments.hpp"
#include "vfpga/core/testbed.hpp"
#include "vfpga/stats/summary.hpp"

namespace {

using namespace vfpga;

constexpr u64 kPayload = 256;

}  // namespace

int vfpga::bench::ablation_pipelining(const Args& args) {
  const u64 seed = args.seed.value_or(71);
  const u64 bursts = args.iterations ? *args.iterations / 4 + 1 : 4'000;
  std::printf("ABL-PIPE -- burst pipelining, %llu bursts/point, %llu B "
              "payload\n\n",
              static_cast<unsigned long long>(bursts),
              static_cast<unsigned long long>(kPayload));
  std::printf("%-22s %8s %16s %14s\n", "configuration", "burst",
              "us/packet", "kpackets/s");

  for (u64 burst : {u64{1}, u64{4}, u64{16}}) {
    core::TestbedOptions options;
    options.seed = seed + burst;
    core::VirtioNetTestbed bed{options};
    Bytes payload(kPayload, 1);

    const sim::SimTime start = bed.thread().now();
    u64 delivered = 0;
    for (u64 b = 0; b < bursts; ++b) {
      for (u64 i = 0; i < burst; ++i) {
        payload[0] = static_cast<u8>(b + i);
        if (!bed.socket().sendto(bed.thread(), bed.fpga_ip(),
                                 bed.options().fpga_udp_port, payload)) {
          std::puts("send failed");
          return 1;
        }
      }
      for (u64 i = 0; i < burst; ++i) {
        if (bed.socket().recvfrom(bed.thread()).has_value()) {
          ++delivered;
        }
      }
    }
    const double total_us = (bed.thread().now() - start).micros();
    const double per_packet = total_us / static_cast<double>(delivered);
    std::printf("%-22s %8llu %16.2f %14.1f\n", "virtio socket",
                static_cast<unsigned long long>(burst), per_packet,
                1e3 / per_packet);
    if (delivered != bursts * burst) {
      std::printf("  (!) delivered %llu of %llu\n",
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(bursts * burst));
    }
  }

  {
    // The char-device path cannot pipeline: every transfer blocks.
    core::TestbedOptions options;
    options.seed = seed + 8;
    core::XdmaTestbed bed{options};
    const u64 wire = core::virtio_wire_bytes(kPayload);
    const sim::SimTime start = bed.thread().now();
    u64 delivered = 0;
    for (u64 i = 0; i < bursts; ++i) {
      if (bed.write_read_round_trip(wire).ok) {
        ++delivered;
      }
    }
    const double total_us = (bed.thread().now() - start).micros();
    const double per_packet = total_us / static_cast<double>(delivered);
    std::printf("%-22s %8u %16.2f %14.1f\n", "xdma char device", 1,
                per_packet, 1e3 / per_packet);
  }

  std::puts(
      "\nReading: batching amortizes the VirtIO receive path (one\n"
      "interrupt + one NAPI poll serve the whole burst) — the queue-based\n"
      "interface's throughput headroom that the serialized char-device\n"
      "semantics cannot express. The paper's one-in-flight measurement is\n"
      "the burst=1 row.");
  return 0;
}
