// STREAMING: large-payload throughput over the zero-copy datapath.
//
// Sweeps jumbo UDP payloads (1 KB..60 KB) x ring format x datapath
// shape {copy, chained, indirect, mergeable} through the echo testbed,
// plus two wire-MTU segmentation cells {seg-sw, tso} where the datagram
// no longer fits one frame: seg-sw slices it on the host (software GSO,
// per-segment header/checksum work on the CPU), tso hands the device
// ONE superframe (HOST_UFO) and receives the echo GRO-coalesced
// (GUEST_UFO). Reports goodput (Gb/s, both directions) and p50/p99
// round-trip latency. Acceptance gates, per ring format:
//   - indirect >= chained >= copy at payloads >= 4 KB (as before);
//   - tso >= seg-sw at payloads >= 4 KB (the offload must beat the
//     software fallback it replaces);
//   - tso >= indirect at payloads >= 16 KB (segmentation offload at
//     wire MTU must at least match the jumbo-MTU zero-copy path);
// with a near-tie tolerance where costs cross. The mergeable cell must
// negotiate MRG_RXBUF and reassemble spans; the tso cell must negotiate
// the offload, submit superframes and see GRO coalescing end to end.
// Writes BENCH_streaming.json ($VFPGA_JSON_DIR honoured). Exits non-zero
// on any gate violation or when the JSON cannot be written.
//
// The sweep's cells run on the worker pool (run_streaming_sweep):
// bit-identical numbers at any worker-thread count, in the canonical
// packed-major / payload / mode order printed below.
//
//   --smoke                trimmed sweep for CI
//   --threads N            worker threads for the sweep's cells
//                          (env > this > hardware; VFPGA_THREADS wins)
//   --seed N               base seed (beats VFPGA_SEED; default 2024)
//   VFPGA_ITERATIONS=400   measured round trips per cell
#include <cstdio>
#include <vector>

#include "bench_cli.hpp"
#include "vfpga/harness/report.hpp"
#include "vfpga/harness/streaming.hpp"

int main(int argc, char** argv) {
  using namespace vfpga;
  const bench::Args args = bench::parse_args(
      argc, argv, bench::kSmoke | bench::kSeed | bench::kThreads);
  harness::StreamingConfig config;
  config.iterations = args.iterations.value_or(config.iterations);
  config.seed = args.seed.value_or(config.seed);
  config.threads = args.threads;
  if (args.smoke) {
    config.payloads = {4096, 16384};
    config.iterations = std::min<u64>(config.iterations, 120);
    config.warmup = 4;
  }

  // One parallel sweep computes every cell; the loops below read
  // sweep.cells in the exact order this bench prints (packed-major,
  // then payload, then the six modes).
  const harness::StreamingSweepResult sweep =
      harness::run_streaming_sweep(config);

  const std::vector<harness::StreamMode> modes = {
      harness::StreamMode::kCopy,      harness::StreamMode::kChained,
      harness::StreamMode::kIndirect,  harness::StreamMode::kMergeable,
      harness::StreamMode::kSegmentedSw, harness::StreamMode::kOffload};

  std::printf(
      "streaming_throughput: %llu round trips/cell, mtu %u (wire %u)%s\n\n"
      "%6s %10s %8s | %8s %8s %8s | %9s %7s %7s\n",
      static_cast<unsigned long long>(config.iterations), config.mtu,
      config.wire_mtu, args.smoke ? " (smoke)" : "", "ring", "mode",
      "payload", "Gb/s", "p50 us", "p99 us", "sg segs", "merged", "gro");

  bool ok = true;
  std::size_t cell_index = 0;
  for (const bool packed : {false, true}) {
    for (const u64 payload : config.payloads) {
      harness::StreamingCellResult row[6];
      for (std::size_t m = 0; m < modes.size(); ++m) {
        row[m] = sweep.cells[cell_index++];
        const harness::StreamingCellResult& r = row[m];
        std::printf(
            "%6s %10s %8llu | %8.2f %8.1f %8.1f | %9llu %7llu %7llu\n",
            packed ? "packed" : "split", harness::stream_mode_name(r.mode),
            static_cast<unsigned long long>(payload), r.gbps,
            r.rtt_us.percentile(50), r.rtt_us.percentile(99),
            static_cast<unsigned long long>(r.tx_sg_segments),
            static_cast<unsigned long long>(r.rx_merged_frames),
            static_cast<unsigned long long>(r.gro_coalesced));
        if (r.failures != 0) {
          std::printf("  FAIL: %llu round trips failed (%s)\n",
                      static_cast<unsigned long long>(r.failures),
                      harness::stream_mode_name(r.mode));
          ok = false;
        }
      }

      const harness::StreamingCellResult& copy = row[0];
      const harness::StreamingCellResult& chained = row[1];
      const harness::StreamingCellResult& indirect = row[2];
      const harness::StreamingCellResult& mergeable = row[3];
      const harness::StreamingCellResult& seg_sw = row[4];
      const harness::StreamingCellResult& tso = row[5];
      if (payload >= 4096) {
        // Near-tie tolerance where the copy and mapping costs cross.
        const double tol = payload <= 4096 ? 0.02 : 0.01;
        if (indirect.gbps < chained.gbps * (1.0 - tol)) {
          std::printf("  FAIL: indirect %.2f Gb/s < chained %.2f Gb/s "
                      "(%s, payload %llu)\n",
                      indirect.gbps, chained.gbps,
                      packed ? "packed" : "split",
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
        if (chained.gbps < copy.gbps * (1.0 - tol)) {
          std::printf("  FAIL: chained %.2f Gb/s < copy %.2f Gb/s "
                      "(%s, payload %llu)\n",
                      chained.gbps, copy.gbps, packed ? "packed" : "split",
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
        if (tso.gbps < seg_sw.gbps * (1.0 - tol)) {
          std::printf("  FAIL: tso %.2f Gb/s < seg-sw %.2f Gb/s "
                      "(%s, payload %llu)\n",
                      tso.gbps, seg_sw.gbps, packed ? "packed" : "split",
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
      }
      if (payload >= 16384) {
        // The headline gate: at large payloads the offloaded wire-MTU
        // path must at least match the jumbo-MTU indirect-sg path the
        // previous sweep crowned (one superframe each way, segmentation
        // on the fabric, one interrupt, one stack traversal).
        if (tso.gbps < indirect.gbps * (1.0 - 0.01)) {
          std::printf("  FAIL: tso %.2f Gb/s < indirect %.2f Gb/s "
                      "(%s, payload %llu)\n",
                      tso.gbps, indirect.gbps, packed ? "packed" : "split",
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
      }
      if (!mergeable.mergeable_negotiated) {
        std::printf("  FAIL: MRG_RXBUF did not negotiate (%s)\n",
                    packed ? "packed" : "split");
        ok = false;
      }
      if (payload > config.mrg_buffer_bytes &&
          mergeable.rx_merged_frames == 0) {
        std::printf("  FAIL: no mergeable spans at payload %llu (%s)\n",
                    static_cast<unsigned long long>(payload),
                    packed ? "packed" : "split");
        ok = false;
      }
      if (copy.tx_sg_segments != 0) {
        std::printf("  FAIL: copy mode posted %llu sg segments\n",
                    static_cast<unsigned long long>(copy.tx_sg_segments));
        ok = false;
      }
      if (!tso.tso_negotiated) {
        std::printf("  FAIL: HOST_UFO did not negotiate (%s)\n",
                    packed ? "packed" : "split");
        ok = false;
      }
      const u64 wire_payload = static_cast<u64>(config.wire_mtu) - 28;
      if (payload > wire_payload) {
        if (tso.tx_superframes == 0 || tso.gro_coalesced == 0 ||
            tso.rx_gro_frames == 0) {
          std::printf("  FAIL: tso cell saw no offload traffic "
                      "(superframes %llu, gro %llu/%llu) (%s, payload "
                      "%llu)\n",
                      static_cast<unsigned long long>(tso.tx_superframes),
                      static_cast<unsigned long long>(tso.gro_coalesced),
                      static_cast<unsigned long long>(tso.rx_gro_frames),
                      packed ? "packed" : "split",
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
        if (seg_sw.sw_gso_segments == 0) {
          std::printf("  FAIL: seg-sw cell produced no software segments "
                      "(%s, payload %llu)\n",
                      packed ? "packed" : "split",
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
        if (tso.sw_gso_segments != 0) {
          std::printf("  FAIL: tso cell fell back to software GSO "
                      "(%llu segments) (%s, payload %llu)\n",
                      static_cast<unsigned long long>(tso.sw_gso_segments),
                      packed ? "packed" : "split",
                      static_cast<unsigned long long>(payload));
          ok = false;
        }
      }
    }
    std::printf("\n");
  }

  harness::Json doc;
  doc.begin_object()
      .field("source", "streaming_throughput")
      .field("seed", config.seed)
      .field("iterations", config.iterations)
      .field("mtu", config.mtu)
      .field("wire_mtu", config.wire_mtu)
      .begin_array("cells");
  for (const harness::StreamingCellResult& r : sweep.cells) {
    doc.begin_object()
        .field("ring", r.packed ? "packed" : "split")
        .field("mode", harness::stream_mode_name(r.mode))
        .field("payload_bytes", r.payload)
        .field("gbps", r.gbps)
        .field("p50_us", r.rtt_us.percentile(50))
        .field("p99_us", r.rtt_us.percentile(99))
        .field("tx_sg_segments", r.tx_sg_segments)
        .field("rx_merged_frames", r.rx_merged_frames)
        .field("tx_superframes", r.tx_superframes)
        .field("sw_gso_segments", r.sw_gso_segments)
        .field("gro_coalesced", r.gro_coalesced)
        .field("rx_gro_frames", r.rx_gro_frames)
        .field("failures", r.failures)
        .end_object();
  }
  doc.end_array().field("ok", ok).end_object();
  ok = harness::write_bench_json("BENCH_streaming.json", doc.str()) && ok;
  return ok ? 0 : 1;
}
