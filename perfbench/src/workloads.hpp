// The benchmark's four workloads, written against the library's public
// API only: the testbeds, UdpSocket, XdmaDeviceFile, VirtioBlkDriver,
// reactor::Reactor and harness::run_sim_speed, plus their counters.
//
// Every workload runs in segments. A segment builds its own testbed
// (the set-up part), then runs a fixed number of timed ops on it. The
// simulated outputs of a segment are a pure function of the seed and
// the op count, so every segment of a run must produce the same Digest,
// and so must the traced run and, for the fleet, every worker count.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "vfpga/core/testbed.hpp"

namespace perfbench {

using vfpga::u32;
using vfpga::u64;
using vfpga::u8;

/// UDP payload sizes the paper sweeps; each echo op draws one.
inline constexpr std::array<u32, 5> kPayloadSizes = {64, 128, 256, 512, 1024};

/// Seeded payload source shared by both echo workloads: the size of
/// each op is drawn from kPayloadSizes, the bytes are a seeded pattern
/// whose first byte changes every op so a stale echo cannot pass.
class PayloadDraw {
 public:
  explicit PayloadDraw(u64 seed);
  /// The next op's payload (valid until the next call).
  vfpga::ConstByteSpan next();

 private:
  vfpga::sim::Xoshiro256 rng_;
  vfpga::Bytes bytes_;
  u64 op_ = 0;
};

/// Simulated result of one echo or loop-back op.
struct EchoResult {
  vfpga::sim::Duration total{};       ///< app-level round trip
  vfpga::sim::Duration hardware{};    ///< device share (Figs. 4-5)
  vfpga::sim::Duration user_logic{};  ///< response generation (VirtIO only)
  bool ok = false;
};

/// The paper's VirtIO test step with sendto and recvfrom as separate
/// calls: loop bookkeeping, sendto, recvfrom, payload check, counter
/// read. Simulates exactly what VirtioNetTestbed::udp_round_trip does.
EchoResult virtio_echo(vfpga::core::VirtioNetTestbed& bed,
                       vfpga::ConstByteSpan payload, Tracer& tracer);

/// The paper's XDMA test step with write and read as separate calls;
/// simulates exactly what XdmaTestbed::write_read_round_trip does.
/// `readback` must be as long as `pattern`.
EchoResult xdma_echo(vfpga::core::XdmaTestbed& bed,
                     vfpga::ConstByteSpan pattern, vfpga::ByteSpan readback,
                     Tracer& tracer);

/// Everything a segment computes in simulated time or counts: compared
/// exactly between segments, traced and untraced runs, and worker counts.
struct Digest {
  u64 ops = 0;
  u64 failed = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double ops_per_sim_s = 0;
  /// Deterministic per-layer metrics, by metric name.
  std::vector<std::pair<std::string, double>> counts;

  bool operator==(const Digest&) const = default;
};

/// Host CPU seconds of one pass of the reference loop: a fixed
/// std::map / std::string churn that runs no library code. Run right
/// after each host-time measurement, it tracks how fast the host runs at
/// that moment; on a shared machine co-tenant load moves it, and the
/// simulator with it, by up to 1.5x. Host-time metrics are scaled to a
/// host on which one pass takes kReferenceSeconds.
double reference_loop();
inline constexpr double kReferenceSeconds = 1e-3;

struct Segment {
  /// Host clocks over one chunk of consecutive timed ops, and the
  /// reference loop run right after it.
  struct Chunk {
    double wall_s = 0;
    double cpu_s = 0;  ///< the whole process's, all threads
    u64 ops = 0;
    double reference_s = 0;
  };

  Digest digest;
  /// The timed ops in chunks of consecutive ops (the fleet: one chunk).
  std::vector<Chunk> chunks;
  u64 attempted = 0;   ///< ops run, warm-up included
  double setup_s = 0;  ///< host wall time before the first timed op
  double setup_reference_s = 0;  ///< reference loop run right after set-up
  unsigned threads_used = 0;     ///< lane-fleet worker count
};

/// Fleet shape: 8 lanes x 1250 live flows, MMPP-2 arrivals.
inline constexpr u32 kFleetLanes = 8;

/// Run one segment of `ops` timed ops after set-up (`ops` = 0 runs the
/// set-up only). For the fleet `ops` is packets per lane, and set-up is
/// a whole fleet of one packet per lane, timed into setup_s.
Segment run_virtio_echo(u64 seed, u64 ops, Tracer& tracer);
Segment run_xdma_echo(u64 seed, u64 ops, Tracer& tracer);
Segment run_blk_polled(u64 seed, u64 ops, Tracer& tracer);
Segment run_lane_fleet(u64 seed, u64 ops, unsigned workers, Tracer& tracer);

}  // namespace perfbench
