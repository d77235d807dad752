#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "vfpga/harness/sim_speed.hpp"
#include "vfpga/reactor/reactor.hpp"
#include "vfpga/stats/summary.hpp"

namespace perfbench {

namespace core = vfpga::core;
namespace hostos = vfpga::hostos;
namespace sim = vfpga::sim;
using vfpga::Bytes;
using vfpga::ByteSpan;
using vfpga::ConstByteSpan;

namespace {

constexpr u64 kEchoWarmup = 64;
constexpr u64 kBlkWarmup = 32;
/// Ops between two reads of the host clocks.
constexpr u64 kChunkOps = 2000;
constexpr u64 kBlkChunkOps = 500;
constexpr double kMiB = 1024.0 * 1024.0;

/// Tracer for warm-up ops, which belong to the set-up span only.
Tracer g_untraced;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double per_op(double total, u64 ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

void set_percentiles(const vfpga::stats::SampleSet& samples, Digest& d) {
  if (samples.empty()) {
    return;
  }
  d.p50_us = samples.percentile(50.0);
  d.p99_us = samples.percentile(99.0);
  d.p999_us = samples.percentile(99.9);
}

/// Host-thread accumulators, read before and after the timed ops.
struct ThreadMark {
  sim::SimTime now;
  sim::Duration software;
  sim::Duration mmio;
  sim::Duration poll;

  static ThreadMark of(const hostos::HostThread& t) {
    return {t.now(), t.software_time(), t.mmio_stall_time(), t.poll_time()};
  }
};

/// Per-op means of the host-thread accumulators over [a, b]; blocked
/// time is whatever the thread spent neither executing nor stalled.
void add_thread_split(const ThreadMark& a, const ThreadMark& b, u64 ops,
                      Digest& d) {
  const sim::Duration total = b.now - a.now;
  const sim::Duration software = b.software - a.software;
  const sim::Duration mmio = b.mmio - a.mmio;
  d.counts.emplace_back("hostos.sim_software_us", per_op(software.micros(), ops));
  d.counts.emplace_back("hostos.sim_poll_us",
                        per_op((b.poll - a.poll).micros(), ops));
  d.counts.emplace_back("hostos.sim_mmio_stall_us", per_op(mmio.micros(), ops));
  d.counts.emplace_back("hostos.sim_blocked_us",
                        per_op((total - software - mmio).micros(), ops));
}

/// Wall and CPU clocks around the timed ops, read at the end of every
/// chunk of ops.
class Stopwatch {
 public:
  explicit Stopwatch(Segment& seg) : seg_(&seg) { seg.chunks.reserve(64); }

  /// Close a chunk of `ops` ops, then run the reference loop outside
  /// the timed chunks.
  void lap(u64 ops) {
    const double wall = wall_now();
    const double cpu = cpu_now();
    seg_->chunks.push_back(
        {wall - lap_wall_, cpu - lap_cpu_, ops, reference_loop()});
    lap_wall_ = wall_now();
    lap_cpu_ = cpu_now();
  }

 private:
  Segment* seg_;
  double lap_wall_ = wall_now();
  double lap_cpu_ = cpu_now();
};

/// Set-up wall time since `setup0`, and the reference loop after it.
void end_setup(double setup0, Segment& seg) {
  seg.setup_s = wall_now() - setup0;
  seg.setup_reference_s = reference_loop();
}

volatile std::size_t g_reference_sink = 0;

}  // namespace

double reference_loop() {
  const double start = cpu_now();
  std::map<u64, std::string> table;
  sim::SplitMix64 gen{42};
  for (u32 i = 0; i < 6000; ++i) {
    table[gen.next() % 2000] = std::string(20 + (i & 7), 'x');
    if (i % 3 == 0) {
      table.erase(table.begin());
    }
  }
  g_reference_sink = table.size();
  return cpu_now() - start;
}

// ---- ops ------------------------------------------------------------------------

PayloadDraw::PayloadDraw(u64 seed)
    : rng_(seed ^ 0x9a710ad5ull), bytes_(kPayloadSizes.back()) {
  vfpga::sim::SplitMix64 fill{seed ^ 0xc0ffeeull};
  for (u8& b : bytes_) {
    b = static_cast<u8>(fill.next());
  }
}

ConstByteSpan PayloadDraw::next() {
  const u32 size = kPayloadSizes[rng_.uniform_below(kPayloadSizes.size())];
  bytes_[0] = static_cast<u8>(op_++);
  return ConstByteSpan{bytes_}.first(size);
}

EchoResult virtio_echo(core::VirtioNetTestbed& bed, ConstByteSpan payload,
                       Tracer& tracer) {
  hostos::HostThread& t = bed.thread();
  const core::TestbedOptions& options = bed.options();
  t.exec(options.costs.app_iteration);

  const sim::SimTime start = t.now();
  EchoResult r;
  bool sent = false;
  {
    Span span(tracer, SpanId::kSendto);
    sent = bed.socket().sendto(t, bed.fpga_ip(), options.fpga_udp_port,
                               payload);
  }
  if (!sent) {
    return r;
  }
  std::optional<hostos::KernelNetstack::Datagram> reply;
  {
    Span span(tracer, SpanId::kRecvfrom);
    reply = bed.socket().recvfrom(t);
  }
  r.total = t.now() - start;
  if (!reply.has_value() || reply->payload.size() != payload.size() ||
      !std::equal(payload.begin(), payload.end(), reply->payload.begin())) {
    return r;
  }
  Span span(tracer, SpanId::kCounterRead);
  const vfpga::fpga::PerfCounterBank& counters = bed.device().counters();
  const sim::Duration notify_to_irq = counters.interval("notify", "irq_sent");
  r.user_logic = counters.interval("ul_start", "ul_done");
  r.hardware = notify_to_irq - r.user_logic;
  r.ok = true;
  return r;
}

EchoResult xdma_echo(core::XdmaTestbed& bed, ConstByteSpan pattern,
                     ByteSpan readback, Tracer& tracer) {
  hostos::HostThread& t = bed.thread();
  t.exec(bed.options().costs.app_iteration);
  readback[0] = static_cast<u8>(~pattern[0]);

  const sim::SimTime start = t.now();
  EchoResult r;
  vfpga::i64 written = 0;
  {
    Span span(tracer, SpanId::kXdmaWrite);
    written = bed.h2c_file().write(t, pattern);
  }
  if (written < 0) {
    return r;
  }
  vfpga::i64 read = 0;
  {
    Span span(tracer, SpanId::kXdmaRead);
    read = bed.c2h_file().read(t, readback);
  }
  if (read < 0) {
    return r;
  }
  r.total = t.now() - start;
  if (!std::equal(pattern.begin(), pattern.end(), readback.begin())) {
    return r;
  }
  Span span(tracer, SpanId::kCounterRead);
  const vfpga::fpga::PerfCounterBank& counters = bed.device().counters();
  r.hardware = counters.interval("h2c_run", "h2c_complete") +
               counters.interval("c2h_run", "c2h_complete");
  r.ok = true;
  return r;
}

// ---- echo workloads -------------------------------------------------------------

namespace {

/// Latency, device-share and failure tallies of a run of echo ops.
struct EchoTally {
  explicit EchoTally(u64 ops) : samples(ops) {}

  void add(const EchoResult& r) {
    if (!r.ok) {
      ++failed;
      return;
    }
    samples.add(r.total);
    total += r.total;
    hardware += r.hardware;
    user_logic += r.user_logic;
  }

  void fill(u64 ops, Digest& d) const {
    d.ops = ops;
    d.failed = failed;
    set_percentiles(samples, d);
    d.ops_per_sim_s = total.picos() > 0
                          ? static_cast<double>(samples.count()) /
                                (static_cast<double>(total.picos()) * 1e-12)
                          : 0.0;
  }

  vfpga::stats::SampleSet samples;
  sim::Duration total{};
  sim::Duration hardware{};
  sim::Duration user_logic{};
  u64 failed = 0;
};

}  // namespace

Segment run_virtio_echo(u64 seed, u64 ops, Tracer& tracer) {
  Segment seg;
  seg.attempted = kEchoWarmup + ops;
  const double setup0 = wall_now();
  std::unique_ptr<core::VirtioNetTestbed> bed;
  PayloadDraw draw(seed);
  {
    Span span(tracer, SpanId::kSetup);
    core::TestbedOptions options;
    options.seed = seed;
    bed = std::make_unique<core::VirtioNetTestbed>(options);
    for (u64 i = 0; i < kEchoWarmup; ++i) {
      if (!virtio_echo(*bed, draw.next(), g_untraced).ok) {
        ++seg.digest.failed;
      }
    }
  }
  end_setup(setup0, seg);
  if (ops == 0) {
    return seg;
  }

  hostos::HostThread& t = bed->thread();
  const ThreadMark mark0 = ThreadMark::of(t);
  const u64 irqs0 = bed->irq().delivered_count();
  const u64 kicks0 = bed->driver().tx_kicks();
  const u64 frames0 = bed->device().frames_processed();
  EchoTally tally(ops);
  Stopwatch watch(seg);
  for (u64 i = 0; i < ops; ++i) {
    tracer.set_op(i);
    {
      Span span(tracer, SpanId::kOp);
      tally.add(virtio_echo(*bed, draw.next(), tracer));
    }
    if ((i + 1) % kChunkOps == 0 || i + 1 == ops) {
      watch.lap(i % kChunkOps + 1);
    }
  }

  Digest& d = seg.digest;
  const u64 warmup_failed = d.failed;
  tally.fill(ops, d);
  d.failed += warmup_failed;
  d.counts.emplace_back("core.sim_hw_us", per_op(tally.hardware.micros(), ops));
  d.counts.emplace_back("core.sim_user_logic_us",
                        per_op(tally.user_logic.micros(), ops));
  add_thread_split(mark0, ThreadMark::of(t), ops, d);
  d.counts.emplace_back(
      "hostos.irqs_per_op",
      per_op(static_cast<double>(bed->irq().delivered_count() - irqs0), ops));
  d.counts.emplace_back(
      "hostos.tx_kicks_per_op",
      per_op(static_cast<double>(bed->driver().tx_kicks() - kicks0), ops));
  d.counts.emplace_back(
      "core.frames_per_op",
      per_op(static_cast<double>(bed->device().frames_processed() - frames0),
             ops));
  d.counts.emplace_back(
      "fpga.counter_history",
      static_cast<double>(bed->device().counters().history().size()));
  d.counts.emplace_back(
      "mem.resident_mib",
      static_cast<double>(bed->memory().resident_bytes()) / kMiB);
  return seg;
}

Segment run_xdma_echo(u64 seed, u64 ops, Tracer& tracer) {
  Segment seg;
  seg.attempted = kEchoWarmup + ops;
  const double setup0 = wall_now();
  std::unique_ptr<core::XdmaTestbed> bed;
  PayloadDraw draw(seed);
  const u64 max_bytes = core::virtio_wire_bytes(kPayloadSizes.back());
  Bytes pattern(max_bytes);
  Bytes readback(max_bytes);
  sim::SplitMix64 fill{seed ^ 0xd3a0ull};
  for (u8& b : pattern) {
    b = static_cast<u8>(fill.next());
  }
  // Each op moves the VirtIO frame size of the drawn payload
  // (Section IV-B), tagged with the payload's per-op first byte.
  const auto next_op = [&](Tracer& tr) {
    const ConstByteSpan payload = draw.next();
    const u64 bytes = core::virtio_wire_bytes(payload.size());
    pattern[0] = payload[0];
    return xdma_echo(*bed, ConstByteSpan{pattern}.first(bytes),
                     ByteSpan{readback}.first(bytes), tr);
  };
  {
    Span span(tracer, SpanId::kSetup);
    core::TestbedOptions options;
    options.seed = seed;
    bed = std::make_unique<core::XdmaTestbed>(options);
    for (u64 i = 0; i < kEchoWarmup; ++i) {
      if (!next_op(g_untraced).ok) {
        ++seg.digest.failed;
      }
    }
  }
  end_setup(setup0, seg);
  if (ops == 0) {
    return seg;
  }

  hostos::HostThread& t = bed->thread();
  const ThreadMark mark0 = ThreadMark::of(t);
  const u64 irqs0 = bed->irq().delivered_count();
  EchoTally tally(ops);
  Stopwatch watch(seg);
  for (u64 i = 0; i < ops; ++i) {
    tracer.set_op(i);
    {
      Span span(tracer, SpanId::kOp);
      tally.add(next_op(tracer));
    }
    if ((i + 1) % kChunkOps == 0 || i + 1 == ops) {
      watch.lap(i % kChunkOps + 1);
    }
  }

  Digest& d = seg.digest;
  const u64 warmup_failed = d.failed;
  tally.fill(ops, d);
  d.failed += warmup_failed;
  d.counts.emplace_back("xdma.sim_hw_us", per_op(tally.hardware.micros(), ops));
  add_thread_split(mark0, ThreadMark::of(t), ops, d);
  d.counts.emplace_back(
      "hostos.irqs_per_op",
      per_op(static_cast<double>(bed->irq().delivered_count() - irqs0), ops));
  d.counts.emplace_back(
      "fpga.counter_history",
      static_cast<double>(bed->device().counters().history().size()));
  return seg;
}

// ---- blk-polled -----------------------------------------------------------------

namespace {

constexpr u32 kBlockBytes = 4096;
constexpr u64 kSectorsPerBlock = kBlockBytes / vfpga::virtio::blk::kSectorBytes;
constexpr u64 kBlocks = 1024;  ///< a 4 MiB store
constexpr vfpga::u16 kBlkDepth = 16;

/// Contents of write number `version` (0 = never written: zeros).
void fill_block(u64 seed, u64 version, ByteSpan out) {
  if (version == 0) {
    std::fill(out.begin(), out.end(), u8{0});
    return;
  }
  sim::SplitMix64 gen{seed ^ (version * 0x9e3779b97f4a7c15ull)};
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const u64 word = gen.next();
    for (std::size_t b = 0; b < 8; ++b) {
      out[i + b] = static_cast<u8>(word >> (8 * b));
    }
  }
}

/// Polled virtio-blk at queue depth 16 on one queue, driven by the
/// benchmark's own submit and completion pollers on a reactor. Random
/// 4 KiB blocks, half reads and half writes; no two requests in flight
/// touch the same block, so each read has exactly one correct answer:
/// the last write to its block (zeros if none), which a shadow version
/// table tracks.
class BlkRun {
 public:
  explicit BlkRun(u64 seed) : seed_(seed), rng_(seed ^ 0xb1c0ull) {
    core::TestbedOptions options;
    options.seed = seed;
    options.attach_blk = true;
    options.blk.capacity_sectors = kBlocks * kSectorsPerBlock;
    options.blk_driver.queue_depth = kBlkDepth;
    options.blk_driver.max_io_bytes = kBlockBytes;
    bed_ = std::make_unique<core::VirtioNetTestbed>(options);
    drv_ = &bed_->blk_driver();
    drv_->set_polled(0, true);
    reactor_ = std::make_unique<vfpga::reactor::Reactor>(
        vfpga::reactor::ReactorConfig{.id = 0}, bed_->thread());
    reactor_->register_poller("blk-submit",
                              [this](sim::SimTime) { return submit(); });
    reactor_->register_poller("blk-complete",
                              [this](sim::SimTime) { return complete(); });
    version_.assign(kBlocks, 0);
    busy_.assign(kBlocks, 0);
    slots_.resize(kBlkDepth);
    write_buf_.resize(kBlockBytes);
    read_buf_.resize(kBlockBytes);
    expect_buf_.resize(kBlockBytes);
  }

  /// Run until `requests` more requests complete; false when the loop
  /// stopped making progress.
  bool run(u64 requests, Tracer& tracer) {
    tracer_ = &tracer;
    target_ += requests;
    constexpr u64 kMaxDryPolls = 1'000'000;
    u64 dry = 0;
    while (completed_ < target_) {
      const u64 before = completed_;
      {
        Span span(tracer, SpanId::kReactorPoll);
        reactor_->poll_once();
      }
      dry = completed_ == before ? dry + 1 : 0;
      if (dry > kMaxDryPolls) {
        failed_ += target_ - completed_;
        return false;
      }
    }
    return true;
  }

  core::VirtioNetTestbed& bed() { return *bed_; }
  vfpga::reactor::Reactor& reactor() { return *reactor_; }
  vfpga::stats::SampleSet& latency() { return latency_; }
  [[nodiscard]] u64 failed() const { return failed_; }
  [[nodiscard]] double inflight_sum() const { return inflight_sum_; }

 private:
  struct Pending {
    u64 block = 0;
    u64 version = 0;  ///< written, or expected by a read
    bool read = false;
  };

  bool submit() {
    Span poller(*tracer_, SpanId::kSubmitPoller);
    // Half-depth refill, as harness/blk_bench does.
    if (drv_->in_flight(0) > kBlkDepth / 2) {
      return false;
    }
    bool any = false;
    while (drv_->in_flight(0) < kBlkDepth && submitted_ < target_) {
      u64 block = rng_.uniform_below(kBlocks);
      while (busy_[block] != 0) {
        block = rng_.uniform_below(kBlocks);
      }
      Pending p;
      p.block = block;
      p.read = rng_.uniform_below(2) == 0;
      const u64 sector = block * kSectorsPerBlock;
      if (p.read) {
        p.version = version_[block];
      } else {
        p.version = ++writes_;
        fill_block(seed_, p.version, write_buf_);
      }
      std::optional<u32> slot;
      {
        Span span(*tracer_, SpanId::kBlkSubmit);
        slot = p.read ? drv_->submit_read(bed_->thread(), 0, sector, kBlockBytes)
                      : drv_->submit_write(bed_->thread(), 0, sector, write_buf_);
      }
      if (!slot.has_value()) {
        ++failed_;
        ++completed_;  // counted as done so the loop cannot stall on it
        ++submitted_;
        continue;
      }
      slots_.at(*slot) = p;
      busy_[block] = 1;
      ++submitted_;
      any = true;
    }
    return any;
  }

  bool complete() {
    Span poller(*tracer_, SpanId::kCompletePoller);
    u32 harvested = 0;
    {
      Span span(*tracer_, SpanId::kBlkHarvest);
      harvested = drv_->harvest_now(bed_->thread(), 0);
    }
    if (harvested == 0) {
      return false;
    }
    while (true) {
      std::optional<hostos::VirtioBlkDriver::Completion> c;
      bool read = false;
      {
        Span span(*tracer_, SpanId::kBlkPop);
        c = drv_->pop_completion(0);
        if (c.has_value() && slots_.at(c->slot).read) {
          read = true;
          drv_->read_payload(0, c->slot, read_buf_);
        }
      }
      if (!c.has_value()) {
        break;
      }
      inflight_sum_ += drv_->in_flight(0);
      const Pending& p = slots_[c->slot];
      bool ok = c->status == vfpga::virtio::blk::kStatusOk;
      if (ok && read) {
        fill_block(seed_, p.version, expect_buf_);
        ok = read_buf_ == expect_buf_;
      }
      if (ok && !read) {
        version_[p.block] = p.version;
      }
      busy_[p.block] = 0;
      if (!ok) {
        ++failed_;
      }
      latency_.add(c->completed_at - c->submitted_at);
      ++completed_;
    }
    return true;
  }

  u64 seed_;
  sim::Xoshiro256 rng_;
  std::unique_ptr<core::VirtioNetTestbed> bed_;
  hostos::VirtioBlkDriver* drv_ = nullptr;
  std::unique_ptr<vfpga::reactor::Reactor> reactor_;
  Tracer* tracer_ = &g_untraced;
  std::vector<u64> version_;  ///< per block: last completed write
  std::vector<u8> busy_;      ///< per block: a request is in flight
  std::vector<Pending> slots_;
  Bytes write_buf_;
  Bytes read_buf_;
  Bytes expect_buf_;
  vfpga::stats::SampleSet latency_;
  u64 writes_ = 0;
  u64 submitted_ = 0;
  u64 completed_ = 0;
  u64 target_ = 0;
  u64 failed_ = 0;
  double inflight_sum_ = 0;
};

}  // namespace

Segment run_blk_polled(u64 seed, u64 ops, Tracer& tracer) {
  Segment seg;
  seg.attempted = kBlkWarmup + ops;
  const double setup0 = wall_now();
  std::unique_ptr<BlkRun> run;
  {
    Span span(tracer, SpanId::kSetup);
    run = std::make_unique<BlkRun>(seed);
    run->run(kBlkWarmup, g_untraced);
  }
  end_setup(setup0, seg);
  const u64 warmup_failed = run->failed();
  if (ops == 0) {
    seg.digest.failed = warmup_failed;
    return seg;
  }
  run->latency() = vfpga::stats::SampleSet(ops);

  hostos::HostThread& t = run->bed().thread();
  const ThreadMark mark0 = ThreadMark::of(t);
  const u64 irqs0 = run->bed().irq().delivered_count();
  const vfpga::reactor::Reactor::Stats stats0 = run->reactor().stats();
  const double inflight0 = run->inflight_sum();
  Stopwatch watch(seg);
  for (u64 done = 0; done < ops;) {
    const u64 chunk = std::min(kBlkChunkOps, ops - done);
    run->run(chunk, tracer);
    watch.lap(chunk);
    done += chunk;
  }
  const ThreadMark mark1 = ThreadMark::of(t);
  const vfpga::reactor::Reactor::Stats& stats1 = run->reactor().stats();
  const u64 irqs = run->bed().irq().delivered_count() - irqs0;

  Digest& d = seg.digest;
  d.ops = ops;
  // Polled completion must never take an interrupt.
  d.failed = run->failed() + (irqs > 0 ? 1 : 0);
  set_percentiles(run->latency(), d);
  const double span_s = (mark1.now - mark0.now).micros() * 1e-6;
  d.ops_per_sim_s = span_s > 0 ? static_cast<double>(ops) / span_s : 0.0;
  add_thread_split(mark0, mark1, ops, d);
  d.counts.emplace_back("hostos.irqs_per_op",
                        per_op(static_cast<double>(irqs), ops));
  d.counts.emplace_back("hostos.blk_inflight_mean",
                        per_op(run->inflight_sum() - inflight0, ops));
  const u64 iterations = stats1.iterations - stats0.iterations;
  const u64 busy = stats1.busy_iterations - stats0.busy_iterations;
  d.counts.emplace_back("reactor.iterations_per_op",
                        per_op(static_cast<double>(iterations), ops));
  d.counts.emplace_back("reactor.busy_share",
                        per_op(static_cast<double>(busy), iterations));
  d.counts.emplace_back(
      "mem.resident_mib",
      static_cast<double>(run->bed().memory().resident_bytes()) / kMiB);
  return seg;
}

// ---- lane-fleet -----------------------------------------------------------------

Segment run_lane_fleet(u64 seed, u64 ops, unsigned workers, Tracer& tracer) {
  vfpga::harness::SimSpeedConfig config;
  config.lanes = kFleetLanes;
  config.flows_per_lane = 1250;
  config.packets_per_lane = ops == 0 ? 1 : ops;
  config.sync = sim::SyncMode::kConservative;
  config.arrivals = vfpga::net::ArrivalProcess::kMmpp2;
  config.seed = seed;
  config.threads = workers;
  // harness::worker_threads ranks VFPGA_THREADS above config.threads, so
  // pin the variable too; the caller checks threads_used.
  const std::string pinned = std::to_string(workers);
  setenv("VFPGA_THREADS", pinned.c_str(), 1);

  Segment seg;
  vfpga::harness::SimSpeedResult r;
  Stopwatch watch(seg);
  {
    Span span(tracer, ops == 0 ? SpanId::kSetup : SpanId::kFleetRun);
    r = vfpga::harness::run_sim_speed(config);
  }
  watch.lap(r.packets);
  seg.threads_used = r.threads_used;
  if (ops == 0) {
    seg.setup_s = seg.chunks.front().wall_s;
    seg.setup_reference_s = seg.chunks.front().reference_s;
  }

  Digest& d = seg.digest;
  const u64 packets = u64{config.lanes} * config.packets_per_lane;
  seg.attempted = packets;
  d.ops = r.packets;
  d.failed = r.failures + r.dropped_messages +
             (packets - std::min(packets, r.packets));
  d.p50_us = r.latency.median_us;
  d.p99_us = r.latency.p99_us;
  d.p999_us = r.latency.p999_us;
  d.ops_per_sim_s = r.sim_makespan_us > 0 ? static_cast<double>(r.packets) /
                                                (r.sim_makespan_us * 1e-6)
                                          : 0.0;
  u64 busy_windows = 0;
  u64 all_windows = 0;
  u64 barrier_waits = 0;
  for (const auto& lane : r.residency) {
    busy_windows += lane.busy_windows;
    all_windows += lane.busy_windows + lane.idle_windows;
    barrier_waits += lane.barrier_waits;
  }
  const auto count = [](u64 v) { return static_cast<double>(v); };
  d.counts.emplace_back("sim.lanes.windows", count(r.windows));
  d.counts.emplace_back("sim.lanes.barriers", count(r.barriers));
  d.counts.emplace_back("sim.lanes.barrier_waits", count(barrier_waits));
  d.counts.emplace_back("sim.lanes.busy_share",
                        per_op(count(busy_windows), all_windows));
  d.counts.emplace_back("sim.events_per_op", per_op(count(r.events), r.packets));
  d.counts.emplace_back("sim.arena_nodes", count(r.arena_nodes));
  d.counts.emplace_back("sim.smallfn_heap_fallbacks",
                        count(r.smallfn_heap_fallbacks));
  d.counts.emplace_back("reactor.ring_messages", count(r.cross_lane_messages));
  d.counts.emplace_back("reactor.ring_dropped", count(r.dropped_messages));
  d.counts.emplace_back("net.flowgen.flows_created", count(r.flows_created));
  return seg;
}

}  // namespace perfbench
