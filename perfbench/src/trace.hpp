// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each library layer.
//
// A span has a name (a fixed SpanId), a start and end on the host's
// steady clock, the span that encloses it, the op it belongs to, and
// the heap allocations its thread made while it was open. Aggregates
// (calls, total time, self time, allocations) are kept per SpanId for
// every span; full records are kept in a preallocated buffer for the
// first `record_capacity` spans only, so recording never allocates and
// never perturbs the allocation counts it measures. The records are
// written out once, at the end, as Chrome trace-event JSON.
//
// Self time is a span's duration minus the time its direct children
// cover. A disabled tracer makes every span a no-op.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Heap allocations made by the calling thread. Incremented by the
/// counting operator new linked into the benchmark binary; stays 0 in
/// binaries without it.
std::uint64_t thread_allocations();
void count_allocation();

enum class SpanId : std::uint8_t {
  kSetup,          ///< testbed build + probe + warm-up ops
  kOp,             ///< one timed echo or loop-back op
  kSendto,         ///< UdpSocket::sendto
  kRecvfrom,       ///< UdpSocket::recvfrom
  kCounterRead,    ///< PerfCounterBank::interval lookups of one op
  kXdmaWrite,      ///< XdmaDeviceFile::write
  kXdmaRead,       ///< XdmaDeviceFile::read
  kReactorPoll,    ///< Reactor::poll_once
  kSubmitPoller,   ///< the benchmark's submission poller
  kCompletePoller, ///< the benchmark's completion poller
  kBlkSubmit,      ///< VirtioBlkDriver::submit_read / submit_write
  kBlkHarvest,     ///< VirtioBlkDriver::harvest_now
  kBlkPop,         ///< VirtioBlkDriver::pop_completion + read_payload
  kFleetRun,       ///< harness::run_sim_speed
  kCount,
};

const char* span_name(SpanId id);

class Tracer {
 public:
  struct Aggregate {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;  ///< inclusive of child spans
  };

  Tracer() = default;
  /// An enabled tracer that keeps full records of the first
  /// `record_capacity` spans.
  explicit Tracer(std::size_t record_capacity);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_op(std::uint64_t op) { op_ = op; }

  void begin(SpanId id);
  void end();

  [[nodiscard]] const Aggregate& aggregate(SpanId id) const {
    return agg_[static_cast<std::size_t>(id)];
  }

  /// Write the kept records as Chrome trace-event JSON; false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxDepth = 16;
  struct Record {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t op = 0;
    std::uint64_t allocs = 0;
    std::uint32_t parent = 0;  ///< record index + 1; 0 = root
    SpanId id = SpanId::kOp;
  };
  struct Frame {
    SpanId id = SpanId::kOp;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t allocs_at_start = 0;
    std::uint32_t record = 0;  ///< record index + 1; 0 = not recorded
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::array<Aggregate, static_cast<std::size_t>(SpanId::kCount)> agg_{};
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::vector<Record> records_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, SpanId id) : tracer_(&tracer) {
    if (tracer_->enabled()) {
      tracer_->begin(id);
    }
  }
  ~Span() {
    if (tracer_->enabled()) {
      tracer_->end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
