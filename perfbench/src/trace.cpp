#include "trace.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

thread_local std::uint64_t t_allocations = 0;

constexpr std::array<const char*, static_cast<std::size_t>(SpanId::kCount)>
    kSpanNames = {
        "harness.setup",         "op",
        "hostos.sendto",         "hostos.recvfrom",
        "fpga.counter_read",     "hostos.xdma_write",
        "hostos.xdma_read",      "reactor.poll",
        "reactor.submit_poller", "reactor.complete_poller",
        "hostos.blk_submit",     "hostos.blk_harvest",
        "hostos.blk_pop",        "harness.fleet_run",
};

}  // namespace

std::uint64_t thread_allocations() { return t_allocations; }
void count_allocation() { ++t_allocations; }

const char* span_name(SpanId id) {
  return kSpanNames[static_cast<std::size_t>(id)];
}

Tracer::Tracer(std::size_t record_capacity) : enabled_(true) {
  records_.reserve(record_capacity);
}

void Tracer::begin(SpanId id) {
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %zu\n",
                 kMaxDepth);
    std::abort();
  }
  Frame& f = stack_[depth_++];
  f.id = id;
  f.child_ns = 0;
  f.record = 0;
  if (records_.size() < records_.capacity()) {
    Record r;
    r.op = op_;
    r.id = id;
    r.parent = depth_ > 1 ? stack_[depth_ - 2].record : 0;
    records_.push_back(r);
    f.record = static_cast<std::uint32_t>(records_.size());
  }
  f.allocs_at_start = thread_allocations();
  f.start_ns = now_ns();
}

void Tracer::end() {
  const std::int64_t end_ns = now_ns();
  const Frame& f = stack_[--depth_];
  const std::int64_t dur = end_ns - f.start_ns;
  const std::uint64_t allocs = thread_allocations() - f.allocs_at_start;
  Aggregate& a = agg_[static_cast<std::size_t>(f.id)];
  ++a.calls;
  a.total_ns += dur;
  a.self_ns += dur - f.child_ns;
  a.allocs += allocs;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
  }
  if (f.record != 0) {
    Record& r = records_[f.record - 1];
    r.start_ns = f.start_ns;
    r.end_ns = end_ns;
    r.allocs = allocs;
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%u,\"op\":%llu,"
                 "\"allocs\":%llu}}\n",
                 i == 0 ? "" : ",", span_name(r.id),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, i + 1,
                 r.parent, static_cast<unsigned long long>(r.op),
                 static_cast<unsigned long long>(r.allocs));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
