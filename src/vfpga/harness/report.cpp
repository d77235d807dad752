#include "vfpga/harness/report.hpp"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "vfpga/common/contract.hpp"
#include "vfpga/stats/histogram.hpp"

namespace vfpga::harness {
namespace {

std::string line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::string line(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return std::string{buf} + "\n";
}

}  // namespace

std::string render_fig3(const SweepResult& virtio, const SweepResult& xdma,
                        bool with_histograms) {
  VFPGA_EXPECTS(virtio.cells.size() == xdma.cells.size());
  std::string out;
  out += line("Fig. 3 -- Round-trip latency with VirtIO and vendor-provided "
              "device drivers (us)");
  out += line("%-8s %-7s %8s %8s %8s %8s %8s %8s", "payload", "driver",
              "mean", "stddev", "min", "median", "p95", "max");
  for (std::size_t i = 0; i < virtio.cells.size(); ++i) {
    for (const CellResult* cell : {&virtio.cells[i], &xdma.cells[i]}) {
      const bool is_virtio = cell == &virtio.cells[i];
      const auto s = stats::LatencySummary::from(cell->total_us);
      out += line("%-8llu %-7s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f",
                  static_cast<unsigned long long>(cell->payload),
                  is_virtio ? "VirtIO" : "XDMA", s.mean_us, s.stddev_us,
                  s.min_us, s.median_us, s.p95_us, s.max_us);
    }
  }
  if (with_histograms) {
    for (std::size_t i = 0; i < virtio.cells.size(); ++i) {
      out += line("\n  payload %llu B -- latency distribution (us)",
                  static_cast<unsigned long long>(virtio.cells[i].payload));
      for (const CellResult* cell : {&virtio.cells[i], &xdma.cells[i]}) {
        const bool is_virtio = cell == &virtio.cells[i];
        out += line("  %s:", is_virtio ? "VirtIO" : "XDMA");
        stats::Histogram hist{0.0, 120.0, 5.0};
        hist.add_all(cell->total_us);
        out += hist.render(44);
      }
    }
  }
  return out;
}

std::string render_breakdown_figure(const SweepResult& sweep,
                                    const std::string& title) {
  std::string out;
  out += title + "\n";
  out += line("%-8s %12s %12s %12s %12s %10s", "payload", "hw mean",
              "hw stddev", "sw mean", "sw stddev", "total");
  for (const CellResult& cell : sweep.cells) {
    out += line("%-8llu %12.2f %12.2f %12.2f %12.2f %10.2f",
                static_cast<unsigned long long>(cell.payload),
                cell.hardware_us.mean(), cell.hardware_us.stddev(),
                cell.software_us.mean(), cell.software_us.stddev(),
                cell.total_us.mean());
  }
  return out;
}

std::string render_table1(const SweepResult& virtio, const SweepResult& xdma) {
  VFPGA_EXPECTS(virtio.cells.size() == xdma.cells.size());
  std::string out;
  out += line("Table I -- Tail latencies for data movement with VirtIO and "
              "XDMA (us)");
  out += line("%-8s | %8s %8s | %8s %8s | %8s %8s", "Payload", "95%V",
              "95%X", "99%V", "99%X", "99.9%V", "99.9%X");
  for (std::size_t i = 0; i < virtio.cells.size(); ++i) {
    const auto& v = virtio.cells[i];
    const auto& x = xdma.cells[i];
    out += line("%-8llu | %8.1f %8.1f | %8.1f %8.1f | %8.1f %8.1f",
                static_cast<unsigned long long>(v.payload),
                v.total_us.percentile(95), x.total_us.percentile(95),
                v.total_us.percentile(99), x.total_us.percentile(99),
                v.total_us.percentile(99.9), x.total_us.percentile(99.9));
  }
  return out;
}

std::string render_footer(const ExperimentConfig& config,
                          const SweepResult& virtio, const SweepResult& xdma) {
  u64 failures = 0;
  u64 samples = 0;
  for (const auto* sweep : {&virtio, &xdma}) {
    for (const CellResult& cell : sweep->cells) {
      failures += cell.failures;
      samples += cell.total_us.count();
    }
  }
  return line("[%llu samples total, %llu packets/point, seed %llu, "
              "%llu verification failures]",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(config.iterations),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(failures));
}

Json& Json::begin_object(std::string_view key) { return open(key, '{'); }

Json& Json::end_object() { return close('}'); }

Json& Json::begin_array(std::string_view key) { return open(key, '['); }

Json& Json::end_array() { return close(']'); }

void Json::member(std::string_view key) {
  if (depth_ > 0) {
    out_ += first_ ? "\n" : ",\n";
    out_.append(static_cast<std::size_t>(2 * depth_), ' ');
  }
  first_ = false;
  if (!key.empty()) {
    quoted(key);
    out_ += ": ";
  }
}

void Json::number(double value) {
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void Json::quoted(std::string_view text) {
  out_ += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(byte));
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

Json& Json::open(std::string_view key, char bracket) {
  member(key);
  out_ += bracket;
  ++depth_;
  first_ = true;
  return *this;
}

Json& Json::close(char bracket) {
  VFPGA_EXPECTS(depth_ > 0);
  --depth_;
  if (!first_) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(2 * depth_), ' ');
  }
  out_ += bracket;
  first_ = false;
  if (depth_ == 0) {
    out_ += '\n';
  }
  return *this;
}

bool write_bench_json(const std::string& filename, const std::string& text) {
  const char* dir = std::getenv("VFPGA_JSON_DIR");
  const std::string path = dir == nullptr || *dir == '\0'
                               ? filename
                               : std::string(dir) + "/" + filename;
  std::ofstream file(path, std::ios::binary);
  file << text;
  file.close();
  if (!file) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

bool write_latency_json(const ExperimentConfig& config,
                        const SweepResult& virtio, const SweepResult& xdma,
                        const std::string& source) {
  Json doc;
  doc.begin_object()
      .field("source", source)
      .field("iterations", config.iterations)
      .field("seed", config.seed)
      .begin_array("cells");
  for (const auto* sweep : {&virtio, &xdma}) {
    for (const CellResult& cell : sweep->cells) {
      const auto s = stats::LatencySummary::from(cell.total_us);
      doc.begin_object()
          .field("driver", sweep->driver_name)
          .field("payload_bytes", cell.payload)
          .field("samples", cell.total_us.count())
          .field("mean_us", s.mean_us)
          .field("stddev_us", s.stddev_us)
          .field("min_us", s.min_us)
          .field("p50_us", s.median_us)
          .field("p95_us", s.p95_us)
          .field("p99_us", s.p99_us)
          .field("p999_us", s.p999_us)
          .field("max_us", s.max_us)
          .field("hw_mean_us", cell.hardware_us.mean())
          .field("sw_mean_us", cell.software_us.mean())
          .field("failures", cell.failures)
          .end_object();
    }
  }
  doc.end_array().end_object();
  return write_bench_json("BENCH_latency.json", doc.str());
}

}  // namespace vfpga::harness
