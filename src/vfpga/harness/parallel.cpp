#include "vfpga/harness/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "vfpga/sim/rng.hpp"

namespace vfpga::harness {

std::optional<u64> parse_u64(const char* text) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (errno != 0 || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<u64>(value);
}

std::optional<unsigned> parse_thread_count(const char* text) {
  const std::optional<u64> value = parse_u64(text);
  if (!value.has_value() || *value == 0 || *value > 65'536) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

unsigned worker_threads(std::size_t cells) {
  return worker_threads(cells, 0);
}

unsigned worker_threads(std::size_t cells, unsigned cli_request) {
  unsigned threads = std::thread::hardware_concurrency();
  if (threads == 0) {
    threads = 4;
  }
  if (cli_request > 0) {
    threads = cli_request;
  }
  if (const char* env = std::getenv("VFPGA_THREADS")) {
    const std::optional<unsigned> v = parse_thread_count(env);
    if (!v.has_value()) {
      std::fprintf(stderr,
                   "error: VFPGA_THREADS=%s is not a positive integer "
                   "(1..65536)\n",
                   env);
      std::abort();
    }
    threads = *v;
  }
  // Clamp AFTER the env override: VFPGA_THREADS=64 with 4 cells must
  // still yield 4 workers — spawning threads with no work to claim only
  // adds creation cost and scheduler noise.
  if (threads > cells) {
    threads = static_cast<unsigned>(cells);
  }
  return std::max(threads, 1u);
}

void run_parallel(std::vector<std::function<void()>> tasks,
                  unsigned threads) {
  if (threads <= 1 || tasks.size() <= 1) {
    for (auto& task : tasks) {
      task();
    }
    return;
  }
  // A worker beyond the task count would grab no work; don't pay its
  // creation cost (callers may pass a raw VFPGA_THREADS value).
  const unsigned workers_needed =
      std::min<unsigned>(threads, static_cast<unsigned>(tasks.size()));
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> workers;
  workers.reserve(workers_needed);
  for (unsigned w = 0; w < workers_needed; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t index = next.fetch_add(1);
        if (index >= tasks.size()) {
          return;
        }
        tasks[index]();
      }
    });
  }
}

SweepResult run_sweep(std::string driver_name, const ExperimentConfig& config,
                      u64 seed_base, CellRunner run) {
  SweepResult sweep;
  sweep.driver_name = std::move(driver_name);
  sweep.cells.resize(config.payloads.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(config.payloads.size());
  for (std::size_t i = 0; i < config.payloads.size(); ++i) {
    tasks.emplace_back([&, i] {
      sweep.cells[i] =
          run(config, config.payloads[i], sim::derive_seed(seed_base, i));
    });
  }
  const unsigned threads = worker_threads(tasks.size());
  run_parallel(std::move(tasks), threads);
  return sweep;
}

}  // namespace vfpga::harness
