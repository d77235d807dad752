#include "vfpga/harness/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "vfpga/sim/rng.hpp"

namespace vfpga::harness {

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
    const long v = std::atol(env);
    if (v > 0) {
      threads = static_cast<unsigned>(v);
    }
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

std::pair<SweepResult, SweepResult> run_both_sweeps_parallel(
    const ExperimentConfig& config) {
  SweepResult virtio;
  virtio.driver_name = "VirtIO";
  virtio.cells.resize(config.payloads.size());
  SweepResult xdma;
  xdma.driver_name = "XDMA";
  xdma.cells.resize(config.payloads.size());

  // Cell i's seed is element i of the sequential runners' SplitMix64
  // stream, so parallel and sequential execution produce identical
  // numbers.
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < config.payloads.size(); ++i) {
    tasks.emplace_back([&, i] {
      virtio.cells[i] = run_virtio_cell(config, config.payloads[i],
                                        sim::derive_seed(config.seed, i));
    });
    tasks.emplace_back([&, i] {
      xdma.cells[i] = run_xdma_cell(config, config.payloads[i],
                                    sim::derive_seed(config.seed ^ 0xdadau, i));
    });
  }
  run_parallel(std::move(tasks), worker_threads(tasks.size()));
  return {std::move(virtio), std::move(xdma)};
}

}  // namespace vfpga::harness
