// Parallel sweep driver.
//
// Each (driver, payload) cell is an independent simulation with its own
// testbed and seeded RNG stream, so cells run on a thread pool with
// bit-identical results regardless of scheduling — "same seed, same
// tables" holds at any thread count (set VFPGA_THREADS=1 to verify).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "vfpga/harness/experiment.hpp"

namespace vfpga::harness {

/// An unsigned integer with an optional C base prefix and nothing else:
/// no sign, no whitespace, no trailing characters, no overflow.
[[nodiscard]] std::optional<u64> parse_u64(const char* text);

/// A thread count: a positive integer up to 65536. Nullopt for
/// everything else — zero, negatives, "4x", "", overflow — so a typo
/// cannot silently become 0 ("pick for me"). The one rule for both
/// `--threads` and VFPGA_THREADS.
[[nodiscard]] std::optional<unsigned> parse_thread_count(const char* text);

/// Number of worker threads to use (VFPGA_THREADS override, default:
/// hardware_concurrency capped at the cell count).
unsigned worker_threads(std::size_t cells);

/// Same, with a CLI-requested count in the middle of the precedence
/// chain: VFPGA_THREADS env > `cli_request` (--threads N, 0 = unset) >
/// hardware_concurrency — then clamped to the cell count. The env wins
/// so a CI matrix can pin the oracle thread count without caring what
/// flags each bench invocation carries. A set VFPGA_THREADS that
/// parse_thread_count rejects prints `error: VFPGA_THREADS=<v> ...` and
/// aborts.
unsigned worker_threads(std::size_t cells, unsigned cli_request);

/// Run `tasks` on up to `threads` workers; task order in the result is
/// preserved.
void run_parallel(std::vector<std::function<void()>> tasks,
                  unsigned threads);

/// Measures one (driver, payload) cell: run_virtio_cell or run_xdma_cell.
using CellRunner = CellResult (*)(const ExperimentConfig& config, u64 payload,
                                  u64 seed);

/// One payload sweep on the pool: cell i is `run(config, payloads[i],
/// sim::derive_seed(seed_base, i))`, element i of the SplitMix64 stream
/// seeded with `seed_base`.
SweepResult run_sweep(std::string driver_name, const ExperimentConfig& config,
                      u64 seed_base, CellRunner run);

}  // namespace vfpga::harness
