// Unit + property tests: simulated time, RNG, distributions, scheduler,
// noise model.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "support/noise_oracle.hpp"
#include "vfpga/hostos/cost_model.hpp"
#include "vfpga/sim/distributions.hpp"
#include "vfpga/sim/fpmath.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/sim/scheduler.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::sim {
namespace {

TEST(SimTime, DurationArithmetic) {
  const Duration a = microseconds(3);
  const Duration b = nanoseconds(500);
  EXPECT_EQ((a + b).picos(), 3'500'000);
  EXPECT_EQ((a - b).picos(), 2'500'000);
  EXPECT_EQ((a * 2).picos(), 6'000'000);
  EXPECT_DOUBLE_EQ(a.micros(), 3.0);
  EXPECT_DOUBLE_EQ(b.nanos(), 500.0);
}

TEST(SimTime, PointMinusPointIsDuration) {
  const SimTime t0{1000};
  const SimTime t1 = t0 + nanoseconds(5);
  EXPECT_EQ((t1 - t0).picos(), 5000);
  EXPECT_LT(t0, t1);
}

TEST(SimTime, FromNanosRounds) {
  EXPECT_EQ(from_nanos(1.4).picos(), 1400);
  EXPECT_EQ(from_nanos(0.0004).picos(), 0);
  EXPECT_EQ(from_nanos(0.0006).picos(), 1);
}

TEST(SimTime, RoundToClockTicks) {
  const Duration tick = nanoseconds(8);
  EXPECT_EQ(round_up_to(nanoseconds(1), tick), nanoseconds(8));
  EXPECT_EQ(round_up_to(nanoseconds(8), tick), nanoseconds(8));
  EXPECT_EQ(round_up_to(nanoseconds(9), tick), nanoseconds(16));
  EXPECT_EQ(round_down_to(nanoseconds(15), tick), nanoseconds(8));
}

TEST(Rng, DeterministicStream) {
  Xoshiro256 a{42};
  Xoshiro256 b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a{1};
  Xoshiro256 b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng{7};
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, UniformBelowIsUnbiasedish) {
  Xoshiro256 rng{11};
  std::array<int, 7> histogram{};
  for (int i = 0; i < 70'000; ++i) {
    ++histogram[rng.uniform_below(7)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, 10'000, 600);
  }
}

TEST(Rng, DeriveSeedIsTheSplitMix64Stream) {
  for (const u64 base : {u64{0}, u64{2024}, ~u64{0}}) {
    SplitMix64 stream{base};
    for (u64 i = 0; i < 64; ++i) {
      EXPECT_EQ(derive_seed(base, i), stream.next())
          << "base " << base << " index " << i;
    }
  }
  static_assert(derive_seed(7, 3) == derive_seed(7 + 0x9e3779b97f4a7c15ull, 2));
}

// ---- distributions (statistical property tests) ------------------------------

TEST(Distributions, LognormalMedianIsMedian) {
  Xoshiro256 rng{5};
  const JitteredSegment segment{nanoseconds(100), 0.5, {}, {}};
  int below = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    if (segment.sample(rng) < nanoseconds(100)) {
      ++below;
    }
  }
  EXPECT_NEAR(static_cast<double>(below) / kN, 0.5, 0.02);
}

TEST(Distributions, ExponentialMean) {
  Xoshiro256 rng{6};
  double sum = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    sum += sample_exponential(rng, 250.0);
  }
  EXPECT_NEAR(sum / kN, 250.0, 10.0);
}

TEST(Distributions, ParetoIsNonNegativeAndHeavy) {
  Xoshiro256 rng{8};
  double max_seen = 0;
  for (int i = 0; i < 50'000; ++i) {
    const double v = sample_pareto(rng, 10.0, 2.0);
    ASSERT_GE(v, 0.0);
    max_seen = std::max(max_seen, v);
  }
  EXPECT_GT(max_seen, 100.0);  // heavy tail reaches >10x scale
}

TEST(Distributions, PoissonMeanMatches) {
  Xoshiro256 rng{9};
  for (double mean : {0.1, 1.0, 5.0, 40.0}) {
    u64 sum = 0;
    constexpr int kN = 20'000;
    for (int i = 0; i < kN; ++i) {
      sum += sample_poisson(rng, mean);
    }
    EXPECT_NEAR(static_cast<double>(sum) / kN, mean, mean * 0.1 + 0.05)
        << "mean " << mean;
  }
}

// Knuth's loop as sample_poisson ran it before the zero-count cutoff:
// the reference the shortcut must match draw for draw.
u64 reference_knuth_poisson(Xoshiro256& rng, double mean) {
  const double limit = std::exp(-mean);
  double product = rng.uniform01();
  u64 count = 0;
  while (product > limit) {
    product *= rng.uniform01();
    ++count;
  }
  return count;
}

TEST(Distributions, PoissonZeroCutoffMatchesKnuthDrawForDraw) {
  for (double mean :
       {1e-9, 4e-6, 1.2e-3, 0.05, 0.5, 0.999, 1.0, 3.0, 29.9}) {
    Xoshiro256 fast{77};
    Xoshiro256 reference{77};
    for (int i = 0; i < 1'000'000; ++i) {
      const u64 got = sample_poisson(fast, mean);
      const u64 want = reference_knuth_poisson(reference, mean);
      if (got != want || fast.state() != reference.state()) {
        FAIL() << "mean " << mean << " draw " << i << ": " << got
               << " vs " << want;
      }
    }
  }
}

TEST(Distributions, PoissonZeroCutoffStaysBelowExp) {
  // The shortcut is exact when every draw below the cutoff is <= exp(-m)
  // as computed; the cutoff must also survive an exp one ulp low.
  for (double m = 1e-12; m <= 1.0; m *= 1.01) {
    const double e = fpmath::exp(-m);
    ASSERT_GE(e, 1.0 - m - 0x1p-48) << "m " << m;
    ASSERT_LE(poisson_zero_cutoff(m), std::nextafter(e, 0.0)) << "m " << m;
  }
}

TEST(Distributions, JitteredSegmentRespectsBounds) {
  Xoshiro256 rng{10};
  JitteredSegment segment{nanoseconds(1000), 0.8, nanoseconds(800),
                          nanoseconds(1500)};
  for (int i = 0; i < 5'000; ++i) {
    const Duration d = segment.sample(rng);
    ASSERT_GE(d, nanoseconds(800));
    ASSERT_LE(d, nanoseconds(1500));
  }
}

TEST(Distributions, ZeroSigmaIsDeterministic) {
  Xoshiro256 rng{11};
  JitteredSegment segment{nanoseconds(750), 0.0, {}, {}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(segment.sample(rng), nanoseconds(750));
  }
}

TEST(Distributions, MixtureSelectsAllComponents) {
  Xoshiro256 rng{12};
  MixtureSegment mixture{{
      {0.5, {nanoseconds(100), 0.0, {}, {}}},
      {0.5, {nanoseconds(900), 0.0, {}, {}}},
  }};
  int fast = 0;
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) {
    if (mixture.sample(rng) == nanoseconds(100)) {
      ++fast;
    }
  }
  EXPECT_NEAR(static_cast<double>(fast) / kN, 0.5, 0.03);
}

// The Fedora wake-up mixture and one whose weights sum to 0.9: summing
// the weights once at construction must select the same component as
// re-summing them on every draw, draw for draw.
TEST(Distributions, MixtureMatchesOracleDrawForDraw) {
  const std::vector<MixtureSegment> mixtures = {
      hostos::CostModelConfig::fedora_defaults().wakeup,
      MixtureSegment{{
          {0.3, {nanoseconds(100), 0.0, {}, {}}},
          {0.3, {nanoseconds(900), 0.2, {}, {}}},
          {0.3, {nanoseconds(5000), 0.4, {}, {}}},
      }},
  };
  for (std::size_t m = 0; m < mixtures.size(); ++m) {
    Xoshiro256 rng{2000 + m};
    Xoshiro256 reference{2000 + m};
    for (int i = 0; i < 1'000'000; ++i) {
      const Duration got = mixtures[m].sample(rng);
      const Duration want = noise_oracle::sample(mixtures[m], reference);
      if (got != want || rng.state() != reference.state()) {
        FAIL() << "mixture " << m << " draw " << i << ": " << got.picos()
               << " ps vs " << want.picos() << " ps";
      }
    }
  }
}

// ---- the lognormal segment against the libm chain ---------------------------

// Every segment the cost model and testbeds sample, plus sigma = 0 and
// clamping cases: the fpmath chain in integer picoseconds must return the
// libm chain's Duration and leave the generator in the same state, draw
// for draw.
TEST(Distributions, JitteredSegmentMatchesOracleDrawForDraw) {
  const auto c = hostos::CostModelConfig::fedora_defaults();
  std::vector<JitteredSegment> segments = {
      c.syscall_entry, c.syscall_exit, c.irq_entry, c.udp_tx_stack,
      c.udp_rx_stack, c.virtio_xmit, c.virtio_rx_napi, c.virtio_rx_refill,
      c.socket_recv, c.busy_poll_iteration, c.irq_disarm, c.irq_rearm,
      c.dma_map_segment, c.blk_submit, c.blk_complete,
      c.reactor_poll_iteration, c.xdma_submit, c.xdma_isr_body,
      c.xdma_teardown, c.app_iteration,
      // The testbeds' DMA-read jitter.
      {nanoseconds(55), 0.6, {}, {}},
      // sigma = 0: no draw, clamped or not.
      {nanoseconds(750), 0.0, {}, {}},
      {nanoseconds(750), 0.0, nanoseconds(800), {}},
      // Clamped on both sides about a third of the time each.
      {nanoseconds(1000), 0.8, nanoseconds(700), nanoseconds(1400)},
  };
  for (const auto& component : c.wakeup.components()) {
    segments.push_back(component.segment);  // incl. the 40 us ceiling
  }
  for (std::size_t s = 0; s < segments.size(); ++s) {
    Xoshiro256 rng{1000 + s};
    Xoshiro256 reference{1000 + s};
    for (int i = 0; i < 1'000'000; ++i) {
      const Duration got = segments[s].sample(rng);
      const Duration want = noise_oracle::sample(segments[s], reference);
      if (got != want || rng.state() != reference.state()) {
        FAIL() << "segment " << s << " draw " << i << ": " << got.picos()
               << " ps vs " << want.picos() << " ps";
      }
    }
  }
}

// A median near the top of the picosecond range: about one draw in 10^5
// lands past 2^63 ps and must saturate rather than wrap negative. Two of
// this seed's draws do; a cast without the saturation returned INT64_MIN.
TEST(Distributions, JitteredSegmentSaturatesPastThePicosecondRange) {
  Xoshiro256 rng{3};
  const JitteredSegment segment{Duration{1'000'000'000'000'000'000}, 0.5, {},
                                {}};
  int saturated = 0;
  for (int i = 0; i < 100'000; ++i) {
    const Duration d = segment.sample(rng);
    ASSERT_GE(d, Duration{}) << "draw " << i;
    if (d == Duration{std::numeric_limits<i64>::max()}) {
      ++saturated;
    }
  }
  EXPECT_GT(saturated, 0);
}

// ---- scheduler ---------------------------------------------------------------

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  sched.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sched.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  EXPECT_EQ(sched.run_until(SimTime{300}), 3u);
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now().picos(), 300);
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime{50}, [&, i] { order.push_back(i); });
  }
  sched.run_until(SimTime{50});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ActionsCanScheduleMore) {
  Scheduler sched;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10) {
      sched.schedule_after(nanoseconds(10), chain);
    }
  };
  sched.schedule_at(SimTime{0}, chain);
  sched.run_until(SimTime{} + nanoseconds(90));
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sched.now(), SimTime{} + nanoseconds(90));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime{100}, [&] { ++fired; });
  sched.schedule_at(SimTime{200}, [&] { ++fired; });
  EXPECT_EQ(sched.run_until(SimTime{150}), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), SimTime{150});
  sched.run_until(SimTime{200});
  EXPECT_EQ(fired, 2);
}

// ---- SmallFn + event arena ---------------------------------------------------

TEST(SmallFn, InlineCaptureAllocatesNothing) {
  const u64 before = SmallFn::heap_allocations();
  int hits = 0;
  i64 stamp = 41;
  SmallFn fn([&hits, &stamp] { ++hits; ++stamp; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(stamp, 43);
  EXPECT_EQ(SmallFn::heap_allocations(), before);
}

TEST(SmallFn, OversizedCaptureFallsBackToHeapAndIsCounted) {
  const u64 before = SmallFn::heap_allocations();
  std::array<u64, 16> big{};  // 128 bytes: misses the 48-byte buffer
  big[0] = 7;
  u64 out = 0;
  SmallFn fn([big, &out] { out = big[0]; });
  EXPECT_EQ(SmallFn::heap_allocations(), before + 1);
  fn();
  EXPECT_EQ(out, 7u);
}

TEST(SmallFn, MoveTransfersTheTargetAndEmptiesTheSource) {
  int hits = 0;
  SmallFn a([&hits] { ++hits; });
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  SmallFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, DestroysTheCaptureExactlyOnce) {
  auto token = std::make_shared<int>(5);
  EXPECT_EQ(token.use_count(), 1);
  {
    SmallFn fn([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    SmallFn moved = std::move(fn);
    EXPECT_EQ(token.use_count(), 2);  // relocated, not duplicated
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, SteadyStateReschedulingAllocatesNothing) {
  Scheduler sched;
  u64 fired = 0;
  // A self-rescheduling chain whose capture is two pointers + a count —
  // the scheduler hot-path shape. The first events warm the arena chunk;
  // after that, neither node pool nor callable may touch the heap.
  struct Chain {
    Scheduler* sched;
    u64* fired;
    u64 limit;
    void operator()() const {
      if (++*fired < limit) {
        sched->schedule_after(nanoseconds(5), *this);
      }
    }
  };
  sched.schedule_at(SimTime{}, Chain{&sched, &fired, 10'000});
  sched.run_until(SimTime{} + nanoseconds(500));  // warm-up
  ASSERT_GT(fired, 0u);

  const u64 nodes_before = sched.arena().node_allocations();
  const u64 heap_before = SmallFn::heap_allocations();
  sched.run_until(SimTime{} + nanoseconds(5 * 9'999));  // the last link
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(fired, 10'000u);
  EXPECT_EQ(sched.arena().node_allocations(), nodes_before);
  EXPECT_EQ(SmallFn::heap_allocations(), heap_before);
  EXPECT_EQ(sched.arena().live(), 0u);
}

TEST(Scheduler, ExecutedCountsLifetimeEvents) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime{i + 1}, [] {});
  }
  EXPECT_EQ(sched.pending(), 5u);
  EXPECT_EQ(sched.next_due(), SimTime{1});
  sched.run_until(SimTime{3});
  EXPECT_EQ(sched.executed(), 3u);
  sched.run_until(SimTime{5});
  EXPECT_EQ(sched.executed(), 5u);
  EXPECT_TRUE(sched.idle());
}

// ---- noise model ----------------------------------------------------------------

TEST(Noise, DisabledProducesNothing) {
  NoiseConfig config;
  config.enabled = false;
  NoiseModel noise{config};
  Xoshiro256 rng{1};
  const auto before = rng.state();
  EXPECT_EQ(noise.interference(rng, microseconds(1000)), Duration{});
  EXPECT_EQ(noise.rare_stall(rng, microseconds(1000)), Duration{});
  EXPECT_EQ(noise.software_noise(rng, microseconds(1000)), Duration{});
  EXPECT_EQ(noise.software_noise(rng, picoseconds(1)), Duration{});
  EXPECT_EQ(rng.state(), before);
}

TEST(Noise, InterferenceScalesWithExposure) {
  NoiseModel noise{NoiseConfig{}};
  Xoshiro256 rng{2};
  double short_total = 0;
  double long_total = 0;
  for (int i = 0; i < 3'000; ++i) {
    short_total += noise.interference(rng, microseconds(5)).micros();
    long_total += noise.interference(rng, microseconds(50)).micros();
  }
  EXPECT_GT(long_total, short_total * 5);
}

TEST(Noise, RareStallsAreRareButLarge) {
  NoiseModel noise{NoiseConfig{}};
  Xoshiro256 rng{3};
  int stalls = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const Duration d = noise.rare_stall(rng, microseconds(30));
    if (d > Duration{}) {
      ++stalls;
      EXPECT_GT(d.micros(), 20.0);   // offset floor
      EXPECT_LE(d.micros(), 450.0);  // capped (allowing multi-event)
    }
  }
  // ~0.12% per 30us window.
  EXPECT_GT(stalls, 30);
  EXPECT_LT(stalls, 400);
}

// exec_fixed draws the rare stall before the interference, the order
// the goldens were recorded in. Rates high enough that both draws often
// count events, so the other order gives a different timeline.
TEST(Noise, ExecFixedDrawsRareStallFirst) {
  NoiseConfig config;
  config.common_rate_per_us = 0.3;
  config.rare_rate_per_us = 0.3;
  const NoiseModel noise{config};
  const noise_oracle::NoiseModel oracle{config};
  const auto costs = hostos::CostModelConfig::fedora_defaults();
  Xoshiro256 rng{21};
  Xoshiro256 reference{21};
  hostos::HostThread thread{rng, costs, noise};
  int order_mattered = 0;
  for (int i = 0; i < 2'000; ++i) {
    const Duration d = nanoseconds(500 + 37 * i);
    Xoshiro256 swapped = rng;
    const SimTime before = thread.now();
    thread.exec_fixed(d);

    const Duration stall = oracle.rare_stall(reference, d);
    const Duration want = d + oracle.interference(reference, d) + stall;
    ASSERT_EQ(thread.now() - before, want) << "step " << i;
    ASSERT_EQ(rng.state(), reference.state()) << "step " << i;

    const Duration interference = oracle.interference(swapped, d);
    if (d + interference + oracle.rare_stall(swapped, d) != want) {
      ++order_mattered;
    }
  }
  EXPECT_GT(order_mattered, 100);
}

// ---- the integer zero test ------------------------------------------------
//
// NoiseModel decides a draw's zero-event case with PoissonZeroTest; the
// oracle forms the double mean and calls sample_poisson on every check.
// Each test compares the Duration and the generator state at every step.

// HostThread's three noise paths against the oracle: exec_fixed (rare
// stall, then interference over the segment), block_until and
// spin_until (a rare stall over the wait). Segments run from 1 ps to
// about 134 µs, log-spread, so they reach past both zero tests' bounds
// at a rate of 0.3 and past the common one at the default rates.
void expect_host_steps_match_oracle(const NoiseConfig& config, u64 seed,
                                    int steps) {
  const NoiseModel noise{config};
  const noise_oracle::NoiseModel oracle{config};
  const auto costs = hostos::CostModelConfig::fedora_defaults();
  Xoshiro256 rng{seed};
  Xoshiro256 reference{seed};
  Xoshiro256 pick{seed + 1};
  hostos::HostThread thread{rng, costs, noise};
  SimTime want;
  for (int i = 0; i < steps; ++i) {
    const u64 r = pick();
    const int width = static_cast<int>(r & 31) % 28;
    const Duration d{
        1 + static_cast<i64>((r >> 8) & ((u64{1} << width) - 1))};
    switch (r >> 5 & 3) {
      case 0:
      case 1: {
        thread.exec_fixed(d);
        const Duration stall = oracle.rare_stall(reference, d);
        want += d + oracle.interference(reference, d) + stall;
        break;
      }
      case 2: {
        // One wait in eight targets a time already passed.
        const bool past = (r >> 40 & 7) == 0;
        const SimTime t = past ? SimTime{want.picos() - d.picos()} : want + d;
        thread.block_until(t);
        const Duration slept = t > want ? t - want : Duration{};
        want = std::max(want, t) + oracle.rare_stall(reference, slept);
        break;
      }
      default: {
        const bool past = (r >> 40 & 7) == 0;
        const SimTime t = past ? SimTime{want.picos() - d.picos()} : want + d;
        thread.spin_until(t);
        if (t > want) {
          want = t + oracle.rare_stall(reference, t - want);
        }
        break;
      }
    }
    ASSERT_EQ(thread.now(), want) << "step " << i << ", " << d.picos()
                                  << " ps";
    ASSERT_EQ(rng.state(), reference.state()) << "step " << i;
  }
}

TEST(NoiseZeroTest, HostStepsMatchOracleAtDefaultRates) {
  expect_host_steps_match_oracle(NoiseConfig{}, 39, 1'000'000);
}

TEST(NoiseZeroTest, HostStepsMatchOracleWhereEventsAreCommon) {
  NoiseConfig config;
  config.common_rate_per_us = 0.3;
  config.rare_rate_per_us = 0.3;
  expect_host_steps_match_oracle(config, 40, 1'000'000);
}

// software_noise, rare_stall and interference over each segment, `draws`
// times, against the oracle.
void expect_model_matches_oracle(const NoiseConfig& config,
                                 const std::vector<i64>& segments_ps,
                                 int draws) {
  const NoiseModel noise{config};
  const noise_oracle::NoiseModel oracle{config};
  Xoshiro256 rng{41};
  Xoshiro256 reference{41};
  for (const i64 ps : segments_ps) {
    const Duration d{ps};
    for (int i = 0; i < draws; ++i) {
      const Duration stall = oracle.rare_stall(reference, d);
      ASSERT_EQ(noise.software_noise(rng, d),
                oracle.interference(reference, d) + stall)
          << ps << " ps, draw " << i;
      ASSERT_EQ(noise.rare_stall(rng, d), oracle.rare_stall(reference, d))
          << ps << " ps, draw " << i;
      ASSERT_EQ(noise.interference(rng, d), oracle.interference(reference, d))
          << ps << " ps, draw " << i;
      ASSERT_EQ(rng.state(), reference.state()) << ps << " ps, draw " << i;
    }
  }
}

TEST(NoiseZeroTest, ZeroRateDrawsNothing) {
  EXPECT_EQ(PoissonZeroTest{0.0}.max_picos(), 0);
  NoiseConfig config;
  config.common_rate_per_us = 0.0;
  config.rare_rate_per_us = 0.0;
  const NoiseModel noise{config};
  Xoshiro256 rng{42};
  const auto before = rng.state();
  for (const i64 ps : {i64{1}, i64{1'000}, i64{1'000'000}, i64{1} << 50}) {
    EXPECT_EQ(noise.software_noise(rng, Duration{ps}), Duration{});
    EXPECT_EQ(noise.rare_stall(rng, Duration{ps}), Duration{});
    EXPECT_EQ(noise.interference(rng, Duration{ps}), Duration{});
  }
  EXPECT_EQ(rng.state(), before);

  // One rate zero: only the other draws.
  config.rare_rate_per_us = 0.3;
  expect_model_matches_oracle(config, {1, 3'000'000, 200'000'000}, 2'000);
  config.rare_rate_per_us = 0.0;
  config.common_rate_per_us = 0.3;
  expect_model_matches_oracle(config, {1, 3'000'000, 200'000'000}, 2'000);
}

// The bound is the longest segment the integer test decides: at it the
// integer path runs (mean near 1, so often past the threshold), one past
// it the double path.
TEST(NoiseZeroTest, SegmentsAtAndPastTheBoundMatchOracle) {
  for (const double rate : {0.012, 0.00004, 0.3}) {
    const PoissonZeroTest zero{rate};
    const i64 bound = zero.max_picos();
    ASSERT_GT(bound, 0) << rate;
    EXPECT_LE(static_cast<u64>(bound) * zero.slope(),
              PoissonZeroTest::kZeroBelow);
    EXPECT_GT(static_cast<u64>(bound + 1) * zero.slope(),
              PoissonZeroTest::kZeroBelow);

    NoiseConfig config;
    config.common_rate_per_us = rate;
    config.rare_rate_per_us = rate;
    expect_model_matches_oracle(
        config, {bound - 1, bound, bound + 1, bound + 2}, 20'000);
  }
}

TEST(NoiseZeroTest, MeansOfThirtyAndAboveMatchOracle) {
  NoiseConfig config;
  config.common_rate_per_us = 0.3;
  config.rare_rate_per_us = 0.3;
  // Means 30, 60 and 300.
  expect_model_matches_oracle(config,
                              {100'000'000, 200'000'000, 1'000'000'000}, 500);
}

// Rates at and past where the test switches off: a mean that rounds to
// 0 draws nothing, a subnormal one draws, and from 2^19 on every
// segment takes the double path.
TEST(NoiseZeroTest, ExtremeRatesMatchOracle) {
  for (const double rate :
       {4.9e-324, 0x1p-1000, 0x1p-900, 1e-300, 0x1p-61, 0x1p-60, 1e-9, 2.0,
        5e5, 0x1p19, 1e6}) {
    NoiseConfig config;
    config.common_rate_per_us = rate;
    config.rare_rate_per_us = rate;
    const PoissonZeroTest zero{rate};
    EXPECT_EQ(zero.max_picos() == 0, zero.slope() == 0) << rate;
    EXPECT_EQ(zero.max_picos() > 0, rate >= 0x1p-900 && rate < 0x1p19)
        << rate;
    expect_model_matches_oracle(config, {1, 2, 1'000}, 200);
  }
}

// Rates the zero tests below are run at: the model's, rates where
// rate·2^53/10^6 is an exact integer j (the slope must still round up
// past it), and log-spread rates from 10^-9 to 1.
std::vector<double> zero_test_rates() {
  std::vector<double> rates = {0.012, 0.00004, 0.3, 1.0, 1e-9};
  Xoshiro256 pick{43};
  for (int i = 0; i < 200; ++i) {
    const u64 j = 1 + pick.uniform_below(9'000'000'000);
    rates.push_back(static_cast<double>(j * 1'000'000) * 0x1p-53);
  }
  for (int i = 0; i < 1'000; ++i) {
    rates.push_back(std::pow(10.0, -9.0 * pick.uniform01()));
  }
  return rates;
}

// For every decided segment, the largest draw the integer test calls
// zero, threshold − 1, is below the double cutoff sample_poisson uses.
TEST(NoiseZeroTest, LastZeroDrawPassesTheDoubleCutoff) {
  Xoshiro256 pick{44};
  for (const double rate : zero_test_rates()) {
    const PoissonZeroTest zero{rate};
    const i64 bound = zero.max_picos();
    ASSERT_GT(bound, 0) << rate;
    std::vector<i64> segments = {1, 2, 3, bound - 1, bound};
    for (int i = 0; i < 500; ++i) {
      // Log-spread over [1, bound].
      const double f = std::pow(static_cast<double>(bound), pick.uniform01());
      segments.push_back(std::clamp(static_cast<i64>(f), i64{1}, bound));
    }
    for (const i64 ps : segments) {
      const u64 threshold = zero.threshold(ps);
      if (threshold == 0) {
        continue;
      }
      const double last = static_cast<double>(threshold - 1) * 0x1p-53;
      const double mean = rate * Duration{ps}.micros();
      ASSERT_LT(last, poisson_zero_cutoff(mean))
          << "rate " << rate << ", " << ps << " ps";
    }
  }
}

// k·10^6·2^40 ≥ rate·2^53·(2^40 + 1) > (k − 1)·10^6·2^40, compared as
// 128-bit integers with rate·2^53 = mant·2^exp.
TEST(NoiseZeroTest, SlopeIsTheLeastIntegerAtOrAboveItsBound) {
  using u128 = unsigned __int128;
  for (const double rate : zero_test_rates()) {
    const u64 k = PoissonZeroTest{rate}.slope();
    int exp = 0;
    const auto mant =
        static_cast<u64>(std::ldexp(std::frexp(rate, &exp), 53));
    u128 bound = u128{mant} * ((u64{1} << 40) + 1);
    u128 unit = u128{1'000'000} << 40;
    if (exp >= 0) {
      bound <<= exp;
    } else {
      unit <<= -exp;
    }
    ASSERT_GE(u128{k} * unit, bound) << "rate " << rate;
    ASSERT_LT(u128{k - 1} * unit, bound) << "rate " << rate;
  }
}

}  // namespace
}  // namespace vfpga::sim
