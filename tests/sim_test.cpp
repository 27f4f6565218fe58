// Unit tests for the discrete-event simulation kernel, RNG and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

namespace dynaplat::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), 0);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(30, [&] { order.push_back(3); });
  simulator.schedule_at(10, [&] { order.push_back(1); });
  simulator.schedule_at(20, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30);
}

TEST(Simulator, SameTimestampFiresInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(10, [&] { order.push_back(1); });
  simulator.schedule_at(10, [&] { order.push_back(2); });
  simulator.schedule_at(10, [&] { order.push_back(3); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator simulator;
  Time fired_at = -1;
  simulator.schedule_at(100, [&] {
    simulator.schedule_in(50, [&] { fired_at = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  const EventId id = simulator.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(simulator.cancel(id));  // second cancel is a no-op
}

TEST(Simulator, RecurrenceFiresPeriodically) {
  Simulator simulator;
  int count = 0;
  const EventId id = simulator.schedule_every(5, 10, [&] { ++count; });
  simulator.run_until(45);
  EXPECT_EQ(count, 5);  // t = 5, 15, 25, 35, 45
  simulator.cancel(id);
  simulator.run_until(100);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, RecurrenceCanCancelItself) {
  Simulator simulator;
  int count = 0;
  EventId id;
  id = simulator.schedule_every(1, 1, [&] {
    if (++count == 3) simulator.cancel(id);
  });
  simulator.run_until(100);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockToBound) {
  Simulator simulator;
  simulator.schedule_at(10, [] {});
  simulator.run_until(500);
  EXPECT_EQ(simulator.now(), 500);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator simulator;
  bool late_fired = false;
  simulator.schedule_at(1000, [&] { late_fired = true; });
  simulator.run_until(500);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run();
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, StopHaltsRun) {
  Simulator simulator;
  int count = 0;
  simulator.schedule_every(1, 1, [&] {
    if (++count == 10) simulator.stop();
  });
  simulator.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, EventsExecutedCountsFiredOnly) {
  Simulator simulator;
  simulator.schedule_at(1, [] {});
  const EventId cancelled = simulator.schedule_at(2, [] {});
  simulator.cancel(cancelled);
  simulator.run();
  EXPECT_EQ(simulator.events_executed(), 1u);
}

// --- Event-order determinism regression ------------------------------------
//
// Golden FNV-1a fingerprint over the (time, firing-index) total order of a
// mixed scenario: two periodics, one-shots, cancel-inside-own-callback (both
// the one-shot and the recurrence flavour), cancellation of a pending event
// from another callback, same-timestamp FIFO ties, and the run_until clock
// edge cases (re-run at the same bound, bound with no events, event exactly
// at the bound, stop() inside run_until). The constant below was captured
// from the pre-slab tombstone kernel; any kernel change that alters the
// firing order, the cancel return values, pending() accounting or the
// run_until clock semantics changes the hash and fails this test.
namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t run_fingerprint_scenario() {
  Fnv1a fp;
  Simulator s;
  auto mark = [&](std::uint64_t tag) {
    fp.mix(tag);
    fp.mix(static_cast<std::uint64_t>(s.now()));
    fp.mix(s.events_executed());
    fp.mix(s.pending());
  };
  auto mark_cancel = [&](bool cancelled) { fp.mix(cancelled ? 0xC1 : 0xC0); };

  // Periodic A fires at 5, 12, 19; cancelled externally at t=21.
  const EventId a = s.schedule_every(5, 7, [&] { mark(1); });
  // Periodic B fires at 3, 8, 13, 18 and cancels itself mid-fire on the 4th.
  int b_count = 0;
  EventId b;
  b = s.schedule_every(3, 5, [&] {
    mark(2);
    if (++b_count == 4) mark_cancel(s.cancel(b));
  });
  // One-shot C at t=20 is cancelled before firing by the t=10 event.
  const EventId c = s.schedule_at(20, [&] { mark(3); });
  // One-shot at t=10 schedules a same-timestamp one-shot (FIFO tie) and
  // cancels C.
  s.schedule_at(10, [&] {
    mark(4);
    s.schedule_at(10, [&] { mark(5); });
    mark_cancel(s.cancel(c));
  });
  // One-shot D cancels itself while executing (no-op: already dequeued).
  EventId d;
  d = s.schedule_at(12, [&] {
    mark(6);
    mark_cancel(s.cancel(d));
  });
  // Periodic E fires at 4, 10; cancelled from another callback at t=15.
  const EventId e = s.schedule_every(4, 6, [&] { mark(7); });
  s.schedule_at(15, [&] {
    mark(8);
    mark_cancel(s.cancel(e));
  });
  s.schedule_at(21, [&] {
    mark(12);
    mark_cancel(s.cancel(a));
  });

  s.run_until(10);
  mark(100);
  s.run_until(10);  // re-run at the same bound: no-op, clock stays
  mark(101);
  s.run_until(11);  // bound with no events: clock still advances
  mark(102);
  s.schedule_at(22, [&] { mark(9); });
  s.run_until(22);  // event exactly at the bound fires
  mark(103);
  s.schedule_at(24, [&] {
    mark(10);
    s.stop();
  });
  s.schedule_at(26, [&] { mark(11); });
  s.run_until(40);  // stop() fires at 24; clock advances to the bound anyway
  mark(104);
  s.run();  // drains the leftover t=26 event
  mark(105);
  return fp.h;
}

}  // namespace

TEST(Simulator, GoldenEventOrderFingerprint) {
  // Captured from the pre-change kernel (priority_queue + tombstones); the
  // slab/indexed-heap kernel must preserve it bit for bit.
  constexpr std::uint64_t kGolden = 0xc2dcf1ddca96c36bull;
  EXPECT_EQ(run_fingerprint_scenario(), kGolden);
}

TEST(Simulator, FingerprintScenarioIsReproducible) {
  EXPECT_EQ(run_fingerprint_scenario(), run_fingerprint_scenario());
}

// --- Slab / generation-handle behaviour ------------------------------------

TEST(Simulator, StaleHandleAfterSlotReuseIsSafe) {
  Simulator simulator;
  int fired = 0;
  const EventId first = simulator.schedule_at(10, [&] { ++fired; });
  ASSERT_TRUE(simulator.cancel(first));
  // The freed slot is reused by the next event; the stale handle must not
  // cancel the new occupant.
  const EventId second = simulator.schedule_at(20, [&] { ++fired; });
  EXPECT_FALSE(simulator.cancel(first));
  EXPECT_FALSE(simulator.cancel(first));  // idempotent
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(simulator.cancel(second));  // already fired
}

TEST(Simulator, HandleOfFiredEventGoesStale) {
  Simulator simulator;
  const EventId id = simulator.schedule_at(5, [] {});
  simulator.run();
  EXPECT_FALSE(simulator.cancel(id));
}

TEST(Simulator, CancelHeavyWorkloadDoesNotGrowQueueOrSlab) {
  // The acked-retry-timer pattern: schedule a timeout, cancel it almost
  // immediately, repeat. The tombstone kernel grew its priority_queue
  // linearly here; the indexed heap must stay flat.
  Simulator simulator;
  for (int round = 0; round < 100000; ++round) {
    const EventId timer =
        simulator.schedule_in(1000000, [] { FAIL() << "timer leaked"; });
    ASSERT_TRUE(simulator.cancel(timer));
    EXPECT_EQ(simulator.pending(), 0u);
  }
  // One chunk of slab capacity serves the whole workload via the free list.
  EXPECT_LE(simulator.slab_capacity(), 256u);
}

TEST(Simulator, LargeCaptureCallbackFallsBackToHeapCorrectly) {
  Simulator simulator;
  std::array<std::uint64_t, 16> payload{};  // 128 bytes: exceeds inline SBO
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  std::uint64_t sum = 0;
  static_assert(!InlineFunction::fits_inline<decltype([payload, &sum] {})>());
  simulator.schedule_at(1, [payload, &sum] {
    for (std::uint64_t v : payload) sum += v;
  });
  simulator.run();
  EXPECT_EQ(sum, 136u);
}

TEST(Simulator, RecurrenceRearmsWithoutCopyingCallback) {
  // A move-only capture proves the kernel never copies the callable: the
  // old kernel copied it on every firing and would not compile this.
  Simulator simulator;
  int count = 0;
  auto token = std::make_unique<int>(42);  // move-only capture
  EventId tick;
  tick = simulator.schedule_every(
      10, 10, [held = std::move(token), &count, &simulator, &tick] {
        if (++count == 3) simulator.cancel(tick);
      });
  simulator.run();
  EXPECT_EQ(count, 3);
}

// --- Lanes ------------------------------------------------------------------

TEST(Simulator, LaneTiesWithHeapFireInScheduleOrder) {
  Simulator simulator;
  const LaneId lane = simulator.make_lane();
  std::vector<int> order;
  simulator.schedule_in_lane(lane, 10, [&] { order.push_back(1); });
  simulator.schedule_in(10, [&] { order.push_back(2); });
  simulator.schedule_in_lane(lane, 10, [&] { order.push_back(3); });
  simulator.schedule_at(10, [&] { order.push_back(4); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, LaneEventDueBeforeItsTailFallsBackToHeap) {
  Simulator simulator;
  const LaneId lane = simulator.make_lane();
  std::vector<Time> fired;
  const auto record = [&] { fired.push_back(simulator.now()); };
  simulator.schedule_in_lane(lane, 100, record);
  simulator.schedule_in_lane(lane, 50, record);
  simulator.schedule_in_lane(lane, 10, record);
  EXPECT_EQ(simulator.lane_backlog(lane), 0u);  // both went to the heap
  EXPECT_EQ(simulator.pending(), 3u);
  simulator.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 50, 100}));
}

TEST(Simulator, LaneCancelHeavyWorkloadStaysFlat) {
  // A live head plus schedule-then-cancel pairs at one instant: without
  // compaction every cancelled entry would wait in the lane until the
  // head fires.
  Simulator simulator;
  const LaneId lane = simulator.make_lane();
  int fired = 0;
  simulator.schedule_in_lane(lane, 1000000, [&] { ++fired; });
  std::size_t slab_after_warmup = 0;
  std::size_t backlog_after_warmup = 0;
  for (int round = 0; round < 1000000; ++round) {
    const EventId timer = simulator.schedule_in_lane(
        lane, 1000000, [] { FAIL() << "timer leaked"; });
    ASSERT_TRUE(simulator.cancel(timer));
    if (round == 1000) {
      slab_after_warmup = simulator.slab_capacity();
      backlog_after_warmup = simulator.lane_backlog(lane);
    }
  }
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_EQ(simulator.slab_capacity(), slab_after_warmup);
  EXPECT_LE(simulator.slab_capacity(), 256u);
  EXPECT_LE(simulator.lane_backlog(lane), backlog_after_warmup + 32);
  EXPECT_LE(simulator.lane_backlog(lane), 64u);
  simulator.run();
  EXPECT_EQ(fired, 1);
}

namespace {

// One seeded random script run twice: with lanes, and with every lane call
// replaced by its schedule_in/schedule_every twin. The script mixes heap
// events and events on three lanes (two sharing a delay), same-instant
// ties, out-of-order lane inserts, self-cancelling laned recurrences,
// callbacks scheduling into their own lane, and cancels of heads,
// non-heads and fired events. Every random draw happens in firing order,
// so the two runs see the same script exactly when lanes are invisible.
class LaneScript {
 public:
  LaneScript(std::uint64_t seed, bool laned)
      : rng_(Random::stream(seed, 0x1A4E)), laned_(laned) {
    for (LaneId& lane : lanes_) {
      if (laned_) lane = sim_.make_lane();
    }
  }

  std::vector<std::uint64_t> run() {
    for (int i = 0; i < 40; ++i) act();
    sim_.run_until(400);
    mark(0xA11);
    sim_.run();
    mark(0xA12);
    for (const EventId id : ids_) trace_.push_back(sim_.cancel(id) ? 1 : 0);
    mark(0xA13);
    return trace_;
  }

  std::size_t max_backlog() const { return max_backlog_; }

 private:
  static constexpr int kLanes = 3;
  static constexpr Duration kLaneDelay[kLanes] = {7, 20, 20};

  void mark(std::uint64_t tag) {
    trace_.push_back(tag);
    trace_.push_back(static_cast<std::uint64_t>(sim_.now()));
    trace_.push_back(sim_.pending());
    trace_.push_back(sim_.events_executed());
    if (!laned_) return;
    for (const LaneId lane : lanes_) {
      max_backlog_ = std::max(max_backlog_, sim_.lane_backlog(lane));
    }
  }

  EventId in(int lane, Duration delay, InlineFunction fn) {
    if (!laned_) return sim_.schedule_in(delay, std::move(fn));
    return sim_.schedule_in_lane(lanes_[lane], delay, std::move(fn));
  }

  EventId every(int lane, Time first, Duration period, InlineFunction fn) {
    if (!laned_) return sim_.schedule_every(first, period, std::move(fn));
    return sim_.schedule_every_in_lane(lanes_[lane], first, period,
                                       std::move(fn));
  }

  void fire(std::uint64_t tag, int lane) {
    mark(tag);
    const std::uint64_t follow_ups = rng_.next_below(3);
    for (std::uint64_t i = 0; i < follow_ups; ++i) act();
    if (lane >= 0 && rng_.chance(0.3)) {
      schedule_one_shot(lane, kLaneDelay[lane]);
    }
  }

  void schedule_one_shot(int lane, Duration delay) {
    if (budget_ == 0) return;
    --budget_;
    const std::uint64_t tag = ids_.size();
    ids_.push_back(in(lane, delay, [this, tag, lane] { fire(tag, lane); }));
  }

  void act() {
    if (budget_ == 0) return;
    const std::uint64_t roll = rng_.next_below(100);
    const int lane = static_cast<int>(rng_.next_below(kLanes));
    if (roll < 20) {
      // Heap event, often tying with lane events at the same instant.
      --budget_;
      const std::uint64_t tag = ids_.size();
      ids_.push_back(sim_.schedule_in(
          static_cast<Duration>(rng_.next_below(25)),
          [this, tag] { fire(tag, -1); }));
    } else if (roll < 55) {
      schedule_one_shot(lane, kLaneDelay[lane]);
    } else if (roll < 62) {
      // Shorter than the lane's delay: out of order, falls back when the
      // lane already holds a later event.
      schedule_one_shot(
          lane, static_cast<Duration>(rng_.next_below(kLaneDelay[lane])));
    } else if (roll < 72) {
      // Recurrence that cancels itself after a few firings; mostly on the
      // lane's own period, sometimes on another so re-arms fall back.
      --budget_;
      const Duration period =
          rng_.chance(0.75) ? kLaneDelay[lane]
                            : static_cast<Duration>(1 + rng_.next_below(30));
      const int lifetime = 1 + static_cast<int>(rng_.next_below(6));
      const std::uint64_t tag = ids_.size();
      ids_.emplace_back();
      ids_[tag] = every(lane, sim_.now() + kLaneDelay[lane], period,
                        [this, tag, lane, left = lifetime]() mutable {
                          fire(tag, lane);
                          if (--left == 0) {
                            trace_.push_back(sim_.cancel(ids_[tag]) ? 1 : 0);
                          }
                        });
    } else if (!ids_.empty()) {
      // Cancel anything: a lane head, an entry behind one, a heap event, a
      // recurrence, or an event that already fired.
      const EventId id = ids_[rng_.next_below(ids_.size())];
      trace_.push_back(sim_.cancel(id) ? 1 : 0);
    }
  }

  Simulator sim_;
  Random rng_;
  bool laned_;
  std::array<LaneId, kLanes> lanes_{};
  std::vector<EventId> ids_;
  std::vector<std::uint64_t> trace_;
  std::size_t budget_ = 2000;
  std::size_t max_backlog_ = 0;
};

}  // namespace

TEST(Simulator, LanesMatchAllHeapFireTrace) {
  std::size_t max_backlog = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    LaneScript laned(seed, true);
    LaneScript heap(seed, false);
    const std::vector<std::uint64_t> laned_trace = laned.run();
    const std::vector<std::uint64_t> heap_trace = heap.run();
    ASSERT_EQ(laned_trace, heap_trace) << "seed " << seed;
    ASSERT_GT(laned_trace.size(), 1000u) << "seed " << seed;
    max_backlog = std::max(max_backlog, laned.max_backlog());
  }
  // The lanes really carried events, not just the heap.
  EXPECT_GT(max_backlog, 4u);
}

// --- ScenarioSweep ----------------------------------------------------------

namespace {

// A small event-driven scenario whose fingerprint depends on the RNG stream
// and the kernel's firing order; used to A/B serial vs parallel sweeps.
std::uint64_t sweep_scenario_fingerprint(ScenarioRun& run) {
  Fnv1a fp;
  fp.mix(run.index);
  for (int burst = 0; burst < 20; ++burst) {
    const Time at = run.simulator.now() + 1 +
                    static_cast<Time>(run.rng.next_below(1000));
    const EventId timer = run.simulator.schedule_at(
        at + 500, [&fp] { fp.mix(0xDEAD); });
    run.simulator.schedule_at(at, [&fp, &run, timer] {
      fp.mix(static_cast<std::uint64_t>(run.simulator.now()));
      if (run.rng.chance(0.5)) {
        fp.mix(run.simulator.cancel(timer) ? 1 : 0);
      }
    });
    run.simulator.run_until(at + 1000);
  }
  fp.mix(run.simulator.events_executed());
  return fp.h;
}

}  // namespace

TEST(ScenarioSweep, BitIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> serial;
  std::vector<std::uint64_t> parallel;
  {
    ScenarioSweep sweep({.seed = 99, .threads = 0});
    serial = sweep.run<std::uint64_t>(32, sweep_scenario_fingerprint);
  }
  {
    ScenarioSweep sweep({.seed = 99, .threads = 4});
    EXPECT_EQ(sweep.threads(), 4u);
    parallel = sweep.run<std::uint64_t>(32, sweep_scenario_fingerprint);
  }
  ASSERT_EQ(serial.size(), 32u);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(ScenarioSweep::merge_fingerprints(serial),
            ScenarioSweep::merge_fingerprints(parallel));
}

TEST(ScenarioSweep, StreamsAreIndependentOfSweepWidth) {
  // Scenario i's outcome must not depend on how many scenarios run beside
  // it (RNG streams are derived per index, not drawn from a shared source).
  ScenarioSweep narrow({.seed = 7, .threads = 2});
  ScenarioSweep wide({.seed = 7, .threads = 2});
  const auto few = narrow.run<std::uint64_t>(4, sweep_scenario_fingerprint);
  const auto many = wide.run<std::uint64_t>(16, sweep_scenario_fingerprint);
  for (std::size_t i = 0; i < few.size(); ++i) EXPECT_EQ(few[i], many[i]);
}

TEST(ScenarioSweep, MergeFingerprintsIsOrderSensitive) {
  const std::vector<std::uint64_t> a{1, 2, 3};
  const std::vector<std::uint64_t> b{3, 2, 1};
  EXPECT_NE(ScenarioSweep::merge_fingerprints(a),
            ScenarioSweep::merge_fingerprints(b));
  EXPECT_EQ(ScenarioSweep::merge_fingerprints(a),
            ScenarioSweep::merge_fingerprints(a));
}

TEST(Random, DeterministicForSameSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Random, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Random, UniformIntStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Random, Uniform01StaysInUnitInterval) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Random, ExponentialMeanApproximatelyCorrect) {
  Random rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Random, NormalMomentsApproximatelyCorrect) {
  Random rng(13);
  Stats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Random, ForkProducesIndependentStream) {
  Random a(42);
  Random b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  Stats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.percentile(50), 0.0);
}

TEST(Stats, BasicMoments) {
  Stats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.01);
}

TEST(Stats, PercentilesAreMonotone) {
  Stats stats;
  Random rng(3);
  for (int i = 0; i < 1000; ++i) stats.add(rng.uniform(0, 100));
  double prev = stats.percentile(0);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = stats.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Stats, PercentileOfUniformMatchesValue) {
  Stats stats;
  for (int i = 0; i <= 100; ++i) stats.add(static_cast<double>(i));
  EXPECT_NEAR(stats.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(stats.percentile(90), 90.0, 1.0);
}

TEST(Histogram, CountsFallInCorrectBuckets) {
  Histogram h = Histogram::linear(0, 100, 10);
  h.add(5);    // bucket 1
  h.add(15);   // bucket 2
  h.add(-1);   // underflow
  h.add(150);  // overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.count_at(1), 1u);
  EXPECT_EQ(h.count_at(2), 1u);
  EXPECT_EQ(h.count_at(h.size() - 1), 1u);
}

TEST(Trace, RecordsAndCounts) {
  Trace trace;
  trace.record(10, TraceCategory::kTask, "ecu0/brake", "deadline_miss", 3);
  trace.record(20, TraceCategory::kTask, "ecu0/brake", "complete");
  trace.record(30, TraceCategory::kFault, "ecu0", "ecu_failed");
  EXPECT_EQ(trace.count(TraceCategory::kTask, "deadline_miss"), 1u);
  EXPECT_EQ(trace.count(TraceCategory::kTask, "complete"), 1u);
  const auto faults = trace.filter([](const TraceRecord& r) {
    return r.category == TraceCategory::kFault;
  });
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].source, "ecu0");
}

TEST(Trace, DisabledTraceRecordsNothing) {
  Trace trace;
  trace.set_enabled(false);
  trace.record(10, TraceCategory::kTask, "x", "y");
  EXPECT_TRUE(trace.records().empty());
}

}  // namespace
}  // namespace dynaplat::sim
