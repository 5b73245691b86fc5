// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace swarmlab::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

// Generation-check regression: ids are slot handles, and a slot freed by
// cancel or fire is reused by later schedules. A stale id held across
// that reuse must never cancel the slot's next tenant.
TEST(EventQueue, StaleIdCannotCancelSlotsNextTenant) {
  EventQueue q;
  const EventId first = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.cancel(first));
  // Drain any pool so the next schedule reuses first's slot.
  bool fired = false;
  const EventId second = q.schedule(2.0, [&] { fired = true; });
  EXPECT_EQ(second & 0xffffffffu, first & 0xffffffffu);  // same slot...
  EXPECT_NE(second, first);                              // ...new generation
  EXPECT_FALSE(q.cancel(first));  // stale id bounces off
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleIdSurvivesManyReuses) {
  EventQueue q;
  const EventId original = q.schedule(1.0, [] {});
  q.pop().fn();  // fire it; slot retires
  for (int round = 0; round < 100; ++round) {
    const EventId tenant = q.schedule(1.0, [] {});
    EXPECT_FALSE(q.cancel(original)) << "round " << round;
    ASSERT_TRUE(q.cancel(tenant));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CountersTrackScheduledCancelledAndPeak) {
  EventQueue q;
  EXPECT_EQ(q.scheduled_count(), 0u);
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  EXPECT_EQ(q.scheduled_count(), 3u);
  EXPECT_EQ(q.peak_pending(), 3u);
  q.cancel(a);
  EXPECT_EQ(q.cancelled_count(), 1u);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.peak_pending(), 3u);  // high-water mark survives drain
}

// Heavy churn: every doomed event sits in the heap (before the wheel
// window, which anchors at t=10), so each cancel is a position-tracked
// heap erase. Fire order of the wheel survivors must not move.
TEST(EventQueue, FireOrderSurvivesMassCancellation) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 500; ++i) {
    // Interleave survivors with events cancelled immediately after.
    q.schedule(10.0, [&order, i] { order.push_back(i); });
    for (int j = 0; j < 5; ++j) {
      doomed.push_back(q.schedule(5.0, [] { FAIL(); }));
    }
    for (const EventId id : doomed) q.cancel(id);
    doomed.clear();
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

// Reschedule: the moved event takes a fresh tie-break seq, so it fires
// exactly where cancel + schedule would have put it. The wheel anchors
// at the first scheduled time and spans 4 s; later times go to the heap.
void drain(EventQueue& q) {
  while (!q.empty()) q.pop().fn();
}

TEST(EventQueue, RescheduleHeapToWheelTakesFreshSeq) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.5, [&] { order.push_back(1); });                   // wheel
  const EventId a = q.schedule(100.0, [&] { order.push_back(2); });  // heap
  q.schedule(0.5, [&] { order.push_back(3); });
  EXPECT_TRUE(q.reschedule(a, 0.5));  // newest of the 0.5 tie
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, RescheduleWheelToHeap) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.5, [&] { order.push_back(1); });
  const EventId a = q.schedule(1.0, [&] { order.push_back(2); });
  q.schedule(50.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.reschedule(a, 50.0));
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, RescheduleWithinSortedCursorBucket) {
  EventQueue q;
  std::vector<int> order;
  // All three share the ~1 ms cursor bucket.
  const EventId a = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(1.0 + 2e-4, [&] { order.push_back(2); });
  const EventId c = q.schedule(1.0 + 4e-4, [&] { order.push_back(3); });
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);  // sorts the cursor bucket
  EXPECT_TRUE(q.reschedule(c, 1.0 + 1e-4));  // earlier: now first
  EXPECT_TRUE(q.reschedule(a, 1.0 + 2e-4));  // ties with 2, fires after it
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(EventQueue, RescheduleWithinUnsortedBucketOverwrites) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.0, [&] { order.push_back(0); });  // anchors the wheel
  const EventId a = q.schedule(2.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  const EventId c = q.schedule(2.0 + 1e-4, [&] { order.push_back(3); });
  EXPECT_TRUE(q.reschedule(a, 2.0));  // same time: now after 2
  EXPECT_TRUE(q.reschedule(c, 2.0));  // same bucket, joins the tie last
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
}

TEST(EventQueue, RescheduleCountsAsScheduleAndCancel) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_TRUE(q.reschedule(a, 3.0));
  EXPECT_EQ(q.scheduled_count(), 3u);
  EXPECT_EQ(q.cancelled_count(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.peak_pending(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_NE(q.pop().id, a);
  EXPECT_EQ(q.pop().id, a);  // same id after the move
}

TEST(EventQueue, RescheduleOfStaleOrFiredIdReturnsFalse) {
  EventQueue q;
  const EventId fired = q.schedule(1.0, [] {});
  const EventId cancelled = q.schedule(2.0, [] {});
  ASSERT_TRUE(q.cancel(cancelled));
  q.pop();
  const std::uint64_t scheduled = q.scheduled_count();
  EXPECT_FALSE(q.reschedule(fired, 5.0));
  EXPECT_FALSE(q.reschedule(cancelled, 5.0));
  EXPECT_FALSE(q.reschedule(0, 5.0));
  EXPECT_FALSE(q.reschedule(12345, 5.0));
  EXPECT_EQ(q.scheduled_count(), scheduled);
  EXPECT_EQ(q.cancelled_count(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(Simulation, RescheduleInMovesRelativeToNow) {
  Simulation sim(1);
  double seen = -1.0;
  const EventId id = sim.schedule_in(5.0, [&] { seen = sim.now(); });
  sim.schedule_in(1.0, [&] { EXPECT_TRUE(sim.reschedule_in(id, 2.0)); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 3.0);
  EXPECT_FALSE(sim.reschedule_in(id, 1.0));
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim(1);
  double seen = -1.0;
  sim.schedule_in(5.0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim(1);
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // clock reports the deadline
  sim.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventAtDeadlineStillRuns) {
  Simulation sim(1);
  bool fired = false;
  sim.schedule_in(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim(1);
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 3) sim.schedule_in(1.0, tick);
  };
  sim.schedule_in(1.0, tick);
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim(1);
  int fired = 0;
  sim.schedule_in(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // The remaining event still fires on the next run.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation sim(1);
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
  }
}

TEST(Rng, IndexCoversRange) {
  Rng rng(7);
  std::vector<int> seen(4, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.index(4)];
  for (const int count : seen) EXPECT_GT(count, 150);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ExponentialHasRoughlyCorrectMean) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    auto idx = rng.sample_indices(20, 10);
    ASSERT_EQ(idx.size(), 10u);
    std::sort(idx.begin(), idx.end());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      EXPECT_LT(idx[i], 20u);
      if (i > 0) {
        EXPECT_NE(idx[i], idx[i - 1]);
      }
    }
  }
}

TEST(Rng, SampleAllIndices) {
  Rng rng(7);
  auto idx = rng.sample_indices(5, 5);
  std::sort(idx.begin(), idx.end());
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, ParetoAtLeastScale) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, NormalRespectsFloor) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.normal(0.0, 10.0, -1.0), -1.0);
  }
}

}  // namespace
}  // namespace swarmlab::sim
