// Event-engine equivalence: the two-tier EventQueue (calendar wheel +
// binary heap) must pop in byte-identical (time, seq) order to a
// reference single-tier model under tie-heavy randomized workloads, and
// the fast-path channel must share that order with closure events.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace swarmlab::sim {
namespace {

/// Reference model: a plain sorted list keyed by (time, insertion seq).
/// Deliberately naive — correctness oracle, not a performance peer.
class ReferenceQueue {
 public:
  std::uint64_t add(double time) {
    items_.push_back({time, next_seq_++, next_token_});
    return next_token_++;
  }

  bool cancel(std::uint64_t token) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->token == token) {
        items_.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }

  /// Pops the (time, seq) minimum and returns its token.
  std::uint64_t pop() {
    auto best = items_.begin();
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->time < best->time ||
          (it->time == best->time && it->seq < best->seq)) {
        best = it;
      }
    }
    const std::uint64_t token = best->token;
    items_.erase(best);
    return token;
  }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
    std::uint64_t token;
  };
  std::vector<Item> items_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_token_ = 1;
};

/// Drives EventQueue and ReferenceQueue through one interleaved
/// schedule/cancel/reschedule/pop script and asserts identical pop order.
/// Times are drawn from a tiny set of quantized values so equal-time ties
/// are the norm, and span both the wheel window (< 4 s ahead) and the
/// heap band, so reschedules move entries heap->wheel, wheel->heap,
/// within the sorted cursor bucket and within one unsorted bucket.
void run_equivalence_script(std::uint64_t seed, int ops) {
  Rng rng(seed);
  EventQueue queue;
  ReferenceQueue ref;
  // Each queue event's closure records the token it was scheduled with.
  // The reference models a reschedule as cancel + add, which mints a new
  // token, so ref_token maps a closure token to its current reference
  // token.
  std::vector<std::uint64_t> popped_tokens;
  std::map<std::uint64_t, std::uint64_t> ref_token;
  std::vector<std::pair<std::uint64_t, EventId>> live;  // token -> id
  std::vector<EventId> dead;  // ids already fired or cancelled

  double now = 0.0;
  const auto draw_time = [&] {
    // ~16 distinct offsets, some beyond the 4 s wheel horizon, so
    // collisions are constant and both tiers participate.
    return now + std::floor(rng.uniform(0.0, 1.0) * 16.0) * 0.75;
  };
  const auto pick_live = [&] {
    return static_cast<std::size_t>(rng.uniform(0.0, 1.0) * live.size()) %
           live.size();
  };
  for (int op = 0; op < ops; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.45 || queue.empty()) {
      const double at = draw_time();
      const std::uint64_t token = ref.add(at);
      const EventId id = queue.schedule(at, [token, &popped_tokens] {
        popped_tokens.push_back(token);
      });
      ref_token[token] = token;
      live.emplace_back(token, id);
    } else if (dice < 0.57 && !live.empty()) {
      // Cancel a random live event in both models.
      const std::size_t pick = pick_live();
      const auto [token, id] = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      EXPECT_TRUE(queue.cancel(id));
      EXPECT_TRUE(ref.cancel(ref_token[token]));
      dead.push_back(id);
    } else if (dice < 0.72 && !live.empty()) {
      // Reschedule a random live event: cancel + add in the reference.
      const auto [token, id] = live[pick_live()];
      const double at = draw_time();
      EXPECT_TRUE(queue.reschedule(id, at));
      EXPECT_TRUE(ref.cancel(ref_token[token]));
      ref_token[token] = ref.add(at);
    } else if (dice < 0.75 && !dead.empty()) {
      // A stale id moves nothing.
      const EventId id = dead[static_cast<std::size_t>(
                                  rng.uniform(0.0, 1.0) * dead.size()) %
                              dead.size()];
      EXPECT_FALSE(queue.reschedule(id, draw_time()));
    } else {
      // Pop one event from both; order must agree exactly.
      ASSERT_FALSE(queue.empty());
      const double t = queue.next_time();
      EXPECT_GE(t, now);
      now = t;
      auto fired = queue.pop();
      EXPECT_EQ(fired.time, t);
      ASSERT_EQ(fired.channel, 0);
      fired.fn();
      ASSERT_FALSE(popped_tokens.empty());
      const std::uint64_t expect = ref.pop();
      EXPECT_EQ(ref_token[popped_tokens.back()], expect)
          << "divergence at op " << op << " seed " << seed;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const auto& p) {
                                  return p.first == popped_tokens.back();
                                }),
                 live.end());
      dead.push_back(fired.id);
    }
    EXPECT_EQ(queue.size(), live.size());
  }
  // Drain: the full remaining order must match too.
  while (!queue.empty()) {
    auto fired = queue.pop();
    fired.fn();
    EXPECT_EQ(ref_token[popped_tokens.back()], ref.pop());
  }
  EXPECT_TRUE(ref.empty());
}

TEST(EventEngineEquivalence, TieHeavyRandomizedPopOrderMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_equivalence_script(seed, 4000);
  }
}

TEST(EventEngineEquivalence, MassCancelRemovesEagerlyAndPreservesOrder) {
  EventQueue queue;
  std::vector<int> order;
  // 3000 events in the wheel band; cancel 2/3. Each cancel takes its
  // entry out at once, so the pending count is exact throughout.
  std::vector<EventId> ids;
  for (int i = 0; i < 3000; ++i) {
    const double at = (i % 37) * 0.1;
    ids.push_back(queue.schedule(at, [i, &order] { order.push_back(i); }));
  }
  for (int i = 0; i < 3000; ++i) {
    if (i % 3 == 0) continue;
    const EventId id = ids[static_cast<std::size_t>(i)];
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));
    EXPECT_FALSE(queue.reschedule(id, 1.0));
  }
  EXPECT_EQ(queue.size(), 1000u);
  EXPECT_EQ(queue.cancelled_count(), 2000u);
  double last = -1.0;
  int popped = 0;
  while (!queue.empty()) {
    const double t = queue.next_time();
    EXPECT_GE(t, last);
    last = t;
    auto fired = queue.pop();
    fired.fn();
    ++popped;
    EXPECT_EQ(queue.size(), static_cast<std::size_t>(1000 - popped));
  }
  EXPECT_EQ(popped, 1000);
  for (const int i : order) EXPECT_EQ(i % 3, 0);
  // Survivors fire in (time, seq) order: within one time bucket value,
  // ascending schedule order (i % 37 equal => ascending i).
  for (std::size_t i = 1; i < order.size(); ++i) {
    const int a = order[i - 1];
    const int b = order[i];
    if (a % 37 == b % 37) EXPECT_LT(a, b);
  }
}

struct FastRecorder {
  std::vector<std::uint64_t> seen;
  static void fire(void* ctx, const FastPayload& p) {
    static_cast<FastRecorder*>(ctx)->seen.push_back(p.a);
  }
};

TEST(EventEngineFastPath, SharesFireOrderWithClosures) {
  Simulation sim(42);
  FastRecorder rec;
  const std::uint16_t ch = sim.add_fast_channel(&FastRecorder::fire, &rec);
  std::vector<std::uint64_t> merged;  // records both flavours in order
  // Alternate closure/fast at identical times: fire order must be exact
  // schedule order (shared time, same seq counter).
  for (std::uint64_t i = 0; i < 200; ++i) {
    const double at = static_cast<double>(i % 10);
    if (i % 2 == 0) {
      sim.schedule_at(at, [i, &merged] { merged.push_back(i); });
    } else {
      sim.schedule_fast_at(at, ch, {i, 0});
    }
  }
  sim.run();
  // Rebuild the merged order from the fast recorder + closure log.
  EXPECT_EQ(sim.events_executed(), 200u);
  EXPECT_EQ(sim.events_fastpath(), 100u);
  EXPECT_EQ(rec.seen.size(), 100u);
  // Within one time value, schedule order is ascending i; fast events
  // are the odd i. Check the fast stream is sorted by (time, i).
  for (std::size_t i = 1; i < rec.seen.size(); ++i) {
    const std::uint64_t a = rec.seen[i - 1];
    const std::uint64_t b = rec.seen[i];
    if (a % 10 == b % 10) EXPECT_LT(a, b);
  }
}

TEST(EventEngineFastPath, CancelFastEventNeverFires) {
  Simulation sim(7);
  FastRecorder rec;
  const std::uint16_t ch = sim.add_fast_channel(&FastRecorder::fire, &rec);
  const EventId keep = sim.schedule_fast_in(1.0, ch, {1, 0});
  const EventId gone = sim.schedule_fast_in(1.0, ch, {2, 0});
  EXPECT_TRUE(sim.cancel(gone));
  EXPECT_FALSE(sim.cancel(gone));  // stale id
  (void)keep;
  sim.run();
  ASSERT_EQ(rec.seen.size(), 1u);
  EXPECT_EQ(rec.seen[0], 1u);
  EXPECT_EQ(sim.events_cancelled(), 1u);
}

TEST(EventEngineFastPath, PopUntilRespectsDeadlineBoundary) {
  Simulation sim(7);
  int fired = 0;
  sim.schedule_at(1.0, [&fired] { ++fired; });
  sim.schedule_at(2.0, [&fired] { ++fired; });
  sim.schedule_at(2.0 + 1e-9, [&fired] { ++fired; });
  // Events exactly at the deadline run; later ones wait.
  EXPECT_EQ(sim.run_until(2.0), 2.0);
  EXPECT_EQ(fired, 2);
  sim.run();
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace swarmlab::sim
