// A cancellable priority queue of timed events.
//
// Events fire in (time, schedule-sequence) order, so simultaneous events
// run in the order they were scheduled — a requirement for deterministic
// replay of a simulation given a fixed RNG seed.
//
// EventIds are generation-checked slot handles: the low half encodes a
// slot (biased by 1 so no valid id is 0, the "no event" sentinel used by
// callers), the high half the slot's generation. Cancelling or firing an
// event bumps the generation, so a stale id held past its event's
// lifetime can never cancel the slot's next tenant. Fire-order ties are
// broken by a separate monotonic sequence carried in the heap entry —
// slot reuse makes ids non-monotonic, so ids cannot order the heap.
//
// Storage is two-tiered: a calendar wheel of fixed-width time buckets
// absorbs the dense near-future band (where discrete-event simulations
// concentrate their churn), and a 4-ary min-heap holds everything
// beyond the wheel's horizon, behind its cursor, or scheduled while the
// wheel window was exhausted. Both tiers order by the same (time, seq)
// key and pop() always takes the global minimum across them, so the
// fire order is identical to a single heap — see the proof
// sketch at wheel_peek(). See docs/performance.md.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.h"

namespace swarmlab::sim {

/// Callback invoked when an event fires.
using EventFn = std::function<void()>;

/// Payload of a fast-path event: 16 opaque bytes interpreted by the
/// channel handler (e.g. {node, direction} or {flow id, count}).
struct FastPayload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Two-tier priority queue of timed events with eager O(log n)
/// cancellation, in-place rescheduling and slot reuse.
///
/// Every slot records where its entry sits (a heap index, or a wheel
/// bucket plus index), so cancel() and reschedule() unlink or move the
/// entry at once: the tiers hold live entries only.
///
/// Events come in two flavours sharing one id space and one fire order:
/// closure events carry an EventFn, fast-path events carry a channel tag
/// plus a 16-byte POD payload and never touch std::function — hot
/// callers (the network backends) schedule and fire without allocating.
class EventQueue {
 public:
  /// Schedules `fn` to fire at absolute time `at`. Returns an id usable
  /// with `cancel()`; never 0.
  EventId schedule(SimTime at, EventFn fn);

  /// Schedules a fast-path event at absolute time `at`. `channel` is an
  /// opaque nonzero tag returned to the caller by pop(); dispatching it
  /// is the caller's business (Simulation keeps the handler table).
  EventId schedule_fast(SimTime at, std::uint16_t channel,
                        FastPayload payload);

  /// Cancels a pending event. Returns true if the event was still pending
  /// (not yet fired and not already cancelled).
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `at`, keeping its id and
  /// callback. The event takes a fresh tie-break seq, so it fires exactly
  /// where cancel() plus a new schedule() would have put it, and the
  /// counters record it as one cancel plus one schedule. Returns false
  /// (and changes nothing) when `id` is no longer pending.
  bool reschedule(EventId id, SimTime at);

  /// True when no event is pending.
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const {
    return heap_.size() + wheel_entries_;
  }

  /// Time of the earliest pending event. Precondition: !empty().
  /// Non-const: advances the wheel cursor to the first non-empty bucket.
  [[nodiscard]] SimTime next_time();

  /// What pop() returns: the fired event's time, id and callback.
  /// `channel` == 0 means a closure event (`fn` holds the callback);
  /// nonzero means a fast-path event (`payload` holds the data, `fn` is
  /// empty).
  struct Fired {
    SimTime time;
    EventId id;
    FastPayload payload;
    std::uint16_t channel;
    EventFn fn;
  };

  /// Pops and returns the earliest pending event. Precondition: !empty().
  Fired pop();

  /// Fused peek-and-pop for the run loop: pops the earliest pending event
  /// into `*out` iff the queue is non-empty and that event's time is
  /// <= `deadline`. One tier scan instead of the two a next_time()/pop()
  /// pair costs. Returns false (leaving `*out` untouched) otherwise.
  bool pop_until(SimTime deadline, Fired* out);

  /// Events ever scheduled (a reschedule counts as one).
  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }

  /// Events cancelled before firing (a reschedule counts as one).
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }

  /// High-water mark of pending events.
  [[nodiscard]] std::size_t peak_pending() const { return peak_; }

 private:
  /// Tier entries are 24-byte PODs: sift/sort moves are plain copies
  /// instead of std::function move-constructor calls. The callback (or
  /// payload) lives in the slot.
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // schedule order; breaks equal-time ties
    EventId id;

    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// `bucket` value of a slot whose entry sits in the heap.
  static constexpr std::uint32_t kInHeap = 0xffffffffu;

  struct Slot {
    std::uint32_t gen = 0;
    std::uint16_t channel = 0;  // 0 = closure event, else fast-path tag
    FastPayload payload;
    EventFn fn;
    // Where the pending entry sits: heap_[pos] when bucket == kInHeap,
    // else buckets_[bucket].v[pos]. `pos` is not maintained inside a
    // sorted bucket, whose entries shift on insert; removal scans there.
    std::uint32_t bucket = kInHeap;
    std::uint32_t pos = 0;
  };

  /// One wheel bucket: entries with times in [base + i*w, base + (i+1)*w).
  /// `sorted` holds only for the cursor bucket once it has been peeked:
  /// descending (time, seq) so the minimum pops off the back in O(1).
  struct Bucket {
    std::vector<Entry> v;
    bool sorted = false;
  };

  // Wheel geometry. The width is a power of two so relative times scale
  // exactly; the horizon (buckets * width = 4 s) covers the dense band of
  // transfer completions and control latencies while long timers
  // (rechoke, announce, keepalive) overflow to the heap, keeping it
  // small. The wheel window is absolute and non-wrapping: when it drains
  // it re-anchors at the next scheduled time.
  static constexpr std::size_t kWheelBuckets = 4096;
  static constexpr double kBucketWidth = 1.0 / 1024.0;
  static constexpr double kWheelSpan = kWheelBuckets * kBucketWidth;

  static constexpr EventId pack(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>((id & 0xffffffffu) - 1);
  }

  /// True if `id` names the current, still-pending tenant of its slot.
  [[nodiscard]] bool is_pending(EventId id) const {
    const std::uint64_t biased = id & 0xffffffffu;
    if (biased == 0 || biased > slots_.size()) return false;
    return slots_[biased - 1].gen == static_cast<std::uint32_t>(id >> 32);
  }

  /// Retires a slot: invalidates outstanding ids, frees the callback's
  /// captured resources, allows reuse.
  void release(std::uint32_t slot) {
    ++slots_[slot].gen;
    slots_[slot].fn = nullptr;
    free_.push_back(slot);
  }

  /// Allocates a slot, inserts its entry and returns its id.
  EventId place(SimTime at);

  /// Wheel bucket for time `at`, or kInHeap when `at` lies before the
  /// window, past its horizon or behind the cursor. A drained wheel
  /// re-anchors at the first finite time it sees, so the wheel never has
  /// to look behind its cursor.
  std::uint32_t route(SimTime at);

  /// Puts `e` into the tier route() picks and records its position.
  void insert(const Entry& e);

  /// Takes the entry of pending slot `slot` out of its tier.
  void unlink(std::uint32_t slot);

  /// The heap is 4-ary: half the depth of a binary heap, and the four
  /// children of a node share a cache line or two, so the sifts a
  /// reschedule costs touch fewer lines.
  static constexpr std::size_t kHeapArity = 4;

  /// Heap maintenance that keeps each moved entry's slot position
  /// current. sift_up returns the entry's final index; min_child needs
  /// node `i` to have a child.
  void heap_set(std::size_t i, const Entry& e) {
    heap_[i] = e;
    slots_[slot_of(e.id)].pos = static_cast<std::uint32_t>(i);
  }
  [[nodiscard]] std::size_t min_child(std::size_t i) const;
  std::size_t sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_erase(std::size_t i);

  /// Earliest wheel entry (nullptr when the wheel holds none), advancing
  /// the cursor past drained buckets and sorting the bucket it stops at.
  ///
  /// Why this is the wheel's minimum: buckets partition disjoint,
  /// ascending time ranges, so the first non-empty bucket at or after
  /// the cursor contains every candidate for the wheel's earliest time;
  /// within it, entries are kept descending by (time, seq), so the back
  /// is the exact minimum. Entries that would land in a range the
  /// cursor already passed are routed to the heap at schedule time, so
  /// no entry is ever skipped.
  const Entry* wheel_peek();

  /// Locates the global minimum: true when it is the back of the wheel's
  /// cursor bucket, false when it is the heap root. Precondition:
  /// !empty().
  bool min_in_wheel();

  [[nodiscard]] const Entry& min_entry(bool in_wheel) const {
    return in_wheel ? buckets_[wheel_cursor_].v.back() : heap_.front();
  }

  /// Removes the minimum min_in_wheel() located, moves the slot contents
  /// into a Fired and retires the slot.
  Fired take(bool in_wheel);

  std::vector<Entry> heap_;  // 4-ary min-heap on (time, seq)
  std::vector<Bucket> buckets_{kWheelBuckets};
  double wheel_base_ = 0.0;       // time of bucket 0's left edge
  std::size_t wheel_cursor_ = 0;  // first bucket not yet drained
  std::size_t wheel_entries_ = 0; // entries in buckets
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // retired slots awaiting reuse
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace swarmlab::sim
