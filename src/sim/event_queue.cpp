#include "sim/event_queue.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace swarmlab::sim {

namespace {
// Wheel buckets sort descending so the bucket minimum pops off the back.
constexpr auto kDescending = std::greater<>{};
}  // namespace

EventId EventQueue::place(SimTime at) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const EventId id = pack(slots_[slot].gen, slot);
  insert(Entry{at, next_seq_++, id});
  ++scheduled_;
  peak_ = std::max(peak_, size());
  return id;
}

EventId EventQueue::schedule(SimTime at, EventFn fn) {
  const EventId id = place(at);
  Slot& s = slots_[slot_of(id)];
  s.channel = 0;
  s.fn = std::move(fn);
  return id;
}

EventId EventQueue::schedule_fast(SimTime at, std::uint16_t channel,
                                  FastPayload payload) {
  assert(channel != 0);
  const EventId id = place(at);
  Slot& s = slots_[slot_of(id)];
  s.channel = channel;
  s.payload = payload;
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (!is_pending(id)) return false;
  const std::uint32_t slot = slot_of(id);
  unlink(slot);
  release(slot);
  ++cancelled_;
  return true;
}

bool EventQueue::reschedule(EventId id, SimTime at) {
  if (!is_pending(id)) return false;
  const std::uint32_t slot = slot_of(id);
  const Slot& s = slots_[slot];
  const Entry e{at, next_seq_++, id};
  ++scheduled_;
  ++cancelled_;
  if (s.bucket == kInHeap) {
    // Any time is valid in the heap: sift the entry where it is.
    const std::size_t i = s.pos;
    heap_[i] = e;
    if (sift_up(i) == i) sift_down(i);
    return true;
  }
  if (!buckets_[s.bucket].sorted && route(at) == s.bucket) {
    buckets_[s.bucket].v[s.pos] = e;  // same unsorted bucket: overwrite
    return true;
  }
  unlink(slot);
  insert(e);
  return true;
}

std::uint32_t EventQueue::route(SimTime at) {
  if (wheel_entries_ == 0 && std::isfinite(at)) {
    wheel_base_ = at;
    wheel_cursor_ = 0;
  }
  const double rel = at - wheel_base_;
  if (!(rel >= 0.0) || rel >= kWheelSpan) return kInHeap;
  const auto idx = static_cast<std::size_t>(rel * (1.0 / kBucketWidth));
  if (idx < wheel_cursor_ || idx >= kWheelBuckets) return kInHeap;
  return static_cast<std::uint32_t>(idx);
}

void EventQueue::insert(const Entry& e) {
  const std::uint32_t where = route(e.time);
  Slot& s = slots_[slot_of(e.id)];
  s.bucket = where;
  if (where == kInHeap) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
    return;
  }
  Bucket& b = buckets_[where];
  if (b.sorted) {
    // Keep the cursor bucket's descending (time, seq) order.
    b.v.insert(std::lower_bound(b.v.begin(), b.v.end(), e, kDescending), e);
  } else {
    s.pos = static_cast<std::uint32_t>(b.v.size());
    b.v.push_back(e);
  }
  ++wheel_entries_;
}

void EventQueue::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  if (s.bucket == kInHeap) {
    heap_erase(s.pos);
    return;
  }
  Bucket& b = buckets_[s.bucket];
  if (b.sorted) {
    // Erase in place so the bucket stays sorted.
    const EventId id = pack(s.gen, slot);
    b.v.erase(std::find_if(b.v.begin(), b.v.end(),
                           [id](const Entry& e) { return e.id == id; }));
  } else {
    const Entry last = b.v.back();
    b.v.pop_back();
    if (s.pos < b.v.size()) {
      b.v[s.pos] = last;
      slots_[slot_of(last.id)].pos = s.pos;
    }
  }
  if (b.v.empty()) b.sorted = false;
  --wheel_entries_;
}

std::size_t EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!(heap_[parent] > e)) break;
    heap_set(i, heap_[parent]);
    i = parent;
  }
  heap_set(i, e);
  return i;
}

std::size_t EventQueue::min_child(std::size_t i) const {
  const std::size_t first = kHeapArity * i + 1;
  const std::size_t end = std::min(first + kHeapArity, heap_.size());
  std::size_t child = first;
  for (std::size_t c = first + 1; c < end; ++c) {
    if (heap_[child] > heap_[c]) child = c;
  }
  return child;
}

void EventQueue::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  while (kHeapArity * i + 1 < heap_.size()) {
    const std::size_t child = min_child(i);
    if (!(e > heap_[child])) break;
    heap_set(i, heap_[child]);
    i = child;
  }
  heap_set(i, e);
}

void EventQueue::heap_erase(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  // Floyd's method: walk the hole down along the minimum children to a
  // leaf, then sift the former last entry up from there. The last entry
  // usually belongs near the bottom, so this saves comparing it at every
  // level on the way down.
  while (kHeapArity * i + 1 < heap_.size()) {
    const std::size_t child = min_child(i);
    heap_set(i, heap_[child]);
    i = child;
  }
  heap_[i] = last;
  sift_up(i);
}

const EventQueue::Entry* EventQueue::wheel_peek() {
  while (wheel_entries_ > 0) {
    assert(wheel_cursor_ < kWheelBuckets);
    Bucket& b = buckets_[wheel_cursor_];
    if (!b.v.empty()) {
      if (!b.sorted) {
        std::sort(b.v.begin(), b.v.end(), kDescending);
        b.sorted = true;
      }
      return &b.v.back();
    }
    ++wheel_cursor_;
  }
  return nullptr;
}

bool EventQueue::min_in_wheel() {
  assert(!empty());
  const Entry* w = wheel_peek();
  // (time, seq) is a strict total order, so exactly one tier holds the
  // global minimum; seqs are unique, so equality across tiers is
  // impossible.
  return w != nullptr && (heap_.empty() || heap_.front() > *w);
}

SimTime EventQueue::next_time() { return min_entry(min_in_wheel()).time; }

EventQueue::Fired EventQueue::pop() { return take(min_in_wheel()); }

bool EventQueue::pop_until(SimTime deadline, Fired* out) {
  if (empty()) return false;
  // The deadline check happens on the global minimum before extraction,
  // so a refusal disturbs nothing.
  const bool in_wheel = min_in_wheel();
  if (min_entry(in_wheel).time > deadline) return false;
  *out = take(in_wheel);
  return true;
}

EventQueue::Fired EventQueue::take(bool in_wheel) {
  const Entry top = min_entry(in_wheel);
  if (in_wheel) {
    Bucket& b = buckets_[wheel_cursor_];
    b.v.pop_back();
    if (b.v.empty()) b.sorted = false;
    --wheel_entries_;
  } else {
    heap_erase(0);
  }
  const std::uint32_t slot = slot_of(top.id);
  Slot& s = slots_[slot];
  Fired fired{top.time, top.id, s.payload, s.channel,
              s.channel == 0 ? std::move(s.fn) : EventFn{}};
  release(slot);
  return fired;
}

}  // namespace swarmlab::sim
