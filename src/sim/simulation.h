// The simulation driver: a clock plus an event queue plus an Rng.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/progress_monitor.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace swarmlab::sim {

/// Owns simulated time. Components schedule callbacks against it; run()
/// advances the clock from event to event until the queue drains, a
/// deadline passes, stop() is called, or an attached ProgressMonitor
/// trips (wall/event budget, livelock, stall — see progress_monitor.h).
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// The simulation-wide random source.
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, EventFn fn);

  /// Schedules `fn` at absolute time `at` (at >= now()).
  EventId schedule_at(SimTime at, EventFn fn);

  /// Handler for a fast-path event channel. `ctx` is the pointer given
  /// at registration; the payload is the one passed to schedule_fast_*.
  using FastFn = void (*)(void* ctx, const FastPayload& payload);

  /// Registers a fast-path dispatch channel and returns its nonzero tag.
  /// Events scheduled on the channel fire through the raw function
  /// pointer — no std::function is ever constructed. `ctx` must outlive
  /// every event scheduled on the channel. Channels cannot be
  /// unregistered; hot subsystems register once at construction.
  std::uint16_t add_fast_channel(FastFn fn, void* ctx) {
    channels_.push_back(FastChannel{fn, ctx});
    return static_cast<std::uint16_t>(channels_.size());
  }

  /// Fast-path twins of schedule_in/schedule_at. Fire order relative to
  /// closure events is exactly schedule order (shared (time, seq) keys).
  EventId schedule_fast_in(SimTime delay, std::uint16_t channel,
                           FastPayload payload) {
    assert(delay >= 0.0);
    return queue_.schedule_fast(now_ + delay, channel, payload);
  }
  EventId schedule_fast_at(SimTime at, std::uint16_t channel,
                           FastPayload payload) {
    assert(at >= now_);
    return queue_.schedule_fast(at, channel, payload);
  }

  /// Cancels a pending event; returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to `delay` seconds from now (delay >= 0),
  /// keeping its id and callback. It fires exactly where cancel() plus a
  /// fresh schedule would have put it; returns false if it already fired
  /// or was cancelled.
  bool reschedule_in(EventId id, SimTime delay) {
    assert(delay >= 0.0);
    return queue_.reschedule(id, now_ + delay);
  }

  /// Runs events until the queue is empty, `deadline` is reached, or
  /// stop() is called. Events scheduled exactly at the deadline still run.
  /// Returns the final simulated time.
  SimTime run_until(SimTime deadline);

  /// Runs to queue exhaustion (or stop()).
  SimTime run() { return run_until(std::numeric_limits<SimTime>::max()); }

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  /// Attaches (or detaches, with nullptr) a liveness guard. The monitor
  /// is consulted after every fired event; once it trips, run_until()
  /// returns immediately and refuses to execute further events (sticky),
  /// so driver loops must check halted(). The monitor must outlive the
  /// simulation or be detached first.
  void attach_monitor(ProgressMonitor* monitor) { monitor_ = monitor; }
  [[nodiscard]] ProgressMonitor* monitor() const { return monitor_; }

  /// True once an attached monitor has tripped: the run was terminated
  /// for liveness reasons and no further events will execute.
  [[nodiscard]] bool halted() const {
    return monitor_ != nullptr && monitor_->tripped();
  }

  /// Number of events executed so far (for progress/perf reporting).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Events ever scheduled (fired + cancelled + still pending).
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return queue_.scheduled_count();
  }

  /// Events cancelled before firing.
  [[nodiscard]] std::uint64_t events_cancelled() const {
    return queue_.cancelled_count();
  }

  /// High-water mark of pending events.
  [[nodiscard]] std::size_t peak_pending_events() const {
    return queue_.peak_pending();
  }

  /// Events executed through a fast-path channel (subset of
  /// events_executed()).
  [[nodiscard]] std::uint64_t events_fastpath() const { return fastpath_; }

  /// Always 0: the event queue removes cancelled entries eagerly and
  /// has no bulk sweep left to count. Kept because the schema-v6 batch
  /// report still carries `perf.compactions`.
  [[nodiscard]] std::uint64_t queue_compactions() const { return 0; }

 private:
  struct FastChannel {
    FastFn fn;
    void* ctx;
  };

  EventQueue queue_;
  std::vector<FastChannel> channels_;
  Rng rng_;
  SimTime now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t fastpath_ = 0;
  ProgressMonitor* monitor_ = nullptr;
};

}  // namespace swarmlab::sim
