// Sliding-window transfer-rate estimation.
//
// The mainline 4.0.2 client the paper instruments estimates per-connection
// rates over a rolling window of at most 20 seconds; the choke algorithm
// in leecher state orders peers by this estimate every 10 seconds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace swarmlab::stats {

/// Bytes-per-second estimator over a trailing time window.
///
/// The live window is events_[head_, size). Expired events advance head_;
/// the buffer is cleared when all of them expire, and its expired prefix is
/// dropped in one move once that prefix is half the buffer. So a
/// default-constructed estimator allocates nothing, and a steady one stops
/// allocating once its buffer holds about twice the window's events.
class RateEstimator {
 public:
  /// `window` is the trailing horizon in seconds (mainline: 20 s).
  explicit RateEstimator(double window = 20.0) : window_(window) {}

  /// Records `bytes` transferred at time `now` (seconds).
  void add(double now, std::uint64_t bytes);

  /// Estimated rate in bytes/second at time `now`. Events older than the
  /// window are discarded. The divisor is the elapsed window span, but at
  /// least the time since the first recorded event, so a fresh connection
  /// is not over-credited.
  [[nodiscard]] double rate(double now) const;

  /// Total bytes ever recorded (for contribution accounting).
  [[nodiscard]] std::uint64_t total_bytes() const { return total_; }

  /// Drops all window state (e.g., on choke) but keeps totals.
  void reset_window();

 private:
  void expire(double now) const;

  double window_;
  mutable std::vector<std::pair<double, std::uint64_t>> events_;
  mutable std::size_t head_ = 0;  // first live event
  mutable std::uint64_t window_bytes_ = 0;
  std::uint64_t total_ = 0;
  double first_event_time_ = -1.0;
};

}  // namespace swarmlab::stats
