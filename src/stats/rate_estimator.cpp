#include "stats/rate_estimator.h"

#include <algorithm>

namespace swarmlab::stats {

void RateEstimator::add(double now, std::uint64_t bytes) {
  if (first_event_time_ < 0.0) first_event_time_ = now;
  events_.emplace_back(now, bytes);
  window_bytes_ += bytes;
  total_ += bytes;
  expire(now);
}

void RateEstimator::expire(double now) const {
  const double cutoff = now - window_;
  while (head_ < events_.size() && events_[head_].first < cutoff) {
    window_bytes_ -= events_[head_].second;
    ++head_;
  }
  if (head_ == events_.size()) {
    events_.clear();
    head_ = 0;
  } else if (2 * head_ >= events_.size()) {
    events_.erase(events_.begin(),
                  events_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

double RateEstimator::rate(double now) const {
  expire(now);
  if (events_.empty()) return 0.0;
  // Span: full window once warmed up, otherwise time since first traffic.
  double span = window_;
  if (first_event_time_ >= 0.0) {
    span = std::min(window_, now - first_event_time_);
  }
  if (span <= 0.0) span = 1e-9;
  return static_cast<double>(window_bytes_) / span;
}

void RateEstimator::reset_window() {
  events_.clear();
  head_ = 0;
  window_bytes_ = 0;
  first_event_time_ = -1.0;
}

}  // namespace swarmlab::stats
