// Periodic sampler over the local peer's state, backing the time-axis
// figures: piece replication in the peer set (Figs. 2 and 4), rarest-set
// size (Figs. 3 and 6) and peer set size (Fig. 5).
#pragma once

#include "peer/peer.h"
#include "sim/simulation.h"
#include "stats/timeseries.h"

namespace swarmlab::instrument {

/// Samples min/mean/max piece copies in the local peer set, the rarest
/// pieces set size, and the peer set size every `interval` seconds.
class AvailabilitySampler {
 public:
  /// Starts sampling immediately; keeps sampling until the simulation
  /// drains or stop() is called.
  AvailabilitySampler(sim::Simulation& sim, const peer::Peer& peer,
                      double interval = 10.0);
  ~AvailabilitySampler();

  AvailabilitySampler(const AvailabilitySampler&) = delete;
  AvailabilitySampler& operator=(const AvailabilitySampler&) = delete;

  void stop();

  [[nodiscard]] const stats::TimeSeries& min_copies() const { return min_; }
  [[nodiscard]] const stats::TimeSeries& mean_copies() const { return mean_; }
  [[nodiscard]] const stats::TimeSeries& max_copies() const { return max_; }
  [[nodiscard]] const stats::TimeSeries& rarest_set_size() const {
    return rarest_;
  }
  [[nodiscard]] const stats::TimeSeries& peer_set_size() const {
    return peers_;
  }

 private:
  void tick();

  sim::Simulation& sim_;
  const peer::Peer& peer_;
  double interval_;
  sim::EventId event_ = 0;
  bool stopped_ = false;
  stats::TimeSeries min_;
  stats::TimeSeries mean_;
  stats::TimeSeries max_;
  stats::TimeSeries rarest_;
  stats::TimeSeries peers_;
};

}  // namespace swarmlab::instrument
