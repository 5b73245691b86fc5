#include "instrument/samplers.h"

namespace swarmlab::instrument {

AvailabilitySampler::AvailabilitySampler(sim::Simulation& sim,
                                         const peer::Peer& peer,
                                         double interval)
    : sim_(sim), peer_(peer), interval_(interval) {
  tick();
}

AvailabilitySampler::~AvailabilitySampler() { stop(); }

void AvailabilitySampler::stop() {
  stopped_ = true;
  if (event_ != 0) {
    sim_.cancel(event_);
    event_ = 0;
  }
}

void AvailabilitySampler::tick() {
  if (stopped_) return;
  const double t = sim_.now();
  // Sample only while the peer is in the torrent; keep the timer alive
  // so sampling begins when the peer joins later.
  if (peer_.active()) {
    const core::AvailabilityMap& avail = peer_.availability();
    min_.add(t, avail.min_copies());
    mean_.add(t, avail.mean_copies());
    max_.add(t, avail.max_copies());
    rarest_.add(t, avail.rarest_set_size());
    peers_.add(t, static_cast<double>(peer_.peer_set_size()));
  }
  event_ = sim_.schedule_in(interval_, [this] { tick(); });
}

}  // namespace swarmlab::instrument
