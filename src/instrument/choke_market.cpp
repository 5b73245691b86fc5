#include "instrument/choke_market.h"

#include <algorithm>

namespace swarmlab::instrument {

void ChokeMarketLog::flush(RemoteState& state, double t) {
  const double dt = t - state.last_flush;
  if (dt <= 0.0) return;
  state.last_flush = t;
  if (!state.in_set || local_seed_) return;
  state.in_set_time += dt;
  if (state.unchokes_us) state.unchokes_us_time += dt;
}

void ChokeMarketLog::close_tenure(RemoteState& state) {
  if (state.tenure == 0) return;
  stats_.tenures.push_back(static_cast<double>(state.tenure));
  state.tenure = 0;
}

void ChokeMarketLog::on_start(sim::SimTime /*t*/) {}

void ChokeMarketLog::on_peer_joined(sim::SimTime t, peer::PeerId remote) {
  RemoteState& s = remotes_[remote];
  flush(s, t);
  if (!s.in_set) {
    in_set_.insert(std::lower_bound(in_set_.begin(), in_set_.end(), remote),
                   remote);
  }
  s.in_set = true;
  s.unchokes_us = false;
  s.last_flush = t;
}

void ChokeMarketLog::on_peer_left(sim::SimTime t, peer::PeerId remote) {
  RemoteState& s = remotes_[remote];
  flush(s, t);
  if (s.in_set) {
    in_set_.erase(std::lower_bound(in_set_.begin(), in_set_.end(), remote));
  }
  s.in_set = false;
  s.unchokes_us = false;
  close_tenure(s);
}

void ChokeMarketLog::on_remote_choke_change(sim::SimTime t,
                                            peer::PeerId remote,
                                            bool unchoked) {
  RemoteState& s = remotes_[remote];
  flush(s, t);
  s.unchokes_us = unchoked;
}

void ChokeMarketLog::on_choke_round(
    sim::SimTime t, bool seed_state,
    const std::vector<peer::PeerId>& unchoked) {
  if (seed_state) return;  // the market analysis targets leecher state
  ++stats_.rounds;
  for (const peer::PeerId remote : in_set_) {
    RemoteState& s = *remotes_.find(remote);
    flush(s, t);
    if (std::find(unchoked.begin(), unchoked.end(), remote) !=
        unchoked.end()) {
      ++s.tenure;
      ++stats_.slot_rounds;
      if (s.unchokes_us) ++mutual_slot_rounds_;
    } else {
      close_tenure(s);
    }
  }
}

void ChokeMarketLog::on_became_seed(sim::SimTime t) {
  for (const peer::PeerId remote : in_set_) {
    RemoteState& s = *remotes_.find(remote);
    flush(s, t);
    close_tenure(s);
  }
  local_seed_ = true;
}

MarketStats ChokeMarketLog::finalize(double t) {
  double in_set_total = 0.0;
  double unchoked_us_total = 0.0;
  for (auto [remote, s] : remotes_) {
    flush(s, t);
    close_tenure(s);
    in_set_total += s.in_set_time;
    unchoked_us_total += s.unchokes_us_time;
  }
  MarketStats out = stats_;
  if (!out.tenures.empty()) {
    double sum = 0.0;
    for (const double v : out.tenures) {
      sum += v;
      out.max_tenure = std::max(out.max_tenure, v);
    }
    out.mean_tenure = sum / static_cast<double>(out.tenures.size());
  }
  out.mutuality = out.slot_rounds > 0
                      ? static_cast<double>(mutual_slot_rounds_) /
                            static_cast<double>(out.slot_rounds)
                      : 0.0;
  out.null_mutuality =
      in_set_total > 0.0 ? unchoked_us_total / in_set_total : 0.0;
  return out;
}

}  // namespace swarmlab::instrument
