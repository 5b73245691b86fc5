// Choke-market analysis — the paper's named future work (§IV-B.2):
// "Our guess is that the choke algorithm leads to an equilibrium in the
//  peer selection. The exploration of this equilibrium is fundamental to
//  the understanding of the choke algorithm efficiency."
//
// ChokeMarketLog observes the local peer's choke rounds together with the
// remote peers' choke decisions toward the local peer, and quantifies the
// equilibrium: how long unchoke relationships last (tenure) and how often
// an unchoke is mutual (both sides keep a slot open), compared with the
// mutuality a random slot assignment would produce.
#pragma once

#include <cstdint>
#include <vector>

#include "instrument/peer_table.h"
#include "peer/observer.h"

namespace swarmlab::instrument {

/// Equilibrium statistics over the local peer's leecher-state rounds.
struct MarketStats {
  std::uint64_t rounds = 0;            ///< leecher-state choke rounds seen
  std::uint64_t slot_rounds = 0;       ///< sum of unchoked peers per round
  /// Tenures: lengths (in consecutive rounds) of completed unchoke spells.
  std::vector<double> tenures;
  double mean_tenure = 0.0;
  double max_tenure = 0.0;
  /// Fraction of slot-rounds where the unchoked remote was also
  /// unchoking the local peer at that instant (mutual reciprocation).
  double mutuality = 0.0;
  /// Mutuality a random assignment would produce: the time-averaged
  /// probability that an arbitrary connected remote unchokes us.
  double null_mutuality = 0.0;

  /// Equilibrium strength: observed vs random mutuality (>1 = the choke
  /// algorithm forms stable reciprocation pairs).
  [[nodiscard]] double mutuality_lift() const {
    return null_mutuality > 0.0 ? mutuality / null_mutuality : 0.0;
  }
};

/// Observer computing MarketStats for the peer it is attached to.
class ChokeMarketLog final : public peer::PeerObserver {
 public:
  void on_start(sim::SimTime t) override;
  void on_peer_joined(sim::SimTime t, peer::PeerId remote) override;
  void on_peer_left(sim::SimTime t, peer::PeerId remote) override;
  void on_remote_choke_change(sim::SimTime t, peer::PeerId remote,
                              bool unchoked) override;
  void on_choke_round(sim::SimTime t, bool seed_state,
                      const std::vector<peer::PeerId>& unchoked) override;
  void on_became_seed(sim::SimTime t) override;

  /// Closes open tenures/intervals and returns the statistics.
  [[nodiscard]] MarketStats finalize(double t);

 private:
  struct RemoteState {
    bool in_set = false;
    bool unchokes_us = false;
    double last_flush = 0.0;
    double in_set_time = 0.0;
    double unchokes_us_time = 0.0;
    /// Consecutive leecher-state rounds this remote has been in our
    /// unchoked set (0 = currently choked).
    std::uint64_t tenure = 0;
  };

  void flush(RemoteState& state, double t);
  /// Ends `state`'s unchoke spell, if one is open.
  void close_tenure(RemoteState& state);

  PeerTable<RemoteState> remotes_;
  /// Ids of the remotes with in_set, ascending: a round touches only
  /// these, since a departed remote's tenure closed when it left.
  std::vector<peer::PeerId> in_set_;
  MarketStats stats_;
  std::uint64_t mutual_slot_rounds_ = 0;
  bool local_seed_ = false;
};

}  // namespace swarmlab::instrument
