// Swarm-scope telemetry probe: one SwarmObserver subscribed (through the
// swarm's ObserverHub) to any subset of peers, aggregating the cross-peer
// series a single instrumented client can never see — piece replication
// entropy, choke/unchoke churn, per-capacity-class upload utilization and
// interested/unchoked matrix occupancy — into a MetricsRegistry.
//
// Strictly passive by construction: the probe schedules no simulator
// events and draws no randomness. Time series are sampled at observer
// callback times, throttled to the configured period, so attaching a
// probe never changes a trajectory (see the digest-under-observation
// test in observer_hub_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "instrument/analyzers.h"
#include "instrument/choke_market.h"
#include "instrument/local_log.h"
#include "instrument/metrics.h"
#include "instrument/peer_table.h"
#include "peer/observer.h"

namespace swarmlab::core {
class AvailabilityMap;
}
namespace swarmlab::peer {
class Peer;
}

namespace swarmlab::instrument {

class SwarmProbe final : public peer::SwarmObserver {
 public:
  struct Options {
    /// Seconds between time-series samples (sampled at callback times,
    /// so an idle swarm produces no samples — and no events).
    double sampling_period = 20.0;
    /// Ring capacity per registered series.
    std::size_t series_capacity = 2048;
    /// Keep full per-peer detail (a LocalPeerLog + ChokeMarketLog per
    /// tracked peer) — required by peer_log() / market_stats() /
    /// unchoke_correlation(); disable for cheap counting-only probes.
    bool per_peer_detail = true;
    /// With per_peer_detail, cap detail to the first N tracked peers
    /// (0 = unlimited, the historical behavior). Peers beyond the cap
    /// still feed every counter, matrix aggregate and time series — only
    /// their per-peer logs are skipped. This is what makes kAll scope
    /// affordable on mega swarms: tracking 10k peers with detail logs is
    /// an allocation storm; capped detail keeps memory O(cap) while the
    /// swarm-level picture stays exact.
    std::uint32_t detail_peer_cap = 0;
  };

  /// Registers its metrics (counters, gauges, series, the tenure
  /// histogram) into `registry` immediately; ids are stable thereafter.
  SwarmProbe(MetricsRegistry& registry, std::uint32_t num_pieces,
             Options opts);
  SwarmProbe(MetricsRegistry& registry, std::uint32_t num_pieces)
      : SwarmProbe(registry, num_pieces, Options()) {}

  /// Read-only peer lookup, bound after the swarm exists; lets the probe
  /// read availability/capacity without an instrument->swarm dependency.
  /// Callbacks arriving before bind() are still counted — only the
  /// peer-state series wait for the resolver.
  using PeerResolver = std::function<const peer::Peer*(peer::PeerId)>;
  void bind(PeerResolver resolver) { resolver_ = std::move(resolver); }

  /// Swarm-global availability oracle for the replication-entropy
  /// series (Swarm::global_availability()); optional.
  void bind_availability(const core::AvailabilityMap* global) {
    global_ = global;
  }

  /// The peer whose availability view feeds the copies_min/mean/max,
  /// rarest_set and peer_set series. Defaults to the first tracked peer
  /// that starts.
  void set_focus(peer::PeerId id) { focus_ = id; }
  [[nodiscard]] peer::PeerId focus() const { return focus_; }

  /// Records one sample row immediately (outside the periodic grid);
  /// benches use it to capture t=0 after bind().
  void force_sample(double t) { sample(t); }

  /// Flushes per-peer detail logs, closes market tenures (filling the
  /// tenure histogram) and records a final sample. Idempotent; call
  /// before querying.
  void finalize(double t);

  // --- queries for migrated benches ------------------------------------
  [[nodiscard]] const LocalPeerLog* peer_log(peer::PeerId id) const;
  /// Market stats for one tracked peer (valid after finalize()).
  [[nodiscard]] MarketStats market_stats(peer::PeerId id) const;
  /// Unchoke/interest correlation for one tracked peer (valid after
  /// finalize()); `seed_state` selects the seed- or leecher-state split.
  [[nodiscard]] UnchokeCorrelation unchoke_correlation(peer::PeerId id,
                                                       bool seed_state) const;
  [[nodiscard]] std::size_t tracked_peers() const { return states_.size(); }
  [[nodiscard]] MetricsRegistry& registry() { return registry_; }

  // --- SwarmObserver ----------------------------------------------------
  void on_start(peer::PeerId self, sim::SimTime t) override;
  void on_stop(peer::PeerId self, sim::SimTime t) override;
  void on_peer_joined(peer::PeerId self, sim::SimTime t,
                      peer::PeerId remote) override;
  void on_peer_left(peer::PeerId self, sim::SimTime t,
                    peer::PeerId remote) override;
  void on_message_sent(peer::PeerId self, sim::SimTime t, peer::PeerId to,
                       const wire::Message& msg) override;
  void on_message_received(peer::PeerId self, sim::SimTime t,
                           peer::PeerId from,
                           const wire::Message& msg) override;
  void on_interest_change(peer::PeerId self, sim::SimTime t,
                          peer::PeerId remote, bool interested) override;
  void on_remote_interest_change(peer::PeerId self, sim::SimTime t,
                                 peer::PeerId remote,
                                 bool interested) override;
  void on_local_choke_change(peer::PeerId self, sim::SimTime t,
                             peer::PeerId remote, bool unchoked) override;
  void on_remote_choke_change(peer::PeerId self, sim::SimTime t,
                              peer::PeerId remote, bool unchoked) override;
  void on_choke_round(peer::PeerId self, sim::SimTime t, bool seed_state,
                      const std::vector<peer::PeerId>& unchoked) override;
  void on_block_received(peer::PeerId self, sim::SimTime t, peer::PeerId from,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_block_uploaded(peer::PeerId self, sim::SimTime t, peer::PeerId to,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_piece_complete(peer::PeerId self, sim::SimTime t,
                         wire::PieceIndex piece) override;
  void on_piece_failed(peer::PeerId self, sim::SimTime t,
                       wire::PieceIndex piece) override;
  void on_end_game(peer::PeerId self, sim::SimTime t) override;
  void on_became_seed(peer::PeerId self, sim::SimTime t) override;

 private:
  /// One (tracked peer, remote) cell of the interested/unchoked matrix.
  struct Cell {
    peer::PeerId remote = peer::kNoPeer;
    bool remote_interested = false;
    bool local_unchoked = false;
  };

  /// Full per-peer logs of one tracked peer (per_peer_detail).
  struct Detail {
    explicit Detail(std::uint32_t num_pieces) : log(num_pieces) {}
    LocalPeerLog log;
    ChokeMarketLog market;
    MarketStats stats;  // filled by finalize()
  };

  struct PeerState {
    /// Null without per_peer_detail, or beyond detail_peer_cap.
    std::unique_ptr<Detail> detail;
    /// The current peer set, unordered. It is bounded by the peer-set
    /// cap, so a scan stays short, and it costs a few bytes per
    /// connection rather than a row per PeerId.
    std::vector<Cell> cells;
    std::uint64_t window_up_bytes = 0;  // since the last sample
    bool started = false;
  };

  PeerState& ensure(peer::PeerId self);
  [[nodiscard]] const Detail* detail(peer::PeerId id) const;
  static Cell* find_cell(PeerState& st, peer::PeerId remote);
  /// Hands one callback to both detail logs of `st`, if it has them.
  template <class Fn>
  static void forward(PeerState& st, Fn&& fn) {
    if (st.detail) {
      fn(st.detail->log);
      fn(st.detail->market);
    }
  }
  void drop_cells(PeerState& st);
  void maybe_sample(double t);
  void sample(double t);

  MetricsRegistry& registry_;
  std::uint32_t num_pieces_;
  Options opts_;
  PeerResolver resolver_;
  const core::AvailabilityMap* global_ = nullptr;
  peer::PeerId focus_ = peer::kNoPeer;

  PeerTable<PeerState> states_;  // one row per tracked peer
  std::size_t detailed_peers_ = 0;  // states_ rows carrying logs

  // Matrix occupancy aggregates, maintained incrementally.
  std::uint64_t total_cells_ = 0;
  std::uint64_t interested_cells_ = 0;
  std::uint64_t unchoked_cells_ = 0;

  // Churn window (reset at each sample).
  std::uint64_t window_unchokes_ = 0;
  std::uint64_t window_chokes_ = 0;

  double next_sample_ = 0.0;
  double last_sample_t_ = 0.0;
  bool finalized_ = false;

  // Metric ids (registration order fixed by the constructor).
  MetricId c_msgs_sent_, c_msgs_recv_, c_blocks_recv_, c_blocks_sent_;
  MetricId c_bytes_down_, c_bytes_up_, c_pieces_done_, c_pieces_failed_;
  MetricId c_joins_, c_leaves_, c_unchokes_, c_chokes_, c_rounds_;
  MetricId c_end_games_, c_became_seeds_, c_starts_, c_stops_;
  MetricId g_tracked_;
  MetricId h_tenure_;
  MetricId s_entropy_, s_churn_, s_interested_, s_unchoked_;
  MetricId s_copies_min_, s_copies_mean_, s_copies_max_;
  MetricId s_rarest_, s_peer_set_;
};

}  // namespace swarmlab::instrument
