#include "instrument/swarm_probe.h"

#include <cmath>
#include <map>
#include <string>

#include "core/availability.h"
#include "peer/peer.h"

namespace swarmlab::instrument {

namespace {

// Normalized Shannon entropy of the piece-copy distribution: 1.0 when
// every piece is equally replicated (the rarest-first ideal), lower when
// replication is skewed toward a few hot pieces.
double replication_entropy(const core::AvailabilityMap& avail) {
  const std::uint32_t n = avail.num_pieces();
  if (n <= 1) return 1.0;
  double total = 0.0;
  for (std::uint32_t p = 0; p < n; ++p) total += avail.copies(p);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (std::uint32_t p = 0; p < n; ++p) {
    const double c = avail.copies(p);
    if (c > 0.0) {
      const double frac = c / total;
      h -= frac * std::log(frac);
    }
  }
  return h / std::log(static_cast<double>(n));
}

std::string class_series_name(double upload_capacity) {
  return "upload_util_" +
         std::to_string(static_cast<std::uint64_t>(upload_capacity)) + "B";
}

}  // namespace

SwarmProbe::SwarmProbe(MetricsRegistry& registry, std::uint32_t num_pieces,
                       Options opts)
    : registry_(registry), num_pieces_(num_pieces), opts_(opts) {
  c_msgs_sent_ = registry_.counter("messages_sent");
  c_msgs_recv_ = registry_.counter("messages_received");
  c_blocks_recv_ = registry_.counter("blocks_received");
  c_blocks_sent_ = registry_.counter("blocks_uploaded");
  c_bytes_down_ = registry_.counter("bytes_downloaded");
  c_bytes_up_ = registry_.counter("bytes_uploaded");
  c_pieces_done_ = registry_.counter("pieces_completed");
  c_pieces_failed_ = registry_.counter("pieces_failed");
  c_joins_ = registry_.counter("peer_joins");
  c_leaves_ = registry_.counter("peer_leaves");
  c_unchokes_ = registry_.counter("unchokes");
  c_chokes_ = registry_.counter("chokes");
  c_rounds_ = registry_.counter("choke_rounds");
  c_end_games_ = registry_.counter("end_games");
  c_became_seeds_ = registry_.counter("became_seeds");
  c_starts_ = registry_.counter("peers_started");
  c_stops_ = registry_.counter("peers_stopped");
  g_tracked_ = registry_.gauge("tracked_peers");
  h_tenure_ = registry_.histogram("unchoke_tenure_rounds",
                                  {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                                   128.0});
  const std::size_t cap = opts_.series_capacity;
  s_entropy_ = registry_.series("replication_entropy", cap);
  s_churn_ = registry_.series("choke_churn", cap);
  s_interested_ = registry_.series("interested_occupancy", cap);
  s_unchoked_ = registry_.series("unchoked_occupancy", cap);
  s_copies_min_ = registry_.series("copies_min", cap);
  s_copies_mean_ = registry_.series("copies_mean", cap);
  s_copies_max_ = registry_.series("copies_max", cap);
  s_rarest_ = registry_.series("rarest_set", cap);
  s_peer_set_ = registry_.series("peer_set", cap);
}

SwarmProbe::PeerState& SwarmProbe::ensure(peer::PeerId self) {
  if (PeerState* st = states_.find(self)) return *st;
  PeerState& st = states_[self];
  // Detail logs go to the first detail_peer_cap tracked peers
  // (deterministic — first-callback order — and no RNG); later peers
  // get counting-only state.
  if (opts_.per_peer_detail &&
      (opts_.detail_peer_cap == 0 ||
       detailed_peers_ < opts_.detail_peer_cap)) {
    ++detailed_peers_;
    st.detail = std::make_unique<Detail>(num_pieces_);
  }
  return st;
}

SwarmProbe::Cell* SwarmProbe::find_cell(PeerState& st, peer::PeerId remote) {
  for (Cell& cell : st.cells) {
    if (cell.remote == remote) return &cell;
  }
  return nullptr;
}

void SwarmProbe::drop_cells(PeerState& st) {
  for (const Cell& cell : st.cells) {
    --total_cells_;
    if (cell.remote_interested) --interested_cells_;
    if (cell.local_unchoked) --unchoked_cells_;
  }
  st.cells.clear();
}

void SwarmProbe::maybe_sample(double t) {
  if (t + 1e-12 < next_sample_) return;
  sample(t);
  const double period =
      opts_.sampling_period > 0.0 ? opts_.sampling_period : 1.0;
  while (next_sample_ <= t) next_sample_ += period;
}

void SwarmProbe::sample(double t) {
  registry_.set(g_tracked_, static_cast<double>(states_.size()));
  if (global_ != nullptr) {
    registry_.record(s_entropy_, t, replication_entropy(*global_));
  }
  registry_.record(s_churn_, t,
                   static_cast<double>(window_unchokes_ + window_chokes_));
  const double cells = static_cast<double>(total_cells_);
  registry_.record(s_interested_, t,
                   cells > 0.0 ? interested_cells_ / cells : 0.0);
  registry_.record(s_unchoked_, t,
                   cells > 0.0 ? unchoked_cells_ / cells : 0.0);

  if (resolver_) {
    // Focus-peer availability view (the paper's instrumented client).
    peer::PeerId focus = focus_;
    if (focus == peer::kNoPeer && !states_.empty()) {
      focus = (*states_.begin()).first;  // the lowest tracked id
    }
    if (const peer::Peer* p = focus != peer::kNoPeer ? resolver_(focus)
                                                     : nullptr;
        p != nullptr && p->active()) {
      const core::AvailabilityMap& avail = p->availability();
      registry_.record(s_copies_min_, t, avail.min_copies());
      registry_.record(s_copies_mean_, t, avail.mean_copies());
      registry_.record(s_copies_max_, t, avail.max_copies());
      registry_.record(s_rarest_, t, avail.rarest_set_size());
      registry_.record(s_peer_set_, t,
                       static_cast<double>(p->peer_set_size()));
    }

    // Per-capacity-class upload utilization over the closed window.
    const double dt = t - last_sample_t_;
    if (dt > 0.0) {
      std::map<std::uint64_t, std::pair<double, double>> classes;  // bytes,cap
      for (const auto [id, st] : states_) {
        if (!st.started) continue;
        const peer::Peer* p = resolver_(id);
        if (p == nullptr) continue;
        const double cap = p->config().upload_capacity;
        if (cap <= 0.0) continue;
        auto& cls = classes[static_cast<std::uint64_t>(cap)];
        cls.first += static_cast<double>(st.window_up_bytes);
        cls.second += cap;
      }
      for (const auto& [cap_key, cls] : classes) {
        const MetricId sid = registry_.series(
            class_series_name(static_cast<double>(cap_key)),
            opts_.series_capacity);
        registry_.record(sid, t, cls.first / (cls.second * dt));
      }
    }
  }

  for (PeerState& st : states_.rows()) st.window_up_bytes = 0;
  window_unchokes_ = 0;
  window_chokes_ = 0;
  last_sample_t_ = t;
}

void SwarmProbe::finalize(double t) {
  if (finalized_) return;
  finalized_ = true;
  sample(t);
  for (const auto [id, st] : states_) {
    if (!st.detail) continue;
    Detail& d = *st.detail;
    d.log.finalize(t);
    d.stats = d.market.finalize(t);
    for (double tenure : d.stats.tenures) {
      registry_.observe(h_tenure_, tenure);
    }
  }
}

const SwarmProbe::Detail* SwarmProbe::detail(peer::PeerId id) const {
  const PeerState* st = states_.find(id);
  return st != nullptr ? st->detail.get() : nullptr;
}

const LocalPeerLog* SwarmProbe::peer_log(peer::PeerId id) const {
  const Detail* d = detail(id);
  return d != nullptr ? &d->log : nullptr;
}

MarketStats SwarmProbe::market_stats(peer::PeerId id) const {
  const Detail* d = detail(id);
  return d != nullptr ? d->stats : MarketStats{};
}

UnchokeCorrelation SwarmProbe::unchoke_correlation(peer::PeerId id,
                                                   bool seed_state) const {
  const Detail* d = detail(id);
  if (d == nullptr) return UnchokeCorrelation{};
  return seed_state ? analyze_unchoke_correlation_seed(d->log)
                    : analyze_unchoke_correlation_leecher(d->log);
}

// --- SwarmObserver callbacks ----------------------------------------------

void SwarmProbe::on_start(peer::PeerId self, sim::SimTime t) {
  maybe_sample(t);
  registry_.add(c_starts_);
  PeerState& st = ensure(self);
  st.started = true;
  forward(st, [&](auto& log) { log.on_start(t); });
}

void SwarmProbe::on_stop(peer::PeerId self, sim::SimTime t) {
  maybe_sample(t);
  registry_.add(c_stops_);
  PeerState& st = ensure(self);
  st.started = false;
  drop_cells(st);
  forward(st, [&](auto& log) { log.on_stop(t); });
}

void SwarmProbe::on_peer_joined(peer::PeerId self, sim::SimTime t,
                                peer::PeerId remote) {
  maybe_sample(t);
  registry_.add(c_joins_);
  PeerState& st = ensure(self);
  if (find_cell(st, remote) == nullptr) {
    st.cells.push_back(Cell{remote});
    ++total_cells_;
  }
  forward(st, [&](auto& log) { log.on_peer_joined(t, remote); });
}

void SwarmProbe::on_peer_left(peer::PeerId self, sim::SimTime t,
                              peer::PeerId remote) {
  maybe_sample(t);
  registry_.add(c_leaves_);
  PeerState& st = ensure(self);
  if (Cell* cell = find_cell(st, remote)) {
    --total_cells_;
    if (cell->remote_interested) --interested_cells_;
    if (cell->local_unchoked) --unchoked_cells_;
    *cell = st.cells.back();
    st.cells.pop_back();
  }
  forward(st, [&](auto& log) { log.on_peer_left(t, remote); });
}

void SwarmProbe::on_message_sent(peer::PeerId self, sim::SimTime t,
                                 peer::PeerId to, const wire::Message& msg) {
  maybe_sample(t);
  registry_.add(c_msgs_sent_);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_message_sent(t, to, msg); });
}

void SwarmProbe::on_message_received(peer::PeerId self, sim::SimTime t,
                                     peer::PeerId from,
                                     const wire::Message& msg) {
  maybe_sample(t);
  registry_.add(c_msgs_recv_);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_message_received(t, from, msg); });
}

void SwarmProbe::on_interest_change(peer::PeerId self, sim::SimTime t,
                                    peer::PeerId remote, bool interested) {
  maybe_sample(t);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) {
    log.on_interest_change(t, remote, interested);
  });
}

void SwarmProbe::on_remote_interest_change(peer::PeerId self, sim::SimTime t,
                                           peer::PeerId remote,
                                           bool interested) {
  maybe_sample(t);
  PeerState& st = ensure(self);
  Cell* cell = find_cell(st, remote);
  if (cell != nullptr && cell->remote_interested != interested) {
    cell->remote_interested = interested;
    interested ? ++interested_cells_ : --interested_cells_;
  }
  forward(st, [&](auto& log) {
    log.on_remote_interest_change(t, remote, interested);
  });
}

void SwarmProbe::on_local_choke_change(peer::PeerId self, sim::SimTime t,
                                       peer::PeerId remote, bool unchoked) {
  maybe_sample(t);
  registry_.add(unchoked ? c_unchokes_ : c_chokes_);
  unchoked ? ++window_unchokes_ : ++window_chokes_;
  PeerState& st = ensure(self);
  Cell* cell = find_cell(st, remote);
  if (cell != nullptr && cell->local_unchoked != unchoked) {
    cell->local_unchoked = unchoked;
    unchoked ? ++unchoked_cells_ : --unchoked_cells_;
  }
  forward(st, [&](auto& log) {
    log.on_local_choke_change(t, remote, unchoked);
  });
}

void SwarmProbe::on_remote_choke_change(peer::PeerId self, sim::SimTime t,
                                        peer::PeerId remote, bool unchoked) {
  maybe_sample(t);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) {
    log.on_remote_choke_change(t, remote, unchoked);
  });
}

void SwarmProbe::on_choke_round(peer::PeerId self, sim::SimTime t,
                                bool seed_state,
                                const std::vector<peer::PeerId>& unchoked) {
  maybe_sample(t);
  registry_.add(c_rounds_);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_choke_round(t, seed_state, unchoked); });
}

void SwarmProbe::on_block_received(peer::PeerId self, sim::SimTime t,
                                   peer::PeerId from, wire::BlockRef block,
                                   std::uint32_t bytes) {
  maybe_sample(t);
  registry_.add(c_blocks_recv_);
  registry_.add(c_bytes_down_, bytes);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_block_received(t, from, block, bytes); });
}

void SwarmProbe::on_block_uploaded(peer::PeerId self, sim::SimTime t,
                                   peer::PeerId to, wire::BlockRef block,
                                   std::uint32_t bytes) {
  maybe_sample(t);
  registry_.add(c_blocks_sent_);
  registry_.add(c_bytes_up_, bytes);
  PeerState& st = ensure(self);
  st.window_up_bytes += bytes;
  forward(st, [&](auto& log) { log.on_block_uploaded(t, to, block, bytes); });
}

void SwarmProbe::on_piece_complete(peer::PeerId self, sim::SimTime t,
                                   wire::PieceIndex piece) {
  maybe_sample(t);
  registry_.add(c_pieces_done_);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_piece_complete(t, piece); });
}

void SwarmProbe::on_piece_failed(peer::PeerId self, sim::SimTime t,
                                 wire::PieceIndex piece) {
  maybe_sample(t);
  registry_.add(c_pieces_failed_);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_piece_failed(t, piece); });
}

void SwarmProbe::on_end_game(peer::PeerId self, sim::SimTime t) {
  maybe_sample(t);
  registry_.add(c_end_games_);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_end_game(t); });
}

void SwarmProbe::on_became_seed(peer::PeerId self, sim::SimTime t) {
  maybe_sample(t);
  registry_.add(c_became_seeds_);
  PeerState& st = ensure(self);
  forward(st, [&](auto& log) { log.on_became_seed(t); });
}

}  // namespace swarmlab::instrument
