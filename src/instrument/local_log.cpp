#include "instrument/local_log.h"

#include <utility>

namespace swarmlab::instrument {

namespace {

template <std::size_t... I>
std::array<const char*, sizeof...(I)> message_names(
    std::index_sequence<I...> /*indices*/) {
  return {wire::message_name(wire::Message(std::in_place_index<I>))...};
}

}  // namespace

RemotePeerRecord& LocalPeerLog::record(peer::PeerId id) {
  RemotePeerRecord& r = records_[id];
  r.id = id;
  return r;
}

LocalPeerLog::LiveState& LocalPeerLog::live(peer::PeerId id) {
  return live_[id];
}

void LocalPeerLog::flush(peer::PeerId id, LiveState& s, double t) {
  const double dt = t - s.last_flush;
  if (dt <= 0.0) return;  // never rewind the accrual clock
  s.last_flush = t;
  if (!s.in_set) return;
  RemotePeerRecord& r = record(id);
  r.time_in_set += dt;
  if (!local_seed_) {
    if (!r.remote_is_seed) {
      // Leecher-to-leecher accounting (Fig. 1 footnote: only leechers are
      // relevant for the entropy characterization).
      r.time_in_set_leecher += dt;
      if (s.local_interested) r.local_interested_leecher += dt;
      if (s.remote_interested) r.remote_interested_leecher += dt;
    }
  } else {
    r.time_in_set_seed += dt;
    if (s.remote_interested) r.remote_interested_seed += dt;
  }
}

void LocalPeerLog::flush_all(double t) {
  for (auto [id, s] : live_) flush(id, s, t);
}

void LocalPeerLog::finalize(double t) { flush_all(t); }

void LocalPeerLog::on_start(sim::SimTime t) { start_time_ = t; }

void LocalPeerLog::on_stop(sim::SimTime t) { flush_all(t); }

void LocalPeerLog::on_peer_joined(sim::SimTime t, peer::PeerId remote) {
  RemotePeerRecord& r = record(remote);
  LiveState& s = live(remote);
  flush(remote, s, t);
  s.in_set = true;
  s.local_interested = false;
  s.remote_interested = false;
  // A rejoining peer's piece knowledge resets with the new connection.
  r.remote_pieces = 0;
  r.remote_is_seed = false;
}

void LocalPeerLog::on_peer_left(sim::SimTime t, peer::PeerId remote) {
  LiveState& s = live(remote);
  flush(remote, s, t);
  s.in_set = false;
  s.local_interested = false;
  s.remote_interested = false;
}

void LocalPeerLog::note_remote_pieces(peer::PeerId id,
                                      std::uint32_t new_count, double t) {
  RemotePeerRecord& r = record(id);
  if (new_count == r.remote_pieces) return;
  const bool was_seed = r.remote_is_seed;
  const bool now_seed = new_count >= num_pieces_;
  if (was_seed != now_seed) {
    // Seed-status flips gate the leecher-to-leecher interval buckets.
    flush(id, live(id), t);
  }
  r.remote_pieces = new_count;
  r.remote_is_seed = now_seed;
  if (now_seed) r.ever_remote_seed = true;
}

MessageCounters LocalPeerLog::message_counters() const {
  static const auto names = message_names(
      std::make_index_sequence<std::variant_size_v<wire::Message>>{});
  MessageCounters out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (sent_[i] != 0) out.sent[names[i]] = sent_[i];
    if (received_[i] != 0) out.received[names[i]] = received_[i];
  }
  return out;
}

void LocalPeerLog::on_message_sent(sim::SimTime /*t*/, peer::PeerId /*to*/,
                                   const wire::Message& msg) {
  ++sent_[msg.index()];
}

void LocalPeerLog::on_message_received(sim::SimTime t, peer::PeerId from,
                                       const wire::Message& msg) {
  ++received_[msg.index()];
  if (const auto* bf = std::get_if<wire::BitfieldMsg>(&msg)) {
    std::uint32_t count = 0;
    for (const bool b : bf->bits) count += b ? 1 : 0;
    note_remote_pieces(from, count, t);
  } else if (std::holds_alternative<wire::HaveMsg>(msg)) {
    note_remote_pieces(from, record(from).remote_pieces + 1, t);
  } else if (std::holds_alternative<wire::HaveAllMsg>(msg)) {
    note_remote_pieces(from, num_pieces_, t);  // Fast Extension seed
  } else if (std::holds_alternative<wire::HaveNoneMsg>(msg)) {
    note_remote_pieces(from, 0, t);
  }
}

void LocalPeerLog::on_interest_change(sim::SimTime t, peer::PeerId remote,
                                      bool interested) {
  LiveState& s = live(remote);
  flush(remote, s, t);
  s.local_interested = interested;
}

void LocalPeerLog::on_remote_interest_change(sim::SimTime t,
                                             peer::PeerId remote,
                                             bool interested) {
  LiveState& s = live(remote);
  flush(remote, s, t);
  s.remote_interested = interested;
}

void LocalPeerLog::on_local_choke_change(sim::SimTime /*t*/,
                                         peer::PeerId remote, bool unchoked) {
  if (!unchoked) return;
  RemotePeerRecord& r = record(remote);
  if (local_seed_) {
    ++r.unchokes_seed;
  } else {
    ++r.unchokes_leecher;
  }
}

void LocalPeerLog::on_remote_choke_change(sim::SimTime /*t*/,
                                          peer::PeerId /*remote*/,
                                          bool /*unchoked*/) {}

void LocalPeerLog::on_block_received(sim::SimTime t, peer::PeerId from,
                                     wire::BlockRef block,
                                     std::uint32_t bytes) {
  block_events_.push_back(BlockEvent{t, from, block});
  RemotePeerRecord& r = record(from);
  if (r.remote_is_seed) {
    r.down_bytes_from_seed += bytes;
  } else {
    r.down_bytes_from_leecher += bytes;
  }
}

void LocalPeerLog::on_block_uploaded(sim::SimTime /*t*/, peer::PeerId to,
                                     wire::BlockRef /*block*/,
                                     std::uint32_t bytes) {
  RemotePeerRecord& r = record(to);
  if (local_seed_) {
    r.up_bytes_seed += bytes;
  } else {
    r.up_bytes_leecher += bytes;
  }
}

void LocalPeerLog::on_piece_complete(sim::SimTime t,
                                     wire::PieceIndex piece) {
  piece_events_.push_back(PieceEvent{t, piece});
}

void LocalPeerLog::on_end_game(sim::SimTime t) {
  if (end_game_time_ < 0.0) end_game_time_ = t;
}

void LocalPeerLog::on_became_seed(sim::SimTime t) {
  flush_all(t);
  local_seed_ = true;
  seed_time_ = t;
}

}  // namespace swarmlab::instrument
