// LocalPeerLog: the reproduction of the paper's client instrumentation
// (§III-C). Attached to the local peer as a PeerObserver, it records the
// complete message/choke/event stream and accumulates, per remote peer,
// the interval and byte statistics every figure of §IV is computed from.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "instrument/peer_table.h"
#include "peer/observer.h"
#include "peer/types.h"
#include "wire/geometry.h"

namespace swarmlab::instrument {

/// One block arrival (drives Figs. 7-8).
struct BlockEvent {
  double time = 0.0;
  peer::PeerId from = peer::kNoPeer;
  wire::BlockRef block;
};

/// One piece completion (drives Figs. 7 and 2-6 cross-checks).
struct PieceEvent {
  double time = 0.0;
  wire::PieceIndex piece = 0;
};

/// Everything the local peer learned about one remote peer.
struct RemotePeerRecord {
  peer::PeerId id = peer::kNoPeer;

  // --- interval accumulators (seconds) -----------------------------------
  double time_in_set = 0.0;          ///< total time in the local peer set
  /// Denominator b (= d): remote in peer set, local in leecher state,
  /// remote itself a leecher (paper Fig. 1 is leecher-to-leecher only).
  double time_in_set_leecher = 0.0;
  double local_interested_leecher = 0.0;   ///< numerator a
  double remote_interested_leecher = 0.0;  ///< numerator c
  /// While the local peer is a seed (Fig. 10 bottom):
  double time_in_set_seed = 0.0;
  double remote_interested_seed = 0.0;

  // --- counters -----------------------------------------------------------
  std::uint32_t unchokes_leecher = 0;  ///< times we unchoked it (leecher)
  std::uint32_t unchokes_seed = 0;     ///< times we unchoked it (seed)
  std::uint64_t up_bytes_leecher = 0;
  std::uint64_t up_bytes_seed = 0;
  std::uint64_t down_bytes_from_leecher = 0;  ///< excludes its seed period
  std::uint64_t down_bytes_from_seed = 0;

  /// Pieces we believe the remote holds (bitfield + HAVEs).
  std::uint32_t remote_pieces = 0;
  bool remote_is_seed = false;
  bool ever_remote_seed = false;

  [[nodiscard]] std::uint64_t down_bytes() const {
    return down_bytes_from_leecher + down_bytes_from_seed;
  }
  [[nodiscard]] std::uint64_t up_bytes() const {
    return up_bytes_leecher + up_bytes_seed;
  }
};

/// Per-remote records in ascending remote-id order.
using RemoteRecords = PeerTable<RemotePeerRecord>;

/// Counts per wire message type, each direction, keyed by
/// wire::message_name(); only the types seen appear.
struct MessageCounters {
  std::map<std::string, std::uint64_t> sent;
  std::map<std::string, std::uint64_t> received;
};

/// The instrumented-client log.
class LocalPeerLog final : public peer::PeerObserver {
 public:
  explicit LocalPeerLog(std::uint32_t num_pieces)
      : num_pieces_(num_pieces) {}

  // --- PeerObserver ---------------------------------------------------------
  void on_start(sim::SimTime t) override;
  void on_stop(sim::SimTime t) override;
  void on_peer_joined(sim::SimTime t, peer::PeerId remote) override;
  void on_peer_left(sim::SimTime t, peer::PeerId remote) override;
  void on_message_sent(sim::SimTime t, peer::PeerId to,
                       const wire::Message& msg) override;
  void on_message_received(sim::SimTime t, peer::PeerId from,
                           const wire::Message& msg) override;
  void on_interest_change(sim::SimTime t, peer::PeerId remote,
                          bool interested) override;
  void on_remote_interest_change(sim::SimTime t, peer::PeerId remote,
                                 bool interested) override;
  void on_local_choke_change(sim::SimTime t, peer::PeerId remote,
                             bool unchoked) override;
  void on_remote_choke_change(sim::SimTime t, peer::PeerId remote,
                              bool unchoked) override;
  void on_block_received(sim::SimTime t, peer::PeerId from,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_block_uploaded(sim::SimTime t, peer::PeerId to,
                         wire::BlockRef block, std::uint32_t bytes) override;
  void on_piece_complete(sim::SimTime t, wire::PieceIndex piece) override;
  void on_end_game(sim::SimTime t) override;
  void on_became_seed(sim::SimTime t) override;

  // --- queries ------------------------------------------------------------
  /// Flushes interval accumulators up to `t` (call before reading records
  /// mid-run; analyzers call it with the final time).
  void finalize(double t);

  [[nodiscard]] const RemoteRecords& records() const { return records_; }
  [[nodiscard]] const std::vector<PieceEvent>& piece_events() const {
    return piece_events_;
  }
  [[nodiscard]] const std::vector<BlockEvent>& block_events() const {
    return block_events_;
  }
  /// Builds the name-keyed view of the per-type message counts.
  [[nodiscard]] MessageCounters message_counters() const;
  [[nodiscard]] double start_time() const { return start_time_; }
  /// Time the local peer became a seed; -1 if it never completed.
  [[nodiscard]] double seed_time() const { return seed_time_; }
  /// Time end game mode engaged; -1 if never.
  [[nodiscard]] double end_game_time() const { return end_game_time_; }
  [[nodiscard]] bool local_is_seed() const { return local_seed_; }

 private:
  struct LiveState {
    bool in_set = false;
    bool local_interested = false;
    bool remote_interested = false;
    double last_flush = 0.0;
  };

  RemotePeerRecord& record(peer::PeerId id);
  LiveState& live(peer::PeerId id);
  /// Accrues interval time for remote `id` (live state `s`) up to `t`.
  void flush(peer::PeerId id, LiveState& s, double t);
  void flush_all(double t);
  void note_remote_pieces(peer::PeerId id, std::uint32_t new_count, double t);

  /// Message counts indexed by wire::Message::index().
  using MessageTally =
      std::array<std::uint64_t, std::variant_size_v<wire::Message>>;

  std::uint32_t num_pieces_;
  RemoteRecords records_;
  PeerTable<LiveState> live_;
  std::vector<PieceEvent> piece_events_;
  std::vector<BlockEvent> block_events_;
  MessageTally sent_{};
  MessageTally received_{};
  double start_time_ = -1.0;
  double seed_time_ = -1.0;
  double end_game_time_ = -1.0;
  bool local_seed_ = false;
};

}  // namespace swarmlab::instrument
