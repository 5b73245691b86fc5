// Per-remote-peer connection state, one instance per entry in the local
// peer set. Both endpoints hold their own Connection for the same link.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bitfield.h"
#include "net/types.h"
#include "peer/types.h"
#include "stats/rate_estimator.h"
#include "wire/geometry.h"

namespace swarmlab::peer {

/// A queued upload request (mirrors wire::RequestMsg).
struct QueuedRequest {
  wire::BlockRef block;
  std::uint32_t bytes = 0;
};

/// The local peer's view of one remote peer.
struct Connection {
  PeerId remote = kNoPeer;
  bool initiated_by_us = false;
  /// When the connection was established (drives the optimistic-unchoke
  /// bootstrap bias for new peers).
  double connected_at = 0.0;

  /// What the remote peer has (from its bitfield + HAVEs).
  core::Bitfield remote_have;

  /// Pieces the remote has that the local peer lacks, maintained
  /// incrementally (interest holds iff missing_count > 0). Avoids an
  /// O(pieces) bitfield scan on every HAVE.
  std::uint32_t missing_count = 0;

  // --- the four protocol flags (paper §II-A) ---
  bool am_choking = true;       ///< we choke them
  bool am_interested = false;   ///< we are interested in them
  bool peer_choking = true;     ///< they choke us
  bool peer_interested = false; ///< they are interested in us

  /// When we last unchoked them (-1 = never); drives the new seed-state
  /// choke ordering.
  double last_unchoke_time = -1.0;

  // --- liveness (only consulted when params.liveness_timers is on) ---
  /// When we last heard anything from them (any message; set to the
  /// connect time on establishment).
  double last_seen = -1.0;
  /// When we last sent them anything (drives keepalive sends).
  double last_sent = -1.0;
  /// When this link last hit the request timeout (-1: never); a recently
  /// timed-out link is skipped by fill_requests so the freed blocks go to
  /// other peers first. Cleared when a block arrives.
  double last_request_timeout = -1.0;

  // --- rate estimation (mainline: trailing 20 s window) ---
  stats::RateEstimator download_rate{20.0};  ///< bytes they send us
  stats::RateEstimator upload_rate{20.0};    ///< bytes we send them

  // --- download side ---
  /// Blocks we requested from them and have not yet received/cancelled.
  std::vector<wire::BlockRef> outstanding;
  /// When the last block arrived from them (-1: never); drives the
  /// anti-snubbing check.
  double last_block_time = -1.0;
  /// When we last sent them a request (reference point for snubbing when
  /// no block has arrived yet).
  double last_request_time = -1.0;

  // --- upload side ---
  /// Requests received from them, waiting behind the in-flight block, in
  /// arrival order. Bounded by the servicer and a few entries in practice,
  /// so popping the front is a short move.
  std::vector<QueuedRequest> upload_queue;
  /// The block currently being transferred to them (0 = none).
  net::FlowId upload_flow = 0;
  wire::BlockRef upload_in_flight{};

  [[nodiscard]] bool has_outstanding(wire::BlockRef b) const {
    for (const auto& r : outstanding) {
      if (r == b) return true;
    }
    return false;
  }
};

/// The local peer set: an ascending vector of remote ids and a parallel
/// vector owning each id's Connection. Memory and walks grow with the peer
/// set (at most max_peer_set entries), not with the PeerId space. find() is
/// a binary search; iteration visits connections in ascending remote id,
/// which choke rounds and broadcasts rely on for deterministic replay.
///
/// Connections are heap-allocated, so a Connection* stays valid across
/// inserts and erases of other entries. erase() nulls the entry in place,
/// so erasing during iteration is safe; the next insert() compacts the
/// nulled entries away. Inserting during iteration is not safe.
class ConnectionTable {
 public:
  [[nodiscard]] Connection* find(PeerId remote) {
    const std::size_t i = index_of(remote);
    return i < ids_.size() ? conns_[i].get() : nullptr;
  }
  [[nodiscard]] const Connection* find(PeerId remote) const {
    const std::size_t i = index_of(remote);
    return i < ids_.size() ? conns_[i].get() : nullptr;
  }
  [[nodiscard]] bool contains(PeerId remote) const {
    return find(remote) != nullptr;
  }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// The live remote ids, ascending.
  [[nodiscard]] std::vector<PeerId> remotes() const {
    if (count_ == ids_.size()) return ids_;
    std::vector<PeerId> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (conns_[i] != nullptr) out.push_back(ids_[i]);
    }
    return out;
  }

  /// Takes ownership of `conn` (keyed by conn.remote, which must not
  /// already be present). The returned reference is stable for the
  /// connection's lifetime.
  Connection& insert(Connection conn) {
    assert(conn.remote >= 1 && !contains(conn.remote));
    compact();
    const auto pos = std::lower_bound(ids_.begin(), ids_.end(), conn.remote);
    const auto at = pos - ids_.begin();
    ids_.insert(pos, conn.remote);
    const auto slot = conns_.insert(conns_.begin() + at,
                                    std::make_unique<Connection>(
                                        std::move(conn)));
    ++count_;
    return **slot;
  }

  /// Returns true if `remote` was present.
  bool erase(PeerId remote) {
    const std::size_t i = index_of(remote);
    if (i == ids_.size() || conns_[i] == nullptr) return false;
    conns_[i].reset();
    --count_;
    return true;
  }

  template <bool Const>
  class Iter {
    using Table = std::conditional_t<Const, const ConnectionTable,
                                     ConnectionTable>;
    using Ref = std::conditional_t<Const, const Connection&, Connection&>;

   public:
    Iter(Table* table, std::size_t idx) : table_(table), idx_(idx) { skip(); }
    Ref operator*() const { return *table_->conns_[idx_]; }
    Iter& operator++() {
      ++idx_;
      skip();
      return *this;
    }
    bool operator!=(const Iter& other) const { return idx_ != other.idx_; }

   private:
    void skip() {
      while (idx_ < table_->conns_.size() &&
             table_->conns_[idx_] == nullptr) {
        ++idx_;
      }
    }
    Table* table_;
    std::size_t idx_;
  };

  [[nodiscard]] Iter<false> begin() { return {this, 0}; }
  [[nodiscard]] Iter<false> end() { return {this, conns_.size()}; }
  [[nodiscard]] Iter<true> begin() const { return {this, 0}; }
  [[nodiscard]] Iter<true> end() const { return {this, conns_.size()}; }

 private:
  /// Index of `remote` in ids_, or ids_.size() when absent.
  [[nodiscard]] std::size_t index_of(PeerId remote) const {
    const auto pos = std::lower_bound(ids_.begin(), ids_.end(), remote);
    return pos != ids_.end() && *pos == remote
               ? static_cast<std::size_t>(pos - ids_.begin())
               : ids_.size();
  }

  /// Drops the entries erase() nulled.
  void compact() {
    if (count_ == ids_.size()) return;
    std::size_t out = 0;
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (conns_[i] == nullptr) continue;
      ids_[out] = ids_[i];
      conns_[out] = std::move(conns_[i]);
      ++out;
    }
    ids_.resize(out);
    conns_.resize(out);
  }

  std::vector<PeerId> ids_;  // ascending
  std::vector<std::unique_ptr<Connection>> conns_;  // null once erased
  std::size_t count_ = 0;
};

}  // namespace swarmlab::peer
