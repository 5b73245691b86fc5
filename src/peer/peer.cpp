#include "peer/peer.h"

#include <cassert>
#include <utility>

#include "peer/choke_driver.h"
#include "peer/download_scheduler.h"
#include "peer/fabric.h"
#include "peer/interest_tracker.h"
#include "peer/observer.h"
#include "peer/peer_set_manager.h"
#include "peer/super_seed_policy.h"
#include "peer/upload_servicer.h"
#include "sim/simulation.h"

namespace swarmlab::peer {

Peer::Peer(Fabric& fabric, const wire::ContentGeometry& geometry,
           PeerConfig cfg, PeerObserver* observer)
    : ctx_(fabric, geometry, std::move(cfg), observer) {
  download_ = std::make_unique<DownloadScheduler>(ctx_, mods_);
  upload_ = std::make_unique<UploadServicer>(ctx_, mods_);
  interest_ = std::make_unique<InterestTracker>(ctx_, mods_);
  choke_ = std::make_unique<ChokeDriver>(ctx_, mods_);
  peer_set_ = std::make_unique<PeerSetManager>(ctx_, mods_);
  if (ctx_.cfg.params.super_seeding && ctx_.have.complete()) {
    super_seed_ = std::make_unique<SuperSeedPolicy>(ctx_, mods_);
  }
  mods_.download = download_.get();
  mods_.upload = upload_.get();
  mods_.interest = interest_.get();
  mods_.choke = choke_.get();
  mods_.peer_set = peer_set_.get();
  mods_.super_seed = super_seed_.get();
}

Peer::~Peer() = default;

std::vector<std::uint8_t> Peer::read_block(wire::BlockRef block) const {
  assert(ctx_.store != nullptr && ctx_.have.has(block.piece));
  return ctx_.store->read_block(block);
}

std::vector<PeerId> Peer::connected_peers() const {
  return ctx_.conns.remotes();
}

// --- delegated queries -----------------------------------------------------

std::size_t Peer::initiated_connections() const {
  return peer_set_->initiated_connections();
}
bool Peer::in_end_game() const { return download_->in_end_game(); }
std::uint64_t Peer::total_uploaded() const {
  return upload_->total_uploaded();
}
std::uint64_t Peer::total_downloaded() const {
  return download_->total_downloaded();
}
std::uint64_t Peer::corrupted_pieces() const {
  return download_->corrupted_pieces();
}
std::uint64_t Peer::ghosts_evicted() const {
  return peer_set_->ghosts_evicted();
}
std::uint64_t Peer::timed_out_requests() const {
  return download_->timed_out_requests();
}
std::uint64_t Peer::announce_failures() const {
  return peer_set_->announce_failures();
}

// --- lifecycle -------------------------------------------------------------

void Peer::start() {
  assert(!ctx_.started);
  ctx_.started = true;
  ctx_.start_time = ctx_.now();
  if (ctx_.observer != nullptr) ctx_.observer->on_start(ctx_.start_time);
  if (is_seed()) {
    // An initial seed is in seed state from its first instant.
    ctx_.completion_time = ctx_.start_time;
    if (ctx_.observer != nullptr) {
      ctx_.observer->on_became_seed(ctx_.start_time);
    }
  }
  peer_set_->start();
  choke_->start();
  if (ctx_.cfg.params.liveness_timers) peer_set_->start_liveness();
}

void Peer::stop() {
  if (!ctx_.started || ctx_.stopped) return;
  ctx_.stopped = true;
  choke_->cancel();
  peer_set_->cancel_timers();
  peer_set_->announce(AnnounceEvent::kStopped);
  // Disconnect everything; fabric calls back into on_disconnected.
  const std::vector<PeerId> remotes = connected_peers();
  for (const PeerId r : remotes) ctx_.fabric.disconnect(ctx_.cfg.id, r);
  if (ctx_.observer != nullptr) ctx_.observer->on_stop(ctx_.now());
}

void Peer::crash() {
  if (!ctx_.started || ctx_.stopped) return;
  ctx_.stopped = true;
  choke_->cancel();
  peer_set_->cancel_timers();
  // Deliberately NO Stopped announce and NO disconnects: the tracker
  // keeps our entry until its member expiry, and every remote peer keeps
  // a ghost Connection until its silence timeout evicts it.
  if (ctx_.observer != nullptr) ctx_.observer->on_stop(ctx_.now());
}

// --- connections ------------------------------------------------------------

bool Peer::accepts_connection(PeerId from) const {
  return peer_set_->accepts_connection(from);
}

void Peer::on_connected(PeerId remote, bool initiated_by_us) {
  peer_set_->on_connected(remote, initiated_by_us);
}

void Peer::on_disconnected(PeerId remote) {
  Connection* found = ctx_.conns.find(remote);
  if (found == nullptr) return;
  Connection& conn = *found;
  download_->on_disconnect(conn);
  upload_->on_disconnect(conn);
  interest_->on_disconnect(conn);
  if (super_seed_ != nullptr) super_seed_->on_disconnect(remote);
  download_->clear_exclusive_source(remote);
  ctx_.conns.erase(remote);
  if (ctx_.observer != nullptr) ctx_.observer->on_peer_left(ctx_.now(), remote);
  if (active()) peer_set_->maybe_refill_peer_set();
}

// --- messages ---------------------------------------------------------------

void Peer::handle_message(PeerId from, const wire::Message& msg) {
  if (!active()) return;
  Connection* conn = ctx_.conns.find(from);
  if (conn == nullptr) return;  // stale delivery after disconnect
  conn->last_seen = ctx_.now();
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_message_received(ctx_.now(), from, msg);
  }

  if (const auto* m = std::get_if<wire::BitfieldMsg>(&msg)) {
    interest_->handle_bitfield(*conn, *m);
  } else if (const auto* m = std::get_if<wire::HaveMsg>(&msg)) {
    interest_->handle_have(*conn, *m);
  } else if (std::get_if<wire::InterestedMsg>(&msg) != nullptr) {
    choke_->handle_interested(*conn, true);
  } else if (std::get_if<wire::NotInterestedMsg>(&msg) != nullptr) {
    choke_->handle_interested(*conn, false);
  } else if (std::get_if<wire::ChokeMsg>(&msg) != nullptr) {
    download_->handle_choke(*conn, true);
  } else if (std::get_if<wire::UnchokeMsg>(&msg) != nullptr) {
    download_->handle_choke(*conn, false);
  } else if (const auto* m = std::get_if<wire::RequestMsg>(&msg)) {
    upload_->handle_request(*conn, *m);
  } else if (const auto* m = std::get_if<wire::CancelMsg>(&msg)) {
    upload_->handle_cancel(*conn, *m);
  } else if (const auto* m = std::get_if<wire::PieceMsg>(&msg)) {
    download_->handle_block(*conn, *m);
  } else if (std::get_if<wire::HaveAllMsg>(&msg) != nullptr) {
    // Fast Extension: equivalent to an all-ones bitfield.
    wire::BitfieldMsg full;
    full.bits.assign(ctx_.geo.num_pieces(), true);
    interest_->handle_bitfield(*conn, full);
  } else if (std::get_if<wire::HaveNoneMsg>(&msg) != nullptr) {
    wire::BitfieldMsg none;
    none.bits.assign(ctx_.geo.num_pieces(), false);
    interest_->handle_bitfield(*conn, none);
  } else if (const auto* m = std::get_if<wire::RejectRequestMsg>(&msg)) {
    download_->handle_reject(*conn, *m);
  }
  // KeepAliveMsg carries no payload: its receipt already refreshed
  // conn->last_seen above, which is all the liveness machinery needs
  // (see PeerSetManager::run_liveness_tick). SuggestPiece/AllowedFast:
  // received gracefully (logged via the observer) but not acted upon —
  // the simulator has no web-seed caches and models no choked
  // fast-allowed downloads.
}

void Peer::on_block_sent(PeerId to, wire::BlockRef block,
                         std::uint32_t bytes) {
  Connection* conn = ctx_.conns.find(to);
  if (conn == nullptr) return;
  upload_->on_block_sent(*conn, block, bytes);
}

}  // namespace swarmlab::peer
