#include "peer/upload_servicer.h"

#include <algorithm>

#include "net/network.h"
#include "peer/fabric.h"
#include "peer/observer.h"
#include "peer/super_seed_policy.h"

namespace swarmlab::peer {

namespace {

/// Upload requests queued behind the in-flight block are bounded; extra
/// requests are dropped (the remote re-requests after its own timeout /
/// choke cycle — in practice the pipeline depth keeps queues tiny).
constexpr std::size_t kMaxUploadQueue = 256;

}  // namespace

void UploadServicer::handle_request(Connection& conn,
                                    const wire::RequestMsg& msg) {
  if (ctx_.cfg.free_rider) return;  // never serves anyone
  if (conn.am_choking) {
    // Fast Extension: requests that will not be served are rejected
    // explicitly so the requester can re-route without waiting.
    if (ctx_.cfg.params.fast_extension) {
      ctx_.send(conn.remote,
                wire::RejectRequestMsg{msg.piece, msg.begin, msg.length});
    }
    return;  // stale request
  }
  if (msg.piece >= ctx_.geo.num_pieces()) return;
  if (!ctx_.have.has(msg.piece)) return;
  if (mods_.super_seed != nullptr &&
      !mods_.super_seed->allows_request(conn.remote, msg.piece)) {
    return;  // piece not offered to this peer yet
  }
  if (msg.begin % ctx_.geo.block_size() != 0) return;
  const wire::BlockRef block{msg.piece, ctx_.geo.block_at_offset(msg.begin)};
  if (block.block >= ctx_.geo.blocks_in_piece(msg.piece)) return;
  if (msg.length != ctx_.geo.block_bytes(block)) return;
  if (conn.upload_queue.size() >= kMaxUploadQueue) return;
  conn.upload_queue.push_back(QueuedRequest{block, msg.length});
  if (conn.upload_flow == 0) start_next_upload(conn);
}

void UploadServicer::handle_cancel(Connection& conn,
                                   const wire::CancelMsg& msg) {
  const wire::BlockRef block{msg.piece, ctx_.geo.block_at_offset(msg.begin)};
  auto& q = conn.upload_queue;
  q.erase(std::remove_if(
              q.begin(), q.end(),
              [&](const QueuedRequest& r) { return r.block == block; }),
          q.end());
  // An in-flight block is not aborted (it is already in the TCP pipe).
}

void UploadServicer::start_next_upload(Connection& conn) {
  while (!conn.upload_queue.empty()) {
    const QueuedRequest req = conn.upload_queue.front();
    conn.upload_queue.erase(conn.upload_queue.begin());
    conn.upload_flow = ctx_.fabric.send_block(ctx_.cfg.id, conn.remote,
                                              req.block);
    if (conn.upload_flow != 0) {
      conn.upload_in_flight = req.block;
      return;
    }
  }
}

void UploadServicer::on_block_sent(Connection& conn, wire::BlockRef block,
                                   std::uint32_t bytes) {
  conn.upload_flow = 0;
  conn.upload_rate.add(ctx_.now(), bytes);
  uploaded_ += bytes;
  if (ctx_.observer != nullptr) {
    ctx_.observer->on_block_uploaded(ctx_.now(), conn.remote, block, bytes);
  }
  start_next_upload(conn);
}

void UploadServicer::on_disconnect(Connection& conn) {
  if (conn.upload_flow != 0) {
    ctx_.fabric.network().cancel_flow(conn.upload_flow);
    conn.upload_flow = 0;
  }
}

void UploadServicer::recover_wedged_upload(Connection& conn) {
  if (conn.upload_flow != 0 &&
      !ctx_.fabric.network().has_flow(conn.upload_flow)) {
    conn.upload_flow = 0;
    start_next_upload(conn);
  }
}

}  // namespace swarmlab::peer
