// Fast Extension (BEP 6) peer behaviour: have_all/have_none
// announcements and explicit request rejection.
#include <gtest/gtest.h>

#include "instrument/local_log.h"
#include "swarm/swarm.h"

namespace swarmlab {
namespace {

using peer::PeerConfig;
using peer::PeerId;

struct Harness {
  explicit Harness(std::uint32_t pieces = 8, std::uint64_t seed = 1)
      : sim(seed),
        geo(std::uint64_t{pieces} * 256 * 1024, 256 * 1024, 16 * 1024),
        swarm(sim, geo) {}

  PeerId add(PeerConfig cfg, peer::PeerObserver* obs = nullptr) {
    cfg.params.fast_extension = true;
    const PeerId id = swarm.add_peer(std::move(cfg), obs);
    swarm.start_peer(id);
    return id;
  }

  sim::Simulation sim;
  wire::ContentGeometry geo;
  swarm::Swarm swarm;
};

TEST(FastBehavior, SeedAnnouncesWithHaveAll) {
  Harness h;
  PeerConfig s;
  s.start_complete = true;
  s.upload_capacity = 50e3;
  const PeerId sid = h.add(std::move(s));
  instrument::LocalPeerLog log(8);
  PeerConfig l;
  l.upload_capacity = 50e3;
  const PeerId lid = h.add(std::move(l), &log);
  h.sim.run_until(5.0);
  EXPECT_GE(log.message_counters().received.at("have_all"), 1u);
  EXPECT_EQ(log.message_counters().received.count("bitfield"), 0u);
  // The have_all produced a complete remote view.
  const peer::Connection* conn =
      h.swarm.find_peer(lid)->connection(sid);
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->remote_have.complete());
  // The log counts the announcement too: the seed's bytes are seed bytes.
  const instrument::RemotePeerRecord& r = log.records().at(sid);
  EXPECT_TRUE(r.remote_is_seed);
  EXPECT_GT(r.down_bytes_from_seed, 0u);
  EXPECT_EQ(r.down_bytes_from_leecher, 0u);
}

TEST(FastBehavior, EmptyPeerAnnouncesWithHaveNone) {
  Harness h;
  instrument::LocalPeerLog log(8);
  PeerConfig a;
  a.upload_capacity = 50e3;
  h.add(std::move(a), &log);
  PeerConfig b;
  b.upload_capacity = 50e3;
  h.add(std::move(b));
  h.sim.run_until(5.0);
  EXPECT_GE(log.message_counters().received.at("have_none"), 1u);
}

TEST(FastBehavior, ChokedRequestIsRejectedExplicitly) {
  Harness h;
  PeerConfig s;
  s.start_complete = true;
  s.upload_capacity = 50e3;
  const PeerId sid = h.add(std::move(s));
  instrument::LocalPeerLog log(8);
  PeerConfig l;
  l.upload_capacity = 50e3;
  const PeerId lid = h.add(std::move(l), &log);
  h.sim.run_until(1.0);  // connected, not yet unchoked
  peer::Peer* seed = h.swarm.find_peer(sid);
  ASSERT_TRUE(seed->connection(lid)->am_choking);
  // A (stale) request while choked draws a reject, not silence.
  seed->handle_message(lid, wire::RequestMsg{0, 0, 16384});
  h.sim.run_until(2.0);
  EXPECT_GE(log.message_counters().received.at("reject_request"), 1u);
}

TEST(FastBehavior, RejectReleasesTheBlockForOtherPeers) {
  Harness h;
  PeerConfig s;
  s.start_complete = true;
  s.upload_capacity = 5e3;  // slow: requests outstanding for a while
  const PeerId sid = h.add(std::move(s));
  PeerConfig l;
  l.upload_capacity = 50e3;
  const PeerId lid = h.add(std::move(l));
  h.sim.run_until(30.0);  // unchoked, pipeline full
  peer::Peer* leecher = h.swarm.find_peer(lid);
  const peer::Connection* conn = leecher->connection(sid);
  ASSERT_NE(conn, nullptr);
  ASSERT_FALSE(conn->outstanding.empty());
  const wire::BlockRef pending = conn->outstanding.front();
  const std::size_t before = conn->outstanding.size();
  leecher->handle_message(
      sid, wire::RejectRequestMsg{pending.piece,
                                  pending.block * h.geo.block_size(),
                                  h.geo.block_bytes(pending)});
  // The slot was freed and immediately refilled (with one source the
  // same block is legitimately re-requested — the point is that the
  // pipeline never leaks a slot and never duplicates an entry).
  EXPECT_EQ(conn->outstanding.size(), before);
  std::size_t copies = 0;
  for (const auto& b : conn->outstanding) {
    if (b == pending) ++copies;
  }
  EXPECT_LE(copies, 1u);
}

TEST(FastBehavior, SuggestAndAllowedFastAreTolerated) {
  Harness h;
  PeerConfig a;
  a.upload_capacity = 50e3;
  const PeerId aid = h.add(std::move(a));
  PeerConfig b;
  b.upload_capacity = 50e3;
  const PeerId bid = h.add(std::move(b));
  h.sim.run_until(1.0);
  peer::Peer* pa = h.swarm.find_peer(aid);
  pa->handle_message(bid, wire::SuggestPieceMsg{3});
  pa->handle_message(bid, wire::AllowedFastMsg{2});
  h.sim.run_until(10.0);
  EXPECT_TRUE(pa->active());
}

TEST(FastBehavior, SwarmCompletesWithFastExtension) {
  Harness h;
  PeerConfig s;
  s.start_complete = true;
  s.upload_capacity = 40e3;
  h.add(std::move(s));
  std::vector<PeerId> leechers;
  for (int i = 0; i < 4; ++i) {
    PeerConfig l;
    l.upload_capacity = 25e3;
    leechers.push_back(h.add(std::move(l)));
  }
  h.sim.run_until(10000.0);
  for (const PeerId id : leechers) {
    EXPECT_TRUE(h.swarm.find_peer(id)->is_seed());
  }
}

}  // namespace
}  // namespace swarmlab
