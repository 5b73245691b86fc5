// ChokeMarketLog and RandomRotationChoker tests.
#include <gtest/gtest.h>

#include "core/choker.h"
#include "instrument/choke_market.h"
#include "sim/rng.h"

namespace swarmlab {
namespace {

TEST(ChokeMarketLog, TenureCountsConsecutiveRounds) {
  instrument::ChokeMarketLog log;
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_peer_joined(0.0, 2);
  // Peer 1 unchoked for 3 rounds, then dropped; peer 2 for 1 round.
  log.on_choke_round(10.0, false, {1});
  log.on_choke_round(20.0, false, {1, 2});
  log.on_choke_round(30.0, false, {1});
  log.on_choke_round(40.0, false, {});
  const auto stats = log.finalize(50.0);
  EXPECT_EQ(stats.rounds, 4u);
  EXPECT_EQ(stats.slot_rounds, 4u);
  ASSERT_EQ(stats.tenures.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.max_tenure, 3.0);
  EXPECT_DOUBLE_EQ(stats.mean_tenure, 2.0);
}

TEST(ChokeMarketLog, OpenTenureClosedAtFinalize) {
  instrument::ChokeMarketLog log;
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_choke_round(10.0, false, {1});
  log.on_choke_round(20.0, false, {1});
  const auto stats = log.finalize(30.0);
  ASSERT_EQ(stats.tenures.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.tenures[0], 2.0);
}

TEST(ChokeMarketLog, MutualityTracksRemoteUnchokes) {
  instrument::ChokeMarketLog log;
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_peer_joined(0.0, 2);
  log.on_remote_choke_change(5.0, 1, true);  // peer 1 unchokes us
  log.on_choke_round(10.0, false, {1, 2});   // we unchoke both
  const auto stats = log.finalize(20.0);
  EXPECT_EQ(stats.slot_rounds, 2u);
  EXPECT_DOUBLE_EQ(stats.mutuality, 0.5);  // only peer 1 was mutual
  // Null model: peer 1 unchoked us for 15 of its 20 s in set, peer 2
  // never -> (15 + 0) / (20 + 20).
  EXPECT_NEAR(stats.null_mutuality, 15.0 / 40.0, 1e-9);
}

TEST(ChokeMarketLog, SeedStateRoundsExcluded) {
  instrument::ChokeMarketLog log;
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_choke_round(10.0, true, {1});  // seed state: ignored
  log.on_became_seed(15.0);
  log.on_choke_round(20.0, true, {1});
  const auto stats = log.finalize(30.0);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.slot_rounds, 0u);
}

TEST(ChokeMarketLog, PeerDepartureClosesTenure) {
  instrument::ChokeMarketLog log;
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_choke_round(10.0, false, {1});
  log.on_peer_left(15.0, 1);
  const auto stats = log.finalize(30.0);
  ASSERT_EQ(stats.tenures.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.tenures[0], 1.0);
}

TEST(ChokeMarketLog, RoundsSkipDepartedAndUnknownRemotes) {
  instrument::ChokeMarketLog log;
  log.on_start(0.0);
  log.on_peer_joined(0.0, 3);
  log.on_peer_joined(0.0, 1);
  log.on_peer_left(5.0, 3);
  // Selecting a departed or never-seen remote holds no slot.
  log.on_choke_round(10.0, false, {1, 3, 8});
  log.on_peer_joined(12.0, 3);
  log.on_choke_round(20.0, false, {3});
  log.on_choke_round(30.0, false, {3});
  const auto stats = log.finalize(40.0);
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.slot_rounds, 3u);
  // Peer 1's spell ends at round 2; peer 3's is closed by finalize.
  EXPECT_EQ(stats.tenures, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(stats.mutuality, 0.0);  // nobody unchoked us
}

TEST(RandomRotationChoker, DrawsOnlyInterestedUpToSlots) {
  core::ProtocolParams params;
  core::RandomRotationChoker choker(params);
  sim::Rng rng(3);
  std::vector<core::ChokeCandidate> cs;
  for (core::PeerKey k = 1; k <= 10; ++k) {
    core::ChokeCandidate c;
    c.key = k;
    c.interested = k % 2 == 0;  // 5 interested
    cs.push_back(c);
  }
  for (std::uint64_t round = 0; round < 20; ++round) {
    const auto sel = choker.select(cs, round, rng);
    EXPECT_LE(sel.size(), params.active_set_size);
    for (const core::PeerKey k : sel) EXPECT_EQ(k % 2, 0u);
  }
}

TEST(RandomRotationChoker, RotatesAcrossRounds) {
  core::ProtocolParams params;
  core::RandomRotationChoker choker(params);
  sim::Rng rng(3);
  std::vector<core::ChokeCandidate> cs;
  for (core::PeerKey k = 1; k <= 20; ++k) {
    core::ChokeCandidate c;
    c.key = k;
    c.interested = true;
    cs.push_back(c);
  }
  std::set<core::PeerKey> seen;
  for (std::uint64_t round = 0; round < 40; ++round) {
    for (const core::PeerKey k : choker.select(cs, round, rng)) {
      seen.insert(k);
    }
  }
  EXPECT_GT(seen.size(), 15u);  // nearly everyone gets a turn
}

TEST(RandomRotationChoker, FactorySelectsIt) {
  core::ProtocolParams params;
  params.leecher_choker = core::LeecherChokerKind::kRandomRotation;
  EXPECT_NE(dynamic_cast<core::RandomRotationChoker*>(
                core::make_leecher_choker(params).get()),
            nullptr);
}

}  // namespace
}  // namespace swarmlab
