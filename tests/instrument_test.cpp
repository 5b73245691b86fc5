// Instrumentation tests: the LocalPeerLog interval accounting and the
// figure analyzers, driven directly (no swarm needed).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "instrument/analyzers.h"
#include "instrument/local_log.h"

namespace swarmlab::instrument {
namespace {

constexpr std::uint32_t kPieces = 10;

wire::Message bitfield_with(std::uint32_t count) {
  wire::BitfieldMsg msg;
  msg.bits.assign(kPieces, false);
  for (std::uint32_t i = 0; i < count; ++i) msg.bits[i] = true;
  return msg;
}

TEST(LocalPeerLog, AccruesPeerSetTime) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(10.0, 1);
  log.on_peer_left(25.0, 1);
  log.finalize(100.0);
  const auto& r = log.records().at(1);
  EXPECT_DOUBLE_EQ(r.time_in_set, 15.0);
  EXPECT_DOUBLE_EQ(r.time_in_set_leecher, 15.0);
}

TEST(LocalPeerLog, RejoinAccumulates) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_peer_left(10.0, 1);
  log.on_peer_joined(50.0, 1);
  log.on_peer_left(70.0, 1);
  log.finalize(100.0);
  EXPECT_DOUBLE_EQ(log.records().at(1).time_in_set, 30.0);
}

TEST(LocalPeerLog, InterestIntervalsGated) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_message_received(0.0, 1, bitfield_with(3));  // a leecher
  log.on_interest_change(10.0, 1, true);
  log.on_remote_interest_change(20.0, 1, true);
  log.on_interest_change(30.0, 1, false);
  log.on_peer_left(50.0, 1);
  log.finalize(100.0);
  const auto& r = log.records().at(1);
  EXPECT_DOUBLE_EQ(r.local_interested_leecher, 20.0);   // a: 10..30
  EXPECT_DOUBLE_EQ(r.remote_interested_leecher, 30.0);  // c: 20..50
  EXPECT_DOUBLE_EQ(r.time_in_set_leecher, 50.0);        // b
}

TEST(LocalPeerLog, SeedTransitionSplitsBuckets) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_message_received(0.0, 1, bitfield_with(2));
  log.on_remote_interest_change(0.0, 1, true);
  log.on_became_seed(40.0);
  log.finalize(100.0);
  const auto& r = log.records().at(1);
  EXPECT_DOUBLE_EQ(r.time_in_set_leecher, 40.0);
  EXPECT_DOUBLE_EQ(r.remote_interested_leecher, 40.0);
  EXPECT_DOUBLE_EQ(r.time_in_set_seed, 60.0);
  EXPECT_DOUBLE_EQ(r.remote_interested_seed, 60.0);
}

TEST(LocalPeerLog, RemoteSeedExcludedFromLeecherBuckets) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_message_received(5.0, 1, bitfield_with(kPieces));  // a seed
  log.on_interest_change(5.0, 1, true);
  log.on_peer_left(50.0, 1);
  log.finalize(100.0);
  const auto& r = log.records().at(1);
  // Only the 5 s before the bitfield counts as leecher-leecher time.
  EXPECT_DOUBLE_EQ(r.time_in_set_leecher, 5.0);
  EXPECT_DOUBLE_EQ(r.local_interested_leecher, 0.0);
  EXPECT_TRUE(r.ever_remote_seed);
  EXPECT_DOUBLE_EQ(r.time_in_set, 50.0);
}

TEST(LocalPeerLog, RemoteBecomesSeedViaHaves) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_message_received(0.0, 1, bitfield_with(kPieces - 1));
  EXPECT_FALSE(log.records().at(1).remote_is_seed);
  log.on_message_received(20.0, 1, wire::Message{wire::HaveMsg{9}});
  EXPECT_TRUE(log.records().at(1).remote_is_seed);
  log.on_peer_left(50.0, 1);
  log.finalize(100.0);
  EXPECT_DOUBLE_EQ(log.records().at(1).time_in_set_leecher, 20.0);
}

TEST(LocalPeerLog, UnchokeCountsSplitByState) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_local_choke_change(1.0, 1, true);
  log.on_local_choke_change(2.0, 1, false);
  log.on_local_choke_change(3.0, 1, true);
  log.on_became_seed(10.0);
  log.on_local_choke_change(11.0, 1, true);
  log.finalize(20.0);
  EXPECT_EQ(log.records().at(1).unchokes_leecher, 2u);
  EXPECT_EQ(log.records().at(1).unchokes_seed, 1u);
}

TEST(LocalPeerLog, BytesSplitByStateAndRemoteRole) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_message_received(0.0, 1, bitfield_with(2));
  log.on_block_received(1.0, 1, {0, 0}, 100);  // from a leecher
  log.on_message_received(2.0, 1, bitfield_with(kPieces));
  log.on_block_received(3.0, 1, {1, 0}, 200);  // now a seed
  log.on_block_uploaded(4.0, 1, {0, 0}, 300);  // we are a leecher
  log.on_became_seed(5.0);
  log.on_block_uploaded(6.0, 1, {0, 1}, 400);  // we are a seed
  log.finalize(10.0);
  const auto& r = log.records().at(1);
  EXPECT_EQ(r.down_bytes_from_leecher, 100u);
  EXPECT_EQ(r.down_bytes_from_seed, 200u);
  EXPECT_EQ(r.up_bytes_leecher, 300u);
  EXPECT_EQ(r.up_bytes_seed, 400u);
}

TEST(LocalPeerLog, EventLogsOrdered) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_piece_complete(5.0, 3);
  log.on_piece_complete(9.0, 1);
  log.on_end_game(12.0);
  EXPECT_EQ(log.piece_events().size(), 2u);
  EXPECT_EQ(log.piece_events()[0].piece, 3u);
  EXPECT_DOUBLE_EQ(log.end_game_time(), 12.0);
}

TEST(LocalPeerLog, FastExtensionAnnouncementsSetRemotePieces) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_message_received(0.0, 1, wire::Message{wire::HaveNoneMsg{}});
  EXPECT_EQ(log.records().at(1).remote_pieces, 0u);
  EXPECT_FALSE(log.records().at(1).remote_is_seed);
  log.on_peer_joined(0.0, 2);
  log.on_message_received(10.0, 2, wire::Message{wire::HaveAllMsg{}});
  log.on_block_received(11.0, 2, {0, 0}, 100);
  log.finalize(30.0);
  const RemotePeerRecord& seed = log.records().at(2);
  EXPECT_EQ(seed.remote_pieces, kPieces);
  EXPECT_TRUE(seed.remote_is_seed);
  EXPECT_EQ(seed.down_bytes_from_seed, 100u);
  EXPECT_DOUBLE_EQ(seed.time_in_set_leecher, 10.0);
  EXPECT_DOUBLE_EQ(log.records().at(1).time_in_set_leecher, 30.0);
}

TEST(LocalPeerLog, MessageCountersNameOnlySeenTypes) {
  LocalPeerLog log(kPieces);
  log.on_message_sent(0.0, 1, wire::Message{wire::InterestedMsg{}});
  log.on_message_sent(1.0, 1, wire::Message{wire::InterestedMsg{}});
  log.on_message_received(2.0, 1, wire::Message{wire::HaveMsg{3}});
  const MessageCounters mc = log.message_counters();
  EXPECT_EQ(mc.sent, (std::map<std::string, std::uint64_t>{{"interested", 2}}));
  EXPECT_EQ(mc.received, (std::map<std::string, std::uint64_t>{{"have", 1}}));
}

TEST(LocalPeerLog, RecordsIterateInAscendingIdOrder) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  for (const peer::PeerId id : {9u, 2u, 5u}) log.on_peer_joined(1.0, id);
  // Interest alone touches no record.
  log.on_interest_change(2.0, 7, true);
  std::vector<peer::PeerId> ids;
  for (const auto& [id, r] : log.records()) {
    EXPECT_EQ(r.id, id);
    ids.push_back(id);
  }
  EXPECT_EQ(ids, (std::vector<peer::PeerId>{2, 5, 9}));
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().find(7), nullptr);
  EXPECT_THROW((void)log.records().at(7), std::out_of_range);
}

// --- analyzers --------------------------------------------------------------

LocalPeerLog make_log_with_two_leechers() {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  // Peer 1: interested 80 of 100 s.
  log.on_peer_joined(0.0, 1);
  log.on_message_received(0.0, 1, bitfield_with(2));
  log.on_interest_change(0.0, 1, true);
  log.on_interest_change(80.0, 1, false);
  log.on_remote_interest_change(0.0, 1, true);
  // Peer 2: never interesting.
  log.on_peer_joined(0.0, 2);
  log.on_message_received(0.0, 2, bitfield_with(1));
  // Peer 3: too brief (under the 10 s filter).
  log.on_peer_joined(0.0, 3);
  log.on_peer_left(4.0, 3);
  log.finalize(100.0);
  return log;
}

TEST(Analyzers, EntropyRatiosAndFilter) {
  const LocalPeerLog log = make_log_with_two_leechers();
  const auto result = analyze_entropy(log);
  ASSERT_EQ(result.local_interest_ratios.size(), 2u);  // peer 3 filtered
  EXPECT_NEAR(result.median_local, (0.8 + 0.0) / 2.0, 1e-9);
  EXPECT_NEAR(result.p80_local, 0.8, 0.35);
  ASSERT_EQ(result.remote_interest_ratios.size(), 2u);
}

TEST(Analyzers, PieceInterarrivalSplitsFirstAndLast) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  for (int i = 1; i <= 10; ++i) {
    log.on_piece_complete(i * 10.0, static_cast<wire::PieceIndex>(i - 1));
  }
  const auto result = analyze_piece_interarrival(log, /*k=*/3);
  EXPECT_EQ(result.all.count(), 10u);
  EXPECT_EQ(result.first_k.count(), 3u);
  EXPECT_EQ(result.last_k.count(), 3u);
  EXPECT_DOUBLE_EQ(result.all.max(), 10.0);  // uniform gaps
}

TEST(Analyzers, InterarrivalDetectsSlowStart) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  // First three pieces slow (gap 50), the rest fast (gap 5).
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    t += (i < 3) ? 50.0 : 5.0;
    log.on_piece_complete(t, static_cast<wire::PieceIndex>(i));
  }
  const auto result = analyze_piece_interarrival(log, /*k=*/3);
  EXPECT_GT(result.first_k.quantile(0.5), result.last_k.quantile(0.5));
}

TEST(Analyzers, LeecherFairnessFractions) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  // 12 peers: peer i uploads i kB to us and receives i kB (leecher state).
  for (peer::PeerId id = 1; id <= 12; ++id) {
    log.on_peer_joined(0.0, id);
    log.on_message_received(0.0, id, bitfield_with(2));
    log.on_block_uploaded(1.0, id, {0, 0}, id * 1000);
    log.on_block_received(1.0, id, {1, 0}, id * 1000);
  }
  log.finalize(10.0);
  const auto sets = analyze_leecher_fairness(log, 5, 6);
  ASSERT_EQ(sets.upload_fraction.size(), 6u);
  // Top set holds peers 12..8: (12+11+10+9+8)/78.
  EXPECT_NEAR(sets.upload_fraction[0], 50.0 / 78.0, 1e-9);
  EXPECT_NEAR(sets.download_fraction[0], 50.0 / 78.0, 1e-9);
  // Fractions sum to 1 over all sets (12 peers fit in 3 sets).
  double sum = 0.0;
  for (const double f : sets.upload_fraction) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Analyzers, LeecherFairnessExcludesSeedDownloads) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_peer_joined(0.0, 1);
  log.on_message_received(0.0, 1, bitfield_with(kPieces));  // a seed
  log.on_block_received(1.0, 1, {0, 0}, 5000);
  log.on_peer_joined(0.0, 2);
  log.on_message_received(0.0, 2, bitfield_with(2));
  log.on_block_received(1.0, 2, {1, 0}, 1000);
  log.finalize(10.0);
  const auto sets = analyze_leecher_fairness(log);
  EXPECT_EQ(sets.total_downloaded_from_leechers, 1000u);
}

TEST(Analyzers, SeedFairnessUsesSeedStateBytes) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  for (peer::PeerId id = 1; id <= 6; ++id) log.on_peer_joined(0.0, id);
  log.on_block_uploaded(1.0, 1, {0, 0}, 999);  // leecher state: ignored
  log.on_became_seed(2.0);
  for (peer::PeerId id = 1; id <= 6; ++id) {
    log.on_block_uploaded(3.0, id, {0, 0}, 1000);  // equal seed service
  }
  log.finalize(10.0);
  const auto sets = analyze_seed_fairness(log, 5, 6);
  EXPECT_EQ(sets.total_uploaded, 6000u);
  EXPECT_NEAR(sets.upload_fraction[0], 5.0 / 6.0, 1e-9);
  EXPECT_NEAR(sets.upload_fraction[1], 1.0 / 6.0, 1e-9);
}

TEST(Analyzers, UnchokeCorrelationSeparatesStates) {
  LocalPeerLog log(kPieces);
  log.on_start(0.0);
  log.on_became_seed(100.0);
  // In seed state: unchokes proportional to interested time.
  for (peer::PeerId id = 1; id <= 8; ++id) {
    log.on_peer_joined(100.0, id);
    log.on_remote_interest_change(100.0, id, true);
    for (peer::PeerId k = 0; k < id; ++k) {
      log.on_local_choke_change(101.0, id, true);
      log.on_local_choke_change(101.5, id, false);
    }
    log.on_peer_left(100.0 + id * 10.0, id);
  }
  log.finalize(300.0);
  const auto ss = analyze_unchoke_correlation_seed(log);
  ASSERT_EQ(ss.unchokes.size(), 8u);
  EXPECT_GT(ss.spearman, 0.95);
}

}  // namespace
}  // namespace swarmlab::instrument
