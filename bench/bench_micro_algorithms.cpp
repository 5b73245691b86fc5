// Micro-benchmarks (google-benchmark) for the core algorithmic kernels:
// rarest-first piece picking, choke-round selection, availability
// bookkeeping, the wire codec, bencode, and SHA-1 throughput. These back
// the paper's simplicity argument (§IV-A.4): rarest first is cheap —
// microseconds per decision — where network coding is CPU intensive.
// The event-queue, fluid-reallocation, connection-table and
// rate-estimator kernels time the simulator's own hot path
// (docs/performance.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "core/availability.h"
#include "core/bitfield.h"
#include "core/choker.h"
#include "core/piece_picker.h"
#include "instrument/metrics.h"
#include "instrument/swarm_probe.h"
#include "net/fluid_network.h"
#include "peer/connection.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "stats/rate_estimator.h"
#include "wire/bencode.h"
#include "wire/messages.h"
#include "wire/sha1.h"

namespace {

using namespace swarmlab;

void BM_RarestFirstPick(benchmark::State& state) {
  const auto pieces = static_cast<std::uint32_t>(state.range(0));
  sim::Rng rng(1);
  core::Bitfield local(pieces);
  core::Bitfield remote = core::Bitfield::full(pieces);
  core::AvailabilityMap avail(pieces);
  for (std::uint32_t p = 0; p < pieces; ++p) {
    if (rng.chance(0.4)) local.set(p);
    const auto copies = rng.index(20);
    for (std::size_t i = 0; i < copies; ++i) avail.add_have(p);
  }
  core::RarestFirstPicker picker(4);
  const std::function<bool(wire::PieceIndex)> startable =
      [](wire::PieceIndex) { return true; };
  const core::PickContext ctx{local, remote, avail, startable, 10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(picker.pick(ctx, rng));
  }
}
BENCHMARK(BM_RarestFirstPick)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ChokeRoundLeecher(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  core::ProtocolParams params;
  core::LeecherChoker choker(params);
  std::vector<core::ChokeCandidate> cs(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    cs[i].key = i + 1;
    cs[i].interested = rng.chance(0.7);
    cs[i].download_rate = rng.uniform(0, 1e5);
  }
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(choker.select(cs, round++, rng));
  }
}
BENCHMARK(BM_ChokeRoundLeecher)->Arg(20)->Arg(80)->Arg(320);

void BM_ChokeRoundNewSeed(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  core::ProtocolParams params;
  core::NewSeedChoker choker(params);
  std::vector<core::ChokeCandidate> cs(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    cs[i].key = i + 1;
    cs[i].interested = rng.chance(0.7);
    cs[i].unchoked = rng.chance(0.1);
    cs[i].last_unchoke_time = rng.uniform(0, 1000);
  }
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(choker.select(cs, round++, rng));
  }
}
BENCHMARK(BM_ChokeRoundNewSeed)->Arg(20)->Arg(80)->Arg(320);

void BM_AvailabilityHave(benchmark::State& state) {
  const auto pieces = static_cast<std::uint32_t>(state.range(0));
  core::AvailabilityMap avail(pieces);
  sim::Rng rng(1);
  std::uint32_t p = 0;
  for (auto _ : state) {
    avail.add_have(p);
    p = (p + 1) % pieces;
  }
}
BENCHMARK(BM_AvailabilityHave)->Arg(1024);

void BM_AvailabilityAddPeer(benchmark::State& state) {
  const auto pieces = static_cast<std::uint32_t>(state.range(0));
  core::AvailabilityMap avail(pieces);
  sim::Rng rng(1);
  core::Bitfield have(pieces);
  for (std::uint32_t p = 0; p < pieces; ++p) {
    if (rng.chance(0.5)) have.set(p);
  }
  for (auto _ : state) {
    avail.add_peer(have);
    avail.remove_peer(have);
  }
}
BENCHMARK(BM_AvailabilityAddPeer)->Arg(1024);

void BM_MessageCodecRoundTrip(benchmark::State& state) {
  const wire::Message msg{wire::RequestMsg{42, 16384, 16384}};
  for (auto _ : state) {
    const auto bytes = wire::encode_message(msg);
    std::size_t consumed = 0;
    benchmark::DoNotOptimize(wire::decode_message(bytes, 1024, consumed));
  }
}
BENCHMARK(BM_MessageCodecRoundTrip);

void BM_BitfieldCodec(benchmark::State& state) {
  const auto pieces = static_cast<std::uint32_t>(state.range(0));
  wire::BitfieldMsg msg;
  msg.bits.assign(pieces, false);
  for (std::uint32_t p = 0; p < pieces; p += 3) msg.bits[p] = true;
  for (auto _ : state) {
    const auto bytes = wire::encode_message(wire::Message{msg}, pieces);
    std::size_t consumed = 0;
    benchmark::DoNotOptimize(
        wire::decode_message(bytes, pieces, consumed));
  }
}
BENCHMARK(BM_BitfieldCodec)->Arg(1024)->Arg(4096);

void BM_Bencode(benchmark::State& state) {
  wire::BValue::Dict dict;
  dict.emplace("announce", wire::BValue("http://tracker/announce"));
  wire::BValue::Dict info;
  info.emplace("length", wire::BValue(700 * 1024 * 1024));
  info.emplace("name", wire::BValue("content.bin"));
  info.emplace("piece length", wire::BValue(262144));
  info.emplace("pieces", wire::BValue(std::string(2800 * 20, 'x')));
  dict.emplace("info", wire::BValue(std::move(info)));
  const wire::BValue root{std::move(dict)};
  for (auto _ : state) {
    const std::string encoded = wire::bencode(root);
    benchmark::DoNotOptimize(wire::bdecode(encoded));
  }
}
BENCHMARK(BM_Bencode);

void BM_Sha1Piece(benchmark::State& state) {
  const std::vector<std::uint8_t> piece(256 * 1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::Sha1::hash(
        std::span<const std::uint8_t>(piece.data(), piece.size())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(piece.size()));
}
BENCHMARK(BM_Sha1Piece);

/// Precomputed (victim index, new time) draws, so the RNG stays out of
/// the timed loop. Times are now + U(0, 8 s): half inside the 4 s wheel
/// window, half in the heap band.
struct QueueMoves {
  QueueMoves(std::size_t pending, std::size_t count) {
    sim::Rng rng(1);
    for (std::size_t i = 0; i < count; ++i) {
      victim.push_back(rng.index(pending));
      at.push_back(rng.uniform(0.0, 8.0));
    }
  }
  std::vector<std::size_t> victim;
  std::vector<double> at;
};

/// A queue holding `pending` events spread over [0, 8 s), plus their ids.
std::vector<sim::EventId> fill_queue(sim::EventQueue& q, std::size_t pending) {
  sim::Rng rng(2);
  std::vector<sim::EventId> ids;
  for (std::size_t i = 0; i < pending; ++i) {
    ids.push_back(q.schedule_fast(rng.uniform(0.0, 8.0), 1, {i, 0}));
  }
  return ids;
}

// Moves a random pending event in place, as fluid re-rating does.
void BM_EventQueueReschedule(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  const std::vector<sim::EventId> ids = fill_queue(q, pending);
  const QueueMoves moves(pending, 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.reschedule(ids[moves.victim[i]], moves.at[i]));
    i = (i + 1) & 0xffff;
  }
}
BENCHMARK(BM_EventQueueReschedule)->Arg(1000)->Arg(10000)->Arg(100000);

// The same move spelled as cancel + schedule, which mints a new id.
void BM_EventQueueCancelSchedule(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  std::vector<sim::EventId> ids = fill_queue(q, pending);
  const QueueMoves moves(pending, 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    sim::EventId& id = ids[moves.victim[i]];
    q.cancel(id);
    id = q.schedule_fast(moves.at[i], 1, {i, 0});
    i = (i + 1) & 0xffff;
  }
}
BENCHMARK(BM_EventQueueCancelSchedule)->Arg(1000)->Arg(10000)->Arg(100000);

// One sender uploading to k receivers; each iteration starts and cancels
// a (k+1)-th upload, so two reallocations re-rate and move k+1 flows.
void BM_FluidReallocate(benchmark::State& state) {
  const auto fan_out = static_cast<int>(state.range(0));
  sim::Simulation sim(1);
  net::FluidNetwork net(sim);
  const net::NodeId sender = net.add_node(20e3, net::kUnlimited);
  for (int i = 0; i < fan_out; ++i) {
    net.start_flow(sender, net.add_node(net::kUnlimited, net::kUnlimited),
                   1ull << 40, [] {});
  }
  const net::NodeId extra = net.add_node(net::kUnlimited, net::kUnlimited);
  for (auto _ : state) {
    net.cancel_flow(net.start_flow(sender, extra, 1ull << 40, [] {}));
  }
}
BENCHMARK(BM_FluidReallocate)->Arg(4)->Arg(16)->Arg(64);

/// A full peer set: 80 connections whose remote ids are spread over
/// [1, id_space], as in a swarm that has seen id_space peers. Returns the
/// ids in insertion (random) order.
std::vector<peer::PeerId> fill_peer_set(peer::ConnectionTable& table,
                                        std::uint32_t id_space) {
  sim::Rng rng(3);
  std::vector<peer::PeerId> ids;
  while (ids.size() < 80) {
    const auto id = static_cast<peer::PeerId>(1 + rng.index(id_space));
    if (table.contains(id)) continue;
    peer::Connection conn;
    conn.remote = id;
    table.insert(std::move(conn));
    ids.push_back(id);
  }
  return ids;
}

// Looks up a random member of the peer set, as every message delivery does.
void BM_ConnectionTableFind(benchmark::State& state) {
  peer::ConnectionTable table;
  const std::vector<peer::PeerId> ids =
      fill_peer_set(table, static_cast<std::uint32_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(ids[i]));
    i = (i + 7) % ids.size();
  }
}
BENCHMARK(BM_ConnectionTableFind)->Arg(1000)->Arg(10000)->Arg(100000);

// Visits the whole peer set, as on_local_piece_complete and the choke
// round do.
void BM_ConnectionTableWalk(benchmark::State& state) {
  peer::ConnectionTable table;
  fill_peer_set(table, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    std::uint32_t interested = 0;
    for (const peer::Connection& conn : table) {
      interested += conn.peer_interested ? 1 : 0;
    }
    benchmark::DoNotOptimize(interested);
  }
}
BENCHMARK(BM_ConnectionTableWalk)->Arg(1000)->Arg(10000)->Arg(100000);

// One connection's estimator in steady state over one 10 s choke period:
// a 16 KiB block every 1/3 s, then the choke round's rate() read, with
// the 20 s window already full.
void BM_RateEstimator(benchmark::State& state) {
  stats::RateEstimator rate(20.0);
  double now = 0.0;
  const auto period = [&rate, &now] {
    for (int b = 0; b < 30; ++b) {
      now += 1.0 / 3.0;
      rate.add(now, 16384);
    }
    return rate.rate(now);
  };
  period();
  period();
  for (auto _ : state) benchmark::DoNotOptimize(period());
}
BENCHMARK(BM_RateEstimator);

/// One observer callback of a replayed SwarmProbe mix.
struct ProbeOp {
  enum Kind : std::uint8_t {
    kReceived, kSent, kBlockIn, kBlockOut, kJoin, kLeave, kRound,
    kInterest, kRemoteInterest, kLocalChoke, kRemoteChoke,
  };
  Kind kind;
  bool flag;
  peer::PeerId self;
  peer::PeerId remote;
  std::uint32_t arg;  // message index, or choke-round selection index
};

/// A looping callback script for `tracked` observed peers with 40 remotes
/// each, in the proportions a traced table1_observed run shows per 100
/// callbacks: 45 messages received, 21 sent, 7 blocks each way, 4 joins,
/// 4 leaves, 3 choke rounds and 9 interest or choke changes. Every leave
/// is undone by a later join of the same pair, so one pass ends with the
/// peer sets it started from and the script can replay.
struct ProbeScript {
  static constexpr std::size_t kRemotes = 40;

  ProbeScript(peer::PeerId tracked, std::size_t blocks) {
    sim::Rng rng(3);
    const peer::PeerId universe = tracked + kRemotes + 8;
    for (peer::PeerId self = 1; self <= tracked; ++self) {
      std::vector<peer::PeerId> set;
      while (set.size() < kRemotes) {
        const auto r = static_cast<peer::PeerId>(1 + rng.index(universe));
        if (r != self && std::find(set.begin(), set.end(), r) == set.end()) {
          set.push_back(r);
        }
      }
      initial.push_back(set);
    }
    std::vector<std::vector<peer::PeerId>> sets = initial;
    std::deque<std::pair<peer::PeerId, peer::PeerId>> away;
    std::vector<ProbeOp::Kind> deck;
    const auto deal = [&deck](ProbeOp::Kind k, int n) {
      deck.insert(deck.end(), static_cast<std::size_t>(n), k);
    };
    deal(ProbeOp::kReceived, 45);
    deal(ProbeOp::kSent, 21);
    deal(ProbeOp::kBlockIn, 7);
    deal(ProbeOp::kBlockOut, 7);
    deal(ProbeOp::kJoin, 4);
    deal(ProbeOp::kLeave, 4);
    deal(ProbeOp::kRound, 3);
    deal(ProbeOp::kInterest, 2);
    deal(ProbeOp::kRemoteInterest, 2);
    deal(ProbeOp::kLocalChoke, 3);
    deal(ProbeOp::kRemoteChoke, 2);
    const auto rejoin = [&] {
      const auto [self, remote] = away.front();
      away.pop_front();
      sets[self - 1].push_back(remote);
      ops.push_back({ProbeOp::kJoin, false, self, remote, 0});
    };
    for (std::size_t b = 0; b < blocks; ++b) {
      rng.shuffle(deck);
      for (ProbeOp::Kind kind : deck) {
        const auto self = static_cast<peer::PeerId>(1 + rng.index(tracked));
        std::vector<peer::PeerId>& set = sets[self - 1];
        if (kind == ProbeOp::kJoin) {
          if (!away.empty()) {
            rejoin();
            continue;
          }
          kind = ProbeOp::kLeave;  // nothing to rejoin yet
        }
        const std::size_t pick = rng.index(set.size());
        const peer::PeerId remote = set[pick];
        if (kind == ProbeOp::kLeave) {
          set[pick] = set.back();
          set.pop_back();
          away.emplace_back(self, remote);
        } else if (kind == ProbeOp::kRound) {
          std::vector<peer::PeerId> chosen = set;
          rng.shuffle(chosen);
          chosen.resize(std::min<std::size_t>(4, chosen.size()));
          rounds.push_back(std::move(chosen));
        }
        const auto arg = kind == ProbeOp::kRound
                             ? static_cast<std::uint32_t>(rounds.size() - 1)
                             : static_cast<std::uint32_t>(rng.index(10));
        ops.push_back({kind, rng.chance(0.5), self, remote, arg});
      }
    }
    while (!away.empty()) rejoin();
  }

  std::vector<std::vector<peer::PeerId>> initial;  // by self - 1
  std::vector<ProbeOp> ops;
  std::vector<std::vector<peer::PeerId>> rounds;
};

// The instrument layer's kernel: a SwarmProbe with per-peer detail for
// every tracked peer (table1_observed's setup) replaying the callback mix
// above. One iteration is one callback.
void BM_SwarmProbeCallbacks(benchmark::State& state) {
  const auto tracked = static_cast<peer::PeerId>(state.range(0));
  const ProbeScript script(tracked, 1000);
  const std::array<wire::Message, 10> received = {
      wire::HaveMsg{1}, wire::HaveMsg{2}, wire::HaveMsg{3},
      wire::HaveMsg{4}, wire::RequestMsg{0, 0, 16384},
      wire::RequestMsg{1, 0, 16384}, wire::RequestMsg{2, 0, 16384},
      wire::InterestedMsg{}, wire::UnchokeMsg{}, wire::ChokeMsg{}};
  const std::array<wire::Message, 10> sent = {
      wire::HaveMsg{5}, wire::HaveMsg{6}, wire::HaveMsg{7},
      wire::RequestMsg{3, 0, 16384}, wire::RequestMsg{4, 0, 16384},
      wire::RequestMsg{5, 0, 16384}, wire::RequestMsg{6, 0, 16384},
      wire::InterestedMsg{}, wire::NotInterestedMsg{}, wire::UnchokeMsg{}};
  instrument::MetricsRegistry registry;
  instrument::SwarmProbe probe(registry, 1024);
  double t = 0.0;
  for (peer::PeerId self = 1; self <= tracked; ++self) {
    probe.on_start(self, t);
    for (const peer::PeerId remote : script.initial[self - 1]) {
      probe.on_peer_joined(self, t, remote);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const ProbeOp& op = script.ops[i];
    t += 1e-3;
    switch (op.kind) {
      case ProbeOp::kReceived:
        probe.on_message_received(op.self, t, op.remote, received[op.arg]);
        break;
      case ProbeOp::kSent:
        probe.on_message_sent(op.self, t, op.remote, sent[op.arg]);
        break;
      case ProbeOp::kBlockIn:
        probe.on_block_received(op.self, t, op.remote, {op.arg, 0}, 16384);
        break;
      case ProbeOp::kBlockOut:
        probe.on_block_uploaded(op.self, t, op.remote, {op.arg, 0}, 16384);
        break;
      case ProbeOp::kJoin:
        probe.on_peer_joined(op.self, t, op.remote);
        break;
      case ProbeOp::kLeave:
        probe.on_peer_left(op.self, t, op.remote);
        break;
      case ProbeOp::kRound:
        probe.on_choke_round(op.self, t, false, script.rounds[op.arg]);
        break;
      case ProbeOp::kInterest:
        probe.on_interest_change(op.self, t, op.remote, op.flag);
        break;
      case ProbeOp::kRemoteInterest:
        probe.on_remote_interest_change(op.self, t, op.remote, op.flag);
        break;
      case ProbeOp::kLocalChoke:
        probe.on_local_choke_change(op.self, t, op.remote, op.flag);
        break;
      case ProbeOp::kRemoteChoke:
        probe.on_remote_choke_change(op.self, t, op.remote, op.flag);
        break;
    }
    benchmark::ClobberMemory();
    if (++i == script.ops.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwarmProbeCallbacks)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
