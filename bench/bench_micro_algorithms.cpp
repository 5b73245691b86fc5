// Micro-benchmarks (google-benchmark) for the core algorithmic kernels:
// rarest-first piece picking, choke-round selection, availability
// bookkeeping, the wire codec, bencode, and SHA-1 throughput. These back
// the paper's simplicity argument (§IV-A.4): rarest first is cheap —
// microseconds per decision — where network coding is CPU intensive.
// The event-queue and fluid-reallocation kernels time the simulator's
// own hot path (docs/performance.md).
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "core/availability.h"
#include "core/bitfield.h"
#include "core/choker.h"
#include "core/piece_picker.h"
#include "net/fluid_network.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
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

}  // namespace

BENCHMARK_MAIN();
