// ObserverHub / ObserverList / SwarmObserver wiring tests, plus the
// digest-under-observation passivity check: attaching a record-only
// all-peers observer must not change any simulated trajectory.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "instrument/swarm_probe.h"
#include "instrument/trace.h"
#include "peer/observer.h"
#include "runner/batch_runner.h"
#include "swarm/observer_hub.h"
#include "swarm/scenario.h"
#include "swarm/swarm.h"

namespace swarmlab {
namespace {

/// Appends "<tag>" to a shared journal on every on_start; optionally
/// mutates the list it lives in mid-dispatch.
struct TagObserver final : peer::PeerObserver {
  TagObserver(std::string tag, std::vector<std::string>& journal)
      : tag(std::move(tag)), journal(&journal) {}
  void on_start(sim::SimTime) override {
    journal->push_back(tag);
    if (action) action();
  }
  std::string tag;
  std::vector<std::string>* journal;
  std::function<void()> action;
};

TEST(ObserverList, DispatchFollowsAttachOrder) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), b("b", journal), c("c", journal);
  instrument::ObserverList list;
  list.add(&b);
  list.add(&a);
  list.add(&c);
  list.on_start(0.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(list.size(), 3u);
}

TEST(ObserverList, SelfRemovalMidDispatchKeepsLaterObservers) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), b("b", journal), c("c", journal);
  instrument::ObserverList list;
  list.add(&a);
  list.add(&b);
  list.add(&c);
  b.action = [&] { EXPECT_TRUE(list.remove(&b)); };
  list.on_start(0.0);
  // b fires once (its own callback was already in flight), c still runs.
  EXPECT_EQ(journal, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(list.size(), 2u);
  journal.clear();
  b.action = nullptr;
  list.on_start(1.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a", "c"}));
}

TEST(ObserverList, RemovingALaterObserverSuppressesItsInFlightEvent) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), b("b", journal);
  instrument::ObserverList list;
  list.add(&a);
  list.add(&b);
  a.action = [&] { EXPECT_TRUE(list.remove(&b)); };
  list.on_start(0.0);
  // b was removed before its slot was reached: no callback at all.
  EXPECT_EQ(journal, (std::vector<std::string>{"a"}));
  EXPECT_EQ(list.size(), 1u);
}

TEST(ObserverList, AddMidDispatchStartsWithTheNextEvent) {
  std::vector<std::string> journal;
  TagObserver a("a", journal), late("late", journal);
  instrument::ObserverList list;
  list.add(&a);
  a.action = [&] { list.add(&late); };
  list.on_start(0.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a"}));
  a.action = nullptr;
  journal.clear();
  list.on_start(1.0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a", "late"}));
}

TEST(ObserverList, RemoveUnknownReturnsFalse) {
  std::vector<std::string> journal;
  TagObserver a("a", journal);
  instrument::ObserverList list;
  EXPECT_FALSE(list.remove(&a));
  list.add(&a);
  EXPECT_TRUE(list.remove(&a));
  EXPECT_FALSE(list.remove(&a));
  EXPECT_EQ(list.size(), 0u);
}

/// Counts SwarmObserver callbacks per observed peer — the "record-only
/// all-peers observer" of the passivity requirement.
struct CountingSwarmObserver final : peer::SwarmObserver {
  void on_start(peer::PeerId self, sim::SimTime) override {
    ++starts[self];
  }
  void on_piece_complete(peer::PeerId self, sim::SimTime,
                         wire::PieceIndex) override {
    ++pieces[self];
  }
  void on_message_sent(peer::PeerId self, sim::SimTime, peer::PeerId,
                       const wire::Message&) override {
    ++messages[self];
  }
  std::map<peer::PeerId, int> starts, pieces, messages;
};

swarm::Swarm& make_seeded_swarm(sim::Simulation& sim,
                                const wire::ContentGeometry& geo,
                                std::unique_ptr<swarm::Swarm>& out) {
  out = std::make_unique<swarm::Swarm>(sim, geo);
  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.upload_capacity = 50e3;
  out->start_peer(out->add_peer(std::move(seed_cfg)));
  return *out;
}

TEST(ObserverHub, SingleObserverKeepsTheRawPointerFastPath) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  swarm::Swarm sw(sim, geo);
  instrument::TraceWriter trace;
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId id = sw.add_peer(std::move(cfg), &trace);
  // One observer: the peer dispatches straight through the observer
  // pointer, no fan-out in between (the pre-hub local-peer wiring).
  EXPECT_EQ(sw.find_peer(id)->observer(), &trace);
  EXPECT_EQ(sw.observers().observers_on(id), 1u);
}

TEST(ObserverHub, AttachAndDetachOnALivePeer) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  std::unique_ptr<swarm::Swarm> own;
  swarm::Swarm& sw = make_seeded_swarm(sim, geo, own);

  instrument::TraceWriter first, second;
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId l = sw.add_peer(std::move(cfg), &first);
  sw.start_peer(l);
  sim.run_until(200.0);
  const std::size_t at_attach = first.events().size();
  EXPECT_GT(at_attach, 0u);

  // A second observer mid-run promotes the hook to a fan-out; both see
  // the stream from here on.
  sw.observers().attach(l, &second);
  EXPECT_EQ(sw.observers().observers_on(l), 2u);
  sim.run_until(2000.0);
  EXPECT_TRUE(sw.find_peer(l)->is_seed());
  EXPECT_GT(first.events().size(), at_attach);
  EXPECT_GT(second.events().size(), 0u);

  // Detaching the original leaves the late subscriber running.
  EXPECT_TRUE(sw.observers().detach(l, &first));
  EXPECT_FALSE(sw.observers().detach(l, &first));
  EXPECT_EQ(sw.observers().observers_on(l), 1u);
}

TEST(ObserverHub, AttachAllCoversCurrentAndFuturePeers) {
  sim::Simulation sim(1);
  const wire::ContentGeometry geo(4 * 256 * 1024);
  swarm::Swarm sw(sim, geo);
  CountingSwarmObserver counter;
  sw.observers().attach_all(&counter);

  peer::PeerConfig seed_cfg;
  seed_cfg.start_complete = true;
  seed_cfg.upload_capacity = 50e3;
  const peer::PeerId s = sw.add_peer(std::move(seed_cfg));
  sw.start_peer(s);
  peer::PeerConfig cfg;
  cfg.upload_capacity = 50e3;
  const peer::PeerId l = sw.add_peer(std::move(cfg));  // after attach_all
  sw.start_peer(l);
  sim.run_until(2000.0);

  // Both peers (the one added after attach_all included) reported their
  // start and their traffic, each under its own id.
  EXPECT_EQ(counter.starts[s], 1);
  EXPECT_EQ(counter.starts[l], 1);
  EXPECT_EQ(counter.pieces[l], 4);
  EXPECT_GT(counter.messages[s], 0);
  EXPECT_GT(counter.messages[l], 0);

  EXPECT_TRUE(sw.observers().detach_all(&counter));
  EXPECT_FALSE(sw.observers().detach_all(&counter));
}

// --- the passivity requirement -------------------------------------------

swarm::ScaleLimits tiny_limits() {
  swarm::ScaleLimits limits;
  limits.max_peers = 30;
  limits.max_pieces = 24;
  limits.min_pieces = 12;
  limits.duration = 8000.0;
  return limits;
}

runner::RunResult run_observed(swarm::ObservationPlan::Scope scope) {
  runner::BatchJob job;
  job.id = 1;
  job.config = swarm::scenario_from_table1(3, tiny_limits());
  job.config.observation.scope = scope;
  job.name = job.config.name;
  job.seed = sim::fork_seed(20061025, 1);
  return runner::run_scenario_job(job, 200.0);
}

// An all-peers record-only observer (the runner's SwarmProbe) must not
// perturb the trajectory: every deterministic outcome — event counts,
// RNG-driven completion times, the preformatted text row — must be
// byte-identical to the unobserved run. Only `telemetry` (the
// observation product itself) may differ.
TEST(DigestUnderObservation, AllPeersProbeLeavesTrajectoryUntouched) {
  const runner::RunResult plain =
      run_observed(swarm::ObservationPlan::Scope::kLocal);
  const runner::RunResult observed =
      run_observed(swarm::ObservationPlan::Scope::kAll);

  EXPECT_EQ(plain.end_time, observed.end_time);
  EXPECT_EQ(plain.local_completion, observed.local_completion);
  EXPECT_EQ(plain.completed, observed.completed);
  EXPECT_EQ(plain.events_executed, observed.events_executed);
  EXPECT_EQ(plain.events_scheduled, observed.events_scheduled);
  EXPECT_EQ(plain.events_cancelled, observed.events_cancelled);
  EXPECT_EQ(plain.peak_pending, observed.peak_pending);
  EXPECT_EQ(plain.events_fastpath, observed.events_fastpath);
  EXPECT_EQ(plain.queue_compactions, observed.queue_compactions);
  EXPECT_EQ(plain.train_segments, observed.train_segments);
  EXPECT_EQ(plain.text, observed.text);

  // The observed run did produce a swarm-scope metrics snapshot.
  ASSERT_TRUE(observed.telemetry.is_object());
  EXPECT_EQ(observed.telemetry.find("scope")->as_string(), "all");
  ASSERT_NE(observed.telemetry.find("metrics"), nullptr);

  // Whole-report byte identity once the (legitimately different)
  // telemetry blocks are equalized: deterministic_view() of both runs
  // must serialize to the same bytes.
  runner::RunResult a = plain;
  runner::RunResult b = observed;
  a.telemetry = runner::json::Value();
  b.telemetry = runner::json::Value();
  runner::BatchOptions opts;
  opts.master_seed = 20061025;
  const auto report_a = runner::make_report("obs-test", opts, {a}, 0.0);
  const auto report_b = runner::make_report("obs-test", opts, {b}, 0.0);
  EXPECT_EQ(runner::json::dump(runner::deterministic_view(report_a)),
            runner::json::dump(runner::deterministic_view(report_b)));
}

// The sampled scope attaches to the local peer plus the first K spawned
// — equally passive, and the telemetry advertises the cap.
TEST(DigestUnderObservation, SampledScopeIsEquallyPassive) {
  const runner::RunResult plain =
      run_observed(swarm::ObservationPlan::Scope::kLocal);
  const runner::RunResult sampled =
      run_observed(swarm::ObservationPlan::Scope::kSampled);
  EXPECT_EQ(plain.events_executed, sampled.events_executed);
  EXPECT_EQ(plain.text, sampled.text);
  ASSERT_TRUE(sampled.telemetry.is_object());
  EXPECT_EQ(sampled.telemetry.find("scope")->as_string(), "sampled");
  ASSERT_NE(sampled.telemetry.find("sample_k"), nullptr);
}

// --- golden telemetry --------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return fnv1a(h, &bits, sizeof bits);
}

std::uint64_t hash_market(std::uint64_t h, const instrument::MarketStats& m) {
  h = fnv1a(h, static_cast<double>(m.rounds));
  h = fnv1a(h, static_cast<double>(m.slot_rounds));
  for (const double v : m.tenures) h = fnv1a(h, v);
  h = fnv1a(h, m.mean_tenure);
  h = fnv1a(h, m.max_tenure);
  h = fnv1a(h, m.mutuality);
  return fnv1a(h, m.null_mutuality);
}

std::uint64_t hash_correlation(std::uint64_t h,
                               const instrument::UnchokeCorrelation& c) {
  for (const double v : c.interested_time) h = fnv1a(h, v);
  for (const double v : c.unchokes) h = fnv1a(h, v);
  h = fnv1a(h, c.spearman);
  return fnv1a(h, c.pearson);
}

// Nothing else pins telemetry content: the digest-under-observation tests
// equalize it and the golden trajectory digests never see it. Three
// Table-I rows under scope `all` (the benchmark's selftest set) pin every
// counter, histogram and series of the report's telemetry, plus the local
// peer's choke-market and unchoke-correlation results from a directly
// wired probe. An instrument change that moves any of those bytes fails
// here.
TEST(TelemetryGolden, Table1RowsUnderScopeAll) {
  constexpr std::uint64_t kGoldenTelemetry = 0x817188e8e1b84a84ull;
  swarm::ScaleLimits limits = tiny_limits();
  limits.max_peers = 80;
  limits.max_pieces = 48;
  std::vector<runner::RunResult> results;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (runner::BatchJob& job : runner::table1_jobs(20061025, limits)) {
    if (job.id != 2 && job.id != 13 && job.id != 19) continue;
    job.config.observation.scope = swarm::ObservationPlan::Scope::kAll;
    results.push_back(runner::run_scenario_job(job, 200.0));

    instrument::MetricsRegistry registry;
    instrument::SwarmProbe probe(registry, job.config.num_pieces);
    swarm::ScenarioRunner sr(job.config, job.seed, nullptr, &probe);
    swarm::Swarm* sw = &sr.swarm();
    probe.bind([sw](peer::PeerId id) -> const peer::Peer* {
      return sw->find_peer(id);
    });
    probe.bind_availability(&sw->global_availability());
    probe.set_focus(sr.local_peer_id());
    probe.finalize(sr.run_until_local_complete(200.0));
    const peer::PeerId local = sr.local_peer_id();
    h = hash_market(h, probe.market_stats(local));
    h = hash_correlation(h, probe.unchoke_correlation(local, false));
    h = hash_correlation(h, probe.unchoke_correlation(local, true));
  }
  ASSERT_EQ(results.size(), 3u);

  runner::BatchOptions opts;
  opts.master_seed = 20061025;
  const runner::json::Value view = runner::deterministic_view(
      runner::make_report("telemetry-golden", opts, results, 0.0));
  const runner::json::Value* entries = view.find("results");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->size(), 3u);
  for (const runner::json::Value& entry : entries->items()) {
    const runner::json::Value* telemetry = entry.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    ASSERT_NE(telemetry->find("metrics"), nullptr);
    const std::string bytes = runner::json::dump(*telemetry);
    h = fnv1a(h, bytes.data(), bytes.size());
  }
  EXPECT_EQ(h, kGoldenTelemetry)
      << "telemetry digest changed: 0x" << std::hex << h;
}

}  // namespace
}  // namespace swarmlab
