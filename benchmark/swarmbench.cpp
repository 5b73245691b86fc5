// swarmbench: runs one benchmark workload through swarmlab's public entry
// points (the scenario catalog, runner::table1_jobs, runner::BatchRunner,
// runner::run_scenario_job) and prints one JSON record on stdout. The
// record carries raw per-unit measurements; benchmark/run.py turns them
// into metrics and checks them against the pinned digests.
//
//   swarmbench --workload NAME --seed N (--seconds S | --units N)
//              [--canary-seed C] [--trace] [--spans PATH]
//
// A unit is one BatchRunner batch: one trajectory for the single-scenario
// workloads, one Table-I sweep for table1_observed. Unit i runs under
// sim::fork_seed(seed, i). Units run until the next one would overrun
// --seconds (at least one runs). Each unit is bracketed by two timings
// of a fixed loop on the CPUs the run is pinned to (calib_s), from which
// run.py scales times to a reference host speed. With --trace every unit
// runs twice on the same seed: plain, then with the timed decorators of
// tracing.h. --canary-seed first runs unit 0 of seed C untimed: its
// digest is pinned, so every run checks one output exactly, and it warms
// the process up before timing starts.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/availability.h"
#include "core/bitfield.h"
#include "core/choker.h"
#include "core/piece_picker.h"
#include "instrument/local_log.h"
#include "instrument/metrics.h"
#include "instrument/swarm_probe.h"
#include "runner/batch_runner.h"
#include "runner/json.h"
#include "sim/progress_monitor.h"
#include "sim/rng.h"
#include "swarm/scenario.h"
#include "swarm/scenario_catalog.h"
#include "tracing.h"

namespace {

using namespace swarmlab;
using Clock = std::chrono::steady_clock;
namespace json = runner::json;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- hashing -----------------------------------------------------------------

/// FNV-1a over the little-endian bytes of each value added.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }
  void add(const std::string& s) {
    add(std::uint64_t{s.size()});
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename Enum>
    requires std::is_enum_v<Enum>
  void add(Enum e) {
    add(static_cast<std::uint64_t>(e));
  }
  void add(std::uint32_t v) { add(std::uint64_t{v}); }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

void add_params(Fnv& h, const core::ProtocolParams& p) {
  h.add(p.max_peer_set);
  h.add(p.min_peer_set);
  h.add(p.max_initiated);
  h.add(p.tracker_peers_per_announce);
  h.add(p.tracker_reannounce_interval);
  h.add(p.choke_interval);
  h.add(p.regular_unchoke_slots);
  h.add(p.optimistic_rounds);
  h.add(p.active_set_size);
  h.add(p.optimistic_new_peer_weight);
  h.add(p.new_peer_age);
  h.add(p.random_first_threshold);
  h.add(p.strict_priority);
  h.add(p.end_game);
  h.add(p.pipeline_depth);
  h.add(p.anti_snubbing);
  h.add(p.snub_timeout);
  h.add(p.verify_pieces);
  h.add(p.ban_corrupt_sources);
  h.add(p.picker);
  h.add(p.leecher_choker);
  h.add(p.seed_choker);
  h.add(p.tft_deficit_threshold);
  h.add(p.super_seeding);
  h.add(p.fast_extension);
  h.add(p.liveness_timers);
  h.add(p.keepalive_interval);
  h.add(p.silence_timeout);
  h.add(p.liveness_check_interval);
  h.add(p.request_timeout);
  h.add(p.announce_retry_base);
  h.add(p.announce_retry_max);
}

/// Hash over every ScenarioConfig field: a changed catalog entry shows as
/// "workload changed", not as a wrong output.
void add_config(Fnv& h, const swarm::ScenarioConfig& c) {
  h.add(c.name);
  h.add(c.torrent_id);
  h.add(c.num_pieces);
  h.add(c.piece_size);
  h.add(c.block_size);
  h.add(c.initial_seeds);
  h.add(c.initial_leechers);
  h.add(c.leechers_warm);
  h.add(c.warm_min);
  h.add(c.warm_max);
  h.add(c.dead_piece_fraction);
  h.add(c.arrival_rate);
  h.add(c.max_population);
  h.add(c.seed_linger_mean);
  h.add(c.initial_seeds_stay);
  h.add(c.leecher_abort_rate);
  h.add(c.free_rider_fraction);
  h.add(std::uint64_t{c.leecher_classes.size()});
  for (const swarm::CapacityClass& k : c.leecher_classes) {
    h.add(k.fraction);
    h.add(k.up);
    h.add(k.down);
  }
  h.add(c.initial_seed_upload);
  h.add(c.initial_seed_download);
  h.add(c.spawn_local_peer);
  h.add(c.local_join_time);
  h.add(c.local_upload);
  h.add(c.local_download);
  h.add(c.local_free_rider);
  add_params(h, c.remote_params);
  add_params(h, c.local_params);
  const fault::FaultPlan& f = c.faults;
  h.add(f.initial_seed_death_time);
  h.add(f.peer_crash_rate);
  h.add(f.crash_spares_initial_seeds);
  h.add(f.message_loss_rate);
  h.add(f.message_delay_jitter);
  h.add(f.flow_kill_rate);
  h.add(std::uint64_t{f.tracker_outages.size()});
  for (const fault::TrackerOutage& o : f.tracker_outages) {
    h.add(o.start);
    h.add(o.duration);
  }
  h.add(c.tracker_member_expiry);
  h.add(c.control_latency);
  h.add(c.duration);
  h.add(c.network_backend);
  const swarm::ObservationPlan& o = c.observation;
  h.add(o.scope);
  h.add(o.sample_k);
  h.add(o.sampling_period);
  h.add(o.detail_peer_cap);
  h.add(o.trace_format);
  h.add(o.trace_path);
  h.add(std::uint64_t{o.trace_max_events});
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  int workers = 1;
  double extra_after = 300.0;
  /// The unit's jobs under its own master seed.
  std::function<std::vector<runner::BatchJob>(std::uint64_t)> jobs;
};

/// One trajectory of catalog scenario `scenario` per unit, its population
/// scaled by `scale`. A positive `horizon` caps the simulated seconds, so
/// every trajectory covers the same span whenever its local peer
/// finishes: that keeps the work per unit nearly independent of the seed.
Workload single(std::string name, std::string scenario, double scale,
                double horizon) {
  Workload w;
  w.name = std::move(name);
  w.jobs = [scenario, scale, horizon](std::uint64_t seed) {
    runner::BatchJob job;
    job.id = 1;
    job.config =
        swarm::ScenarioBuilder::from_catalog(scenario).scale(scale).build();
    if (horizon > 0.0) job.config.duration = horizon;
    job.name = job.config.name;
    job.seed = seed;
    return std::vector<runner::BatchJob>{job};
  };
  return w;
}

/// The Table-I jobs (all 26 when `rows` is empty) with every peer
/// observed, on two workers. `scale` shrinks the sweep benches' peer and
/// piece caps.
Workload table1(std::string name, std::vector<int> rows, double scale) {
  Workload w;
  w.name = std::move(name);
  w.workers = 2;
  w.extra_after = 500.0;
  w.jobs = [rows, scale](std::uint64_t seed) {
    swarm::ScaleLimits limits = swarm::sweep_scale_limits();
    limits.max_peers = static_cast<std::uint32_t>(limits.max_peers * scale);
    limits.max_pieces = static_cast<std::uint32_t>(limits.max_pieces * scale);
    std::vector<runner::BatchJob> jobs;
    for (runner::BatchJob& job : runner::table1_jobs(seed, limits)) {
      if (rows.empty() ||
          std::find(rows.begin(), rows.end(), job.id) != rows.end()) {
        job.config.observation.scope = swarm::ObservationPlan::Scope::kAll;
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  };
  return w;
}

/// Why each workload exists is in benchmark/README.md; every run length
/// below was sized so that one run of BENCHMARK.json's run_seconds holds
/// several units.
std::vector<Workload> workloads() {
  return {
      single("fluid_flash", "perf_medium", 1.0, 900.0),
      single("packet_bulk", "pkt_large", 1.0, 600.0),
      single("packet_swarm", "pkt_huge", 0.5, 100.0),
      table1("table1_observed", {}, 0.5),
      // Small stand-ins for run.py --selftest.
      single("selftest_fluid", "perf_small", 1.0, 0.0),
      single("selftest_packet", "pkt_small", 1.0, 0.0),
      table1("selftest_table1", {2, 13, 19}, 1.0),
  };
}

// --- per-job outcome ---------------------------------------------------------

/// Outcome digest plus the sanity checks every seed must pass. Queue
/// internals stay out of the digest, so replay-identical engine work
/// keeps it.
void analyze_outcome(const swarm::ScenarioRunner& sr,
                     runner::RunResult& res) {
  const swarm::Swarm& sw = sr.swarm();
  const std::uint32_t pieces = sr.config().num_pieces;
  Fnv h;
  h.add(res.end_time);
  std::uint64_t uploaded = 0;
  std::uint64_t downloaded = 0;
  std::string problem;
  const std::vector<peer::PeerId> ids = sw.peer_ids();
  for (const peer::PeerId id : ids) {
    const peer::Peer* p = sw.find_peer(id);
    if (p == nullptr) {
      problem = "peer " + std::to_string(id) + " vanished";
      continue;
    }
    const std::uint32_t have = p->have().count();
    h.add(std::uint64_t{id});
    h.add(p->completion_time());
    h.add(p->total_uploaded());
    h.add(p->total_downloaded());
    h.add(have);
    uploaded += p->total_uploaded();
    downloaded += p->total_downloaded();
    if (have > pieces || (p->completion_time() >= 0.0 && have != pieces)) {
      problem = "peer " + std::to_string(id) + " holds " +
                std::to_string(have) + " of " + std::to_string(pieces) +
                " pieces";
    }
  }
  if (uploaded == 0 || downloaded == 0) problem = "no block moved";
  res.metrics["digest"] = hex(h.value());
  res.metrics["problem"] = problem;
  res.metrics["peers"] = static_cast<std::uint64_t>(ids.size());
  res.metrics["announces"] = sw.tracker().stats().announces;
}

/// run_scenario_job's steps with the timed decorators in place: the
/// network backend is "bench-timed:<backend>" and the swarm probe sits
/// behind a TimedObserver. Everything else matches, so the outcome digest
/// must too (run.py --selftest checks it).
runner::RunResult traced_job(const runner::BatchJob& job,
                             const runner::JobContext& ctx,
                             double extra_after) {
  const swarmbench::JobTrace trace(static_cast<std::uint32_t>(job.id));
  runner::RunResult res;
  res.id = job.id;
  res.name = job.name;
  res.seed = job.seed;
  res.backend = job.config.network_backend;
  res.attempts = ctx.attempt;

  const auto t0 = Clock::now();
  swarm::ScenarioConfig cfg = job.config;
  cfg.network_backend = "bench-timed:" + cfg.network_backend;
  const swarm::ObservationPlan& plan = cfg.observation;
  instrument::LocalPeerLog log(cfg.num_pieces);
  instrument::MetricsRegistry registry;
  std::unique_ptr<instrument::SwarmProbe> probe;
  std::unique_ptr<swarmbench::TimedObserver> timed;
  if (plan.swarm_scope()) {
    instrument::SwarmProbe::Options popts;
    popts.sampling_period = plan.sampling_period;
    popts.detail_peer_cap = plan.detail_peer_cap;
    popts.series_capacity = 256;
    probe = std::make_unique<instrument::SwarmProbe>(registry, cfg.num_pieces,
                                                     popts);
    timed = std::make_unique<swarmbench::TimedObserver>(*probe);
  }
  swarm::ScenarioRunner sr(cfg, job.seed, &log, timed.get());
  if (probe != nullptr) {
    swarm::Swarm* sw = &sr.swarm();
    probe->bind([sw](peer::PeerId id) -> const peer::Peer* {
      return sw->find_peer(id);
    });
    probe->bind_availability(&sw->global_availability());
    probe->set_focus(sr.local_peer_id());
  }
  sim::ProgressMonitor monitor(ctx.monitor);
  sr.simulation().attach_monitor(&monitor);
  const auto t1 = Clock::now();

  res.end_time = sr.run_until_local_complete(extra_after);
  log.finalize(res.end_time);
  const auto t2 = Clock::now();

  if (monitor.tripped()) {
    res.status = monitor.trip() == sim::MonitorTrip::kWallBudget
                     ? runner::JobStatus::kTimeout
                     : runner::JobStatus::kWedged;
    res.error = monitor.diagnostic();
  }
  res.local_completion =
      log.local_is_seed() ? sr.local_peer().completion_time() : -1.0;
  res.completed = res.local_completion >= 0.0;
  const sim::Simulation& s = sr.simulation();
  res.events_executed = s.events_executed();
  res.events_scheduled = s.events_scheduled();
  res.events_cancelled = s.events_cancelled();
  res.peak_pending = s.peak_pending_events();
  res.events_fastpath = s.events_fastpath();
  res.queue_compactions = s.queue_compactions();
  res.train_segments = sr.swarm().network().train_segments();
  res.metrics = json::Value::object();
  res.telemetry = json::Value::object();
  if (probe != nullptr) {
    probe->finalize(res.end_time);
    res.telemetry["metrics"] = runner::metrics_json(registry);
  }
  analyze_outcome(sr, res);
  sr.simulation().attach_monitor(nullptr);
  res.setup_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.sim_seconds = std::chrono::duration<double>(t2 - t1).count();
  res.analyze_seconds = seconds_since(t2);
  return res;
}

// --- host-side measurements --------------------------------------------------

/// Keeps timed results alive so the compiler cannot drop the work.
std::atomic<std::uint64_t> g_sink{0};

void sink(std::uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

/// A fixed loop that needs nothing from swarmlab: random pushes and pops
/// on a 100k-entry binary heap, branchy and cache-bound like the event
/// loop, so it slows in the same host phases that slow the simulator.
double heap_loop(std::vector<std::uint64_t>& heap) {
  heap.clear();
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 600'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (heap.size() < 100'000 || (x & 1u) != 0) {
      heap.push_back(x);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    } else {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      acc += heap.back();
      heap.pop_back();
    }
  }
  sink(acc);
  return seconds_since(t0);
}

/// Pins the process to as many CPUs as the workload has workers and
/// times heap_loop on all of them at once. BatchRunner's worker threads
/// inherit the pinning, so the calibration measures the CPUs the jobs
/// run on: on a shared host a CPU can run far slower for seconds at a
/// time, and host.calib_s is what lets run.py correct for it.
class Calibrator {
 public:
  explicit Calibrator(int cpus) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE && static_cast<int>(cpus_.size()) < cpus;
           ++c) {
        if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
      }
    }
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (const int c : cpus_) CPU_SET(c, &mask);
    // Pinning is best effort: without it the run measures unpinned.
    if (cpus_.empty() || sched_setaffinity(0, sizeof mask, &mask) != 0) {
      cpus_.assign(1, -1);
    }
    buffers_.resize(cpus_.size());
    for (auto& b : buffers_) b.reserve(std::size_t{1} << 17);
    // The first calls after start-up read slow; let them pass.
    for (int i = 0; i < 5; ++i) measure();
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;
  Calibrator(Calibrator&&) = delete;
  Calibrator& operator=(Calibrator&&) = delete;

  /// Mean seconds of one heap_loop over the pinned CPUs.
  double measure() {
    std::vector<double> secs(cpus_.size());
    {
      std::vector<std::jthread> threads;  // joined on every way out
      for (std::size_t i = 0; i < cpus_.size(); ++i) {
        threads.emplace_back([this, &secs, i] {
          if (cpus_[i] >= 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[i], &one);
            sched_setaffinity(0, sizeof one, &one);
          }
          secs[i] = heap_loop(buffers_[i]);
        });
      }
    }
    double total = 0.0;
    for (const double v : secs) total += v;
    return total / static_cast<double>(secs.size());
  }

 private:
  std::vector<int> cpus_;  ///< -1: not pinned
  std::vector<std::vector<std::uint64_t>> buffers_;
};

template <typename Fn>
double median_ns_per_call(Fn&& fn) {
  constexpr int kBatches = 21;
  constexpr int kCalls = 256;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) fn();
    per_call.push_back(seconds_since(t0) * 1e9 / kCalls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

/// core::RarestFirstPicker::pick at the workload's piece count.
double pick_rarest_ns(std::uint32_t pieces, std::uint64_t seed) {
  sim::Rng rng(seed);
  core::Bitfield local(pieces);
  const core::Bitfield remote = core::Bitfield::full(pieces);
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
  return median_ns_per_call([&] {
    const auto piece = picker.pick(ctx, rng);
    sink(piece.value_or(0));
  });
}

/// core::LeecherChoker::select over a full 80-peer set.
double choke_select_ns(std::uint64_t seed) {
  sim::Rng rng(seed);
  const core::ProtocolParams params;
  core::LeecherChoker choker(params);
  std::vector<core::ChokeCandidate> cs(80);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    cs[i].key = i + 1;
    cs[i].interested = rng.chance(0.7);
    cs[i].download_rate = rng.uniform(0, 1e5);
  }
  std::uint64_t round = 0;
  return median_ns_per_call([&] {
    sink(choker.select(cs, round++, rng).size());
  });
}

// --- one unit ----------------------------------------------------------------

json::Value job_record(const runner::BatchJob& job,
                       const runner::RunResult& r) {
  const swarm::ScenarioConfig& cfg = job.config;
  json::Value j = json::Value::object();
  j["id"] = r.id;
  j["initial_peers"] = cfg.initial_seeds + cfg.initial_leechers +
                       (cfg.spawn_local_peer ? 1u : 0u);
  j["status"] = runner::to_string(r.status);
  if (!r.error.empty()) j["error"] = r.error;
  const json::Value* digest = r.metrics.find("digest");
  const json::Value* problem = r.metrics.find("problem");
  const json::Value* peers = r.metrics.find("peers");
  const json::Value* announces = r.metrics.find("announces");
  j["digest"] = digest != nullptr ? *digest : json::Value("");
  j["problem"] = problem != nullptr ? *problem : json::Value("");
  j["peers"] = peers != nullptr ? *peers : json::Value(0);
  j["announces"] = announces != nullptr ? *announces : json::Value(0);
  j["setup_s"] = r.setup_seconds;
  j["sim_s"] = r.sim_seconds;
  j["analyze_s"] = r.analyze_seconds;
  j["end_time"] = r.end_time;
  j["completed"] = r.completed;
  j["events"] = r.events_executed;
  j["scheduled"] = r.events_scheduled;
  j["cancelled"] = r.events_cancelled;
  j["peak_pending"] = r.peak_pending;
  j["fastpath"] = r.events_fastpath;
  j["compactions"] = r.queue_compactions;
  j["train_segments"] = r.train_segments;
  return j;
}

json::Value run_unit(const Workload& w, std::uint64_t seed, int index,
                     bool traced) {
  const std::uint64_t unit_seed =
      sim::fork_seed(seed, static_cast<std::uint64_t>(index));
  const std::vector<runner::BatchJob> jobs = w.jobs(unit_seed);
  runner::BatchOptions bopts;
  bopts.jobs = w.workers;
  bopts.master_seed = unit_seed;
  runner::BatchRunner batch(bopts);
  const double extra = w.extra_after;
  std::vector<runner::RunResult> results;
  if (traced) {
    results = batch.run(jobs, [extra](const runner::BatchJob& job,
                                      const runner::JobContext& ctx) {
      return traced_job(job, ctx, extra);
    });
  } else {
    results = batch.run(jobs, [extra](const runner::BatchJob& job,
                                      const runner::JobContext& ctx) {
      return runner::run_scenario_job(
          job, ctx, extra,
          [](const swarm::ScenarioRunner& sr, const instrument::LocalPeerLog&,
             runner::RunResult& res) { analyze_outcome(sr, res); });
    });
  }
  const double wall = batch.wall_seconds();

  json::Value unit = json::Value::object();
  unit["index"] = index;
  unit["traced"] = traced;
  unit["wall_s"] = wall;
  if (!traced) {
    const auto t0 = Clock::now();
    const std::string report =
        json::dump(runner::make_report("swarmbench", bopts, results, wall));
    unit["report_s"] = seconds_since(t0);
    sink(report.size());
  }
  Fnv digest;
  json::Value records = json::Value::array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const json::Value* d = results[i].metrics.find("digest");
    digest.add(d != nullptr && d->is_string() ? d->as_string()
                                              : std::string());
    records.push_back(job_record(jobs[i], results[i]));
  }
  unit["digest"] = hex(digest.value());
  unit["jobs"] = std::move(records);
  return unit;
}

/// run_unit between two calibrations; the unit's host.calib_s is their
/// mean.
json::Value calibrated_unit(Calibrator& calibrator, const Workload& w,
                            std::uint64_t seed, int index, bool traced) {
  const double before = calibrator.measure();
  json::Value unit = run_unit(w, seed, index, traced);
  unit["calib_s"] = (before + calibrator.measure()) / 2.0;
  return unit;
}

json::Value trace_record() {
  const swarmbench::TraceTotals t = swarmbench::trace_totals();
  json::Value spans = json::Value::object();
  for (std::size_t i = 0; i < swarmbench::kSpanCount; ++i) {
    const swarmbench::SpanStats& s = t.spans[i];
    json::Value v = json::Value::object();
    v["calls"] = s.calls;
    v["total_s"] = static_cast<double>(s.total_ns) * 1e-9;
    v["self_s"] = static_cast<double>(s.self_ns) * 1e-9;
    v["min_self_s"] = static_cast<double>(s.min_self_ns) * 1e-9;
    spans[swarmbench::span_name(static_cast<swarmbench::SpanId>(i))] =
        std::move(v);
  }
  json::Value out = json::Value::object();
  out["spans"] = std::move(spans);
  out["flow_bytes"] = t.flow_bytes;
  out["job_s"] = static_cast<double>(t.job_ns) * 1e-9;
  out["top_level_s"] = static_cast<double>(t.top_level_ns) * 1e-9;
  return out;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N (--seconds S | --units N) "
               "[--canary-seed C] [--trace] [--spans PATH]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 20061025;
  double seconds = 0.0;
  int units = 0;
  bool trace = false;
  std::string spans_path;
  bool canary = false;
  std::uint64_t canary_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      name = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value(), nullptr);
    } else if (arg == "--units") {
      units = std::atoi(value());
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--spans") {
      spans_path = value();
    } else if (arg == "--canary-seed") {
      canary = true;
      canary_seed = std::strtoull(value(), nullptr, 10);
    } else {
      usage(argv[0]);
    }
  }
  const std::vector<Workload> all = workloads();
  const auto it =
      std::find_if(all.begin(), all.end(),
                   [&](const Workload& w) { return w.name == name; });
  if (it == all.end() || (seconds <= 0.0 && units <= 0)) usage(argv[0]);
  const Workload& w = *it;
  if (trace) swarmbench::register_timed_backends();

  try {
    // The fingerprint covers what the workload passes, not the seed.
    Fnv fingerprint;
    fingerprint.add(w.extra_after);
    fingerprint.add(w.workers);
    std::uint32_t max_pieces = 0;
    for (const runner::BatchJob& job : w.jobs(0)) {
      fingerprint.add(job.id);
      fingerprint.add(job.name);
      add_config(fingerprint, job.config);
      max_pieces = std::max(max_pieces, job.config.num_pieces);
    }

    json::Value out = json::Value::object();
    out["workload"] = w.name;
    out["seed"] = seed;
    out["workers"] = w.workers;
    out["fingerprint"] = hex(fingerprint.value());
    json::Value unit_records = json::Value::array();
    Calibrator calibrator(w.workers);
    if (canary) out["canary"] = run_unit(w, canary_seed, 0, false);
    const auto start = Clock::now();
    double slowest_round = 0.0;
    for (int i = 0; units > 0 ? i < units : true; ++i) {
      if (units <= 0 && i > 0 &&
          seconds_since(start) + slowest_round > seconds) {
        break;
      }
      const auto round_start = Clock::now();
      unit_records.push_back(calibrated_unit(calibrator, w, seed, i, false));
      if (trace) {
        unit_records.push_back(calibrated_unit(calibrator, w, seed, i, true));
      }
      slowest_round = std::max(slowest_round, seconds_since(round_start));
    }
    out["units"] = std::move(unit_records);
    if (trace) {
      out["trace"] = trace_record();
      json::Value kernels = json::Value::object();
      kernels["pick_rarest_ns"] = pick_rarest_ns(max_pieces, seed);
      kernels["choke_select_ns"] = choke_select_ns(seed);
      out["kernels"] = std::move(kernels);
      if (!spans_path.empty() && !swarmbench::write_spans(spans_path)) {
        std::fprintf(stderr, "swarmbench: cannot write %s\n",
                     spans_path.c_str());
        return 1;
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out["peak_rss_kb"] = static_cast<std::int64_t>(ru.ru_maxrss);
    json::Value host = json::Value::object();
    host["hardware_threads"] = std::thread::hardware_concurrency();
#if defined(__clang__)
    host["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
    host["compiler"] = "gcc " __VERSION__;
#endif
    out["host"] = std::move(host);
    std::printf("%s\n", json::dump(out).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swarmbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
