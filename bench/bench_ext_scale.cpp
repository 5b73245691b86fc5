// Extension E-scale: mega-swarm flash crowds — 1k / 4k / 10k peers.
//
// The paper's Table I tops out at ~12k peers (torrent 26); the sweep
// benches scale those rows down to stay affordable. This bench goes the
// other way: it runs the catalog's "mega-flash" base (1k cold leechers,
// an arrival storm, briefly-lingering seeds) through
// ScenarioBuilder::scale(4) and scale(10), on both network backends, and
// reports wall-clock cost next to the deterministic event counts. It is
// the workload behind the CI mega-swarm smoke, which also bounds the 4k
// tier's max RSS: every swarm hot path that is accidentally
// O(population) per tick shows up here as a superlinear wall_s column,
// and per-peer state that grows with the population as memory, long
// before either hurts anywhere else.
//
// Each job also records a sampled swarm-entropy estimate
// (swarm_entropy_sampled over 64 leechers, private RNG — the exact
// O(leechers²) walk would cost more than the simulation at 10k): the
// flash crowd should sit near ideal entropy once startup ends (§IV-A.1).
//
// stdout carries wall-clock numbers (NOT byte-stable); end_time, events
// and the metrics are deterministic — identical for any --jobs value.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace swarmlab;

struct Tier {
  const char* name;
  double factor;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --tier before handing the rest to the shared parser.
  std::string tier = "all";
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tier") == 0 && i + 1 < argc) {
      tier = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (tier != "all" && tier != "1k" && tier != "4k" && tier != "10k") {
    std::fprintf(stderr, "%s: unknown tier '%s' (1k, 4k, 10k or all)\n",
                 argv[0], tier.c_str());
    return 2;
  }
  const auto opts = bench::parse_bench_options(static_cast<int>(rest.size()),
                                               rest.data());

  const Tier tiers[] = {{"1k", 1.0}, {"4k", 4.0}, {"10k", 10.0}};
  // --backend restricts to one backend; the default runs both so the
  // packet and fluid scaling curves land in one report.
  std::vector<std::string> backends;
  if (opts.backend_explicit) {
    backends.push_back(opts.backend);
  } else {
    backends = {"fluid", "packet"};
  }

  std::vector<runner::BatchJob> jobs;
  int id = 0;
  for (const Tier& t : tiers) {
    for (const std::string& backend : backends) {
      // Ids advance over the full tier x backend grid even when
      // filtered, so a single-tier run reproduces the same trajectories
      // as the full sweep.
      ++id;
      if (tier != "all" && tier != t.name) continue;
      runner::BatchJob job;
      job.id = id;
      job.config = swarm::ScenarioBuilder::from_catalog("mega-flash")
                       .scale(t.factor)
                       .name(std::string("mega-flash-") + t.name)
                       .backend(backend)
                       .build();
      job.name = job.config.name + "/" + backend;
      job.seed = sim::fork_seed(opts.seed, static_cast<std::uint64_t>(id));
      job.config.observation =
          bench::observation_plan("bench_ext_scale", opts, job.id);
      // Swarm-scope probes over thousands of peers only pay for detail
      // logs on the first 64 tracked peers; counters stay global.
      job.config.observation.detail_peer_cap = 64;
      jobs.push_back(std::move(job));
    }
  }

  std::printf("=== Extension E-scale: mega-swarm flash crowds ===\n");
  std::printf("seed=%llu jobs=%d base=mega-flash (catalog), tiers x "
              "backends=%zu\n\n",
              static_cast<unsigned long long>(opts.seed), opts.jobs,
              jobs.size());
  std::printf("%-22s %10s %14s %12s %10s %10s %10s\n", "tier/backend",
              "wall_s", "events", "events/s", "peers", "done", "entropy~");

  if (!opts.hostile.empty() && !bench::apply_hostile_spec(opts.hostile, jobs)) {
    return 2;
  }
  runner::BatchOptions bopts;
  bopts.jobs = opts.jobs;
  bopts.master_seed = opts.seed;
  bopts.job_timeout = opts.timeout;
  bopts.retries = opts.retries;
  bopts.checkpoint_path = opts.resume_path;
  runner::BatchRunner batch(bopts);
  const auto results = batch.run(
      jobs,
      [](const runner::BatchJob& job, const runner::JobContext& ctx) {
        // extra_after = duration runs the arrival storm to the end of
        // the scenario window even after the local peer finishes.
        return runner::run_scenario_job(
            job, ctx, job.config.duration,
            [&job](const swarm::ScenarioRunner& r,
                   const instrument::LocalPeerLog&, runner::RunResult& res) {
              // Sampled entropy with a private stream: 64 leechers is
              // plenty for a point estimate and never touches the
              // simulation's RNG.
              sim::Rng rng(sim::fork_seed(job.seed, 0xE57u));
              res.metrics["entropy_sampled"] =
                  swarm::swarm_entropy_sampled(r.swarm(), 64, rng);
              res.metrics["active_peers"] =
                  static_cast<double>(r.swarm().active_peers());
              res.metrics["peers_total"] =
                  static_cast<double>(r.swarm().peer_ids().size());
              res.metrics["tracker_announces"] = static_cast<double>(
                  r.swarm().tracker().stats().announces);
            });
      },
      [](const runner::RunResult& r) {
        const double evps =
            r.sim_seconds > 0.0
                ? static_cast<double>(r.events_executed) / r.sim_seconds
                : 0.0;
        const auto metric = [&r](const char* name) {
          const auto* v = r.metrics.find(name);
          return v != nullptr ? v->as_double() : 0.0;
        };
        std::printf("%-22s %10.2f %14llu %12.0f %10.0f %10.0f %10.3f\n",
                    r.name.c_str(), r.sim_seconds,
                    static_cast<unsigned long long>(r.events_executed), evps,
                    metric("peers_total"), metric("active_peers"),
                    metric("entropy_sampled"));
        std::fflush(stdout);
      });

  if (!opts.json_path.empty()) {
    const auto report = runner::make_report("bench_ext_scale", bopts,
                                            results, batch.wall_seconds());
    std::string error;
    if (!runner::write_report(opts.json_path, report, &error)) {
      std::fprintf(stderr, "bench_ext_scale: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nReport written to %s (schema %s).\n",
                opts.json_path.c_str(), runner::kReportSchema);
  }
  std::printf("\nwall_s varies with the host; events, peers and the "
              "sampled entropy are\ndeterministic for any --jobs value. "
              "Sub-linear events/s decay across tiers\nmeans a hot path "
              "is super-linear in population.\n");
  const std::string summary = runner::failure_summary(results);
  if (!summary.empty()) {
    std::fputs(summary.c_str(), stderr);
    return 1;
  }
  return 0;
}
