// BatchRunner: executes a set of independent (ScenarioConfig, seed) jobs
// across a std::thread worker pool and merges the results in submission
// order, so output is bit-identical regardless of worker count.
//
// Determinism contract (see docs/batch_runner.md):
//  - every job owns its Simulation/Swarm/Rng, seeded only from the job's
//    own seed (fork per-job seeds from a master with sim::fork_seed);
//  - the job function must not touch shared mutable state or the
//    terminal — it returns preformatted text and metrics instead;
//  - results (and the on_result callback, which runs on the calling
//    thread) are delivered in submission order, never completion order.
// Under those rules the RunResult sequence — and therefore stdout and the
// deterministic sections of the JSON report — is a pure function of
// (jobs, master seed). Only wall-clock timings and host info vary.
//
// Resilience (this layer survives its own jobs; see docs/batch_runner.md):
//  - failure containment: a job that throws or trips its ProgressMonitor
//    is recorded with a per-result status (failed/wedged/timeout) and the
//    sweep continues; run() never throws for job failures;
//  - per-job liveness: each attempt gets a sim::ProgressMonitor budgeted
//    from BatchOptions (job_timeout → wall budget, plus livelock/stall
//    guards), so a wedged scenario terminates with a diagnostic;
//  - deterministic retries: failed jobs re-run on their original seed up
//    to `retries` extra attempts, recording the attempt count;
//  - checkpoint/resume: when `checkpoint_path` is set, completed results
//    stream to a JSONL checkpoint as they finish; a later run with the
//    same path skips finished jobs and merges the cached results in
//    submission order, so an interrupted-then-resumed sweep is
//    byte-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "instrument/local_log.h"
#include "instrument/metrics.h"
#include "runner/json.h"
#include "sim/progress_monitor.h"
#include "swarm/scenario.h"

namespace swarmlab::runner {

/// Test-only hostility switch: makes run_scenario_job misbehave on
/// demand so resilience tests and CI can induce a wedge, a crash, or a
/// timeout in an otherwise healthy sweep. Harness-level counterpart of
/// fault::FaultPlan (which attacks the simulated swarm, not the runner).
struct HostileSpec {
  enum class Mode {
    kNone,
    kThrow,  ///< throw std::runtime_error at `at` (job status: failed)
    kWedge,  ///< zero-delay reschedule loop at `at` — livelock (wedged)
    kSpin,   ///< tiny-step reschedule loop: sim crawls forward burning
             ///< wall clock until the wall budget trips (timeout);
             ///< requires a job timeout or event budget to terminate
  };
  Mode mode = Mode::kNone;
  double at = 25.0;  ///< simulated onset time
  /// Misbehave only while the attempt number is <= this (so retry tests
  /// can fail the first attempt and succeed on the second).
  int attempts = std::numeric_limits<int>::max();

  [[nodiscard]] bool active(int attempt) const {
    return mode != Mode::kNone && attempt <= attempts;
  }
};

/// One unit of work: an independent scenario run under its own seed.
struct BatchJob {
  int id = 0;          ///< caller-meaningful id (e.g. Table-I row 1-26)
  std::string name;    ///< scenario label for the report
  swarm::ScenarioConfig config;
  std::uint64_t seed = 0;
  HostileSpec hostile;  ///< test-only; kNone in real sweeps
};

/// How a job's execution ended (independent of the simulated outcome:
/// a run whose local peer stalls under faults still executes fine and is
/// kCompleted with RunResult::completed == false).
enum class JobStatus {
  kCompleted,  ///< the job function returned normally
  kFailed,     ///< the job threw
  kWedged,     ///< ProgressMonitor liveness trip (livelock/stall/events)
  kTimeout,    ///< wall-clock budget exhausted (or external cancel)
};

[[nodiscard]] const char* to_string(JobStatus status);

/// What one job produced. `text` carries the job's preformatted
/// per-scenario stdout (printed by the caller in submission order);
/// `metrics` is the machine-readable summary embedded in the JSON report.
struct RunResult {
  int id = 0;
  std::string name;
  std::uint64_t seed = 0;
  /// Network backend the job ran on (from ScenarioConfig::network_backend).
  std::string backend;

  /// How the job's execution ended; non-kCompleted detail is in `error`.
  JobStatus status = JobStatus::kCompleted;
  /// Attempts consumed (1 = first try; > 1 means retries were used).
  int attempts = 1;

  // --- deterministic simulation outcomes -----------------------------------
  double end_time = 0.0;           ///< simulated stop time (seconds)
  double local_completion = -1.0;  ///< local-peer completion; -1 if never
  /// True when the local peer finished its download; false = the run
  /// stalled (hit the duration cap still leeching — the expected outcome
  /// of severe fault plans, and worth distinguishing machine-readably).
  bool completed = false;
  std::uint64_t events_executed = 0;
  /// Event-queue perf counters (deterministic: a pure function of the
  /// simulated trajectory, so they stay in the deterministic view).
  std::uint64_t events_scheduled = 0;  ///< fired + cancelled + pending
  std::uint64_t events_cancelled = 0;  ///< cancelled before firing
  std::uint64_t peak_pending = 0;      ///< high-water mark of live events
  std::uint64_t events_fastpath = 0;   ///< fired via the POD fast channel
  std::uint64_t queue_compactions = 0; ///< always 0 (eager cancellation)
  std::uint64_t train_segments = 0;    ///< segments served in coalesced trains
  json::Value metrics;             ///< bench-specific summary (object)
  /// Observability snapshot (object, schema v7): always carries "scope";
  /// swarm-scope plans add "metrics" (MetricsRegistry snapshot) and
  /// traced plans add "trace" accounting. Deterministic — it derives
  /// purely from the simulated trajectory, never from wall clock.
  json::Value telemetry;
  std::string text;                ///< preformatted row(s) for stdout

  // --- non-deterministic per-phase wall clock (seconds) --------------------
  double setup_seconds = 0.0;    ///< scenario/peer construction
  double sim_seconds = 0.0;      ///< event-loop execution
  double analyze_seconds = 0.0;  ///< post-run analyzers + formatting

  std::string error;  ///< failure/trip detail when status != kCompleted

  [[nodiscard]] bool ok() const { return status == JobStatus::kCompleted; }
};

struct BatchOptions {
  int jobs = 1;                  ///< worker threads (1 = run inline)
  std::uint64_t master_seed = 0; ///< recorded in the report
  /// Per-job wall-clock budget in seconds (<= 0 disables). A job that
  /// exceeds it is terminated at the next event boundary and recorded as
  /// kTimeout. Note: timeout trips depend on host speed, so reports from
  /// timeout-tripped sweeps are NOT byte-comparable across machines.
  double job_timeout = 0.0;
  /// Extra attempts for jobs that did not complete; each retry re-runs
  /// the job on its original seed (deterministic failures fail again,
  /// which is the honest answer; the hook exists for environmental
  /// flakiness and HostileSpec-style attempt-limited failures).
  int retries = 0;
  /// JSONL checkpoint path; empty disables. If the file exists and its
  /// header matches `master_seed`, completed entries are reused and only
  /// the remaining jobs run; fresh completions are appended as they
  /// finish (completion order, one flushed line each).
  std::string checkpoint_path;
  /// Liveness-guard defaults handed to every job attempt. `job_timeout`
  /// overrides `monitor.wall_budget` when positive.
  sim::MonitorConfig monitor;
};

/// Per-attempt context handed to the job function: the attempt number
/// (1-based) and the monitor budgets the runner asks the job to honor
/// (run_scenario_job wires them into the scenario's Simulation).
struct JobContext {
  int attempt = 1;
  sim::MonitorConfig monitor;
};

using JobFn = std::function<RunResult(const BatchJob&)>;
using JobFnCtx = std::function<RunResult(const BatchJob&, const JobContext&)>;
using ResultFn = std::function<void(const RunResult&)>;

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions opts) : opts_(opts) {}

  /// Runs every job across the worker pool. `on_result` (optional) fires
  /// on the calling thread in submission order, as early as ordering
  /// allows — with one worker this streams exactly like a sequential
  /// loop. Job failures are contained: the failing job's RunResult
  /// carries status/error, every other job still runs, and the returned
  /// vector is always indexed like `jobs` (use failure_summary() or
  /// RunResult::ok() to surface failures). Throws only for harness-level
  /// errors (e.g. an unusable checkpoint file).
  std::vector<RunResult> run(const std::vector<BatchJob>& jobs,
                             const JobFnCtx& fn,
                             const ResultFn& on_result = nullptr);

  /// Convenience overload for context-free job functions.
  std::vector<RunResult> run(const std::vector<BatchJob>& jobs,
                             const JobFn& fn,
                             const ResultFn& on_result = nullptr);

  [[nodiscard]] const BatchOptions& options() const { return opts_; }
  /// Wall-clock duration of the last run() call.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }
  /// Jobs of the last run() that were satisfied from the checkpoint.
  [[nodiscard]] std::size_t resumed_jobs() const { return resumed_jobs_; }

 private:
  BatchOptions opts_;
  double wall_seconds_ = 0.0;
  std::size_t resumed_jobs_ = 0;
};

/// Multi-line human-readable summary of every non-completed result
/// ("" when all jobs completed). Callers print it to stderr and exit
/// nonzero — the report still contains every result either way.
[[nodiscard]] std::string failure_summary(
    const std::vector<RunResult>& results);

/// Phase-timing analyzer hook: inspect the finished run and fill
/// `result.metrics` / `result.text`.
using AnalyzeFn = std::function<void(const swarm::ScenarioRunner& runner,
                                     const instrument::LocalPeerLog& log,
                                     RunResult& result)>;

/// Canonical job function: runs `job.config` under `job.seed` with an
/// instrumented local peer until the local peer completes (plus
/// `extra_after` simulated seconds), then invokes `analyze` (if any) and
/// fills the standard RunResult fields including per-phase wall clock.
/// The context's MonitorConfig is attached to the scenario's Simulation
/// as a ProgressMonitor; a trip maps to kWedged (livelock/stall/event
/// budget) or kTimeout (wall budget/cancel) with the diagnostic in
/// `error`. Honors `job.hostile` (test-only misbehavior).
RunResult run_scenario_job(const BatchJob& job, const JobContext& ctx,
                           double extra_after = 2500.0,
                           const AnalyzeFn& analyze = nullptr);

/// Context-free convenience (no budgets, first attempt).
RunResult run_scenario_job(const BatchJob& job, double extra_after = 2500.0,
                           const AnalyzeFn& analyze = nullptr);

/// The 26-torrent Table-I job list with per-job seeds forked from
/// `master` via sim::fork_seed(master, id).
std::vector<BatchJob> table1_jobs(std::uint64_t master,
                                  const swarm::ScaleLimits& limits);

// --- report assembly ---------------------------------------------------------

/// Current report schema identifier (bump on breaking layout changes).
/// v2: per-result `completed`/`stalled` flags, `wall.at_stop`, and (for
/// faulted runs) a `metrics.faults` object.
/// v3: per-result `perf` object — event-queue counters `scheduled`,
/// `cancelled`, `peak_pending` (deterministic; see docs/performance.md).
/// v4: per-result `backend` — the network backend the scenario ran on
/// ("fluid", "packet", ...; deterministic).
/// v5: per-result `status` ("completed"|"failed"|"wedged"|"timeout"),
/// `attempts`, optional `error` detail, and a report-level `failed`
/// count — the failure-containment fields (see docs/batch_runner.md).
/// v6: `perf` gains `fastpath` (events dispatched via the allocation-free
/// fast channel), `compactions` (event-queue dead-entry sweeps; always 0
/// since cancellation became eager, kept for schema stability) and
/// `train_segments` (packet segments served in coalesced trains; 0 on
/// the fluid backend). All three are deterministic.
/// v7: per-result `telemetry` object — observation scope, MetricsRegistry
/// snapshot (counters/gauges/histograms/series) for swarm-scope plans,
/// and trace accounting for traced plans (see docs/observability.md).
/// Deterministic: derived from observer callbacks only.
inline constexpr const char* kReportSchema = "swarmlab.batch/7";

/// Checkpoint header schema (first line of a checkpoint JSONL file).
/// v2: checkpoint entries carry the v6 perf counters (strict parse).
/// v3: checkpoint entries carry the v7 `telemetry` object (strict parse).
inline constexpr const char* kCheckpointSchema = "swarmlab.checkpoint/3";

/// Serializes a MetricsRegistry snapshot as the v7 `telemetry.metrics`
/// object: `counters`/`gauges` (name -> value), `histograms` (name ->
/// bounds/counts) and `series` (name -> dropped + [t,v] sample pairs),
/// all in registration order.
json::Value metrics_json(const instrument::MetricsRegistry& registry);

/// One result as a report entry (everything deterministic plus the
/// per-phase `wall` object; `text` is included only when requested —
/// report entries omit it, checkpoint lines carry it so resumed runs can
/// replay stdout byte-identically).
json::Value result_entry(const RunResult& result, bool include_text);

/// Inverse of result_entry(..., true); false if `entry` is not a
/// well-formed checkpoint entry.
bool result_from_entry(const json::Value& entry, RunResult* out);

/// Assembles the aggregate report: schema version, tool name, git
/// describe (baked in at build time), host info, master seed, worker
/// count, total wall clock, and one entry per result. All
/// non-deterministic fields live under the "host", "jobs",
/// "wall_seconds" and per-result "wall" keys; everything else is
/// byte-identical across worker counts.
json::Value make_report(const std::string& tool, const BatchOptions& opts,
                        const std::vector<RunResult>& results,
                        double wall_seconds);

/// Returns `report` with every non-deterministic field removed — the
/// byte-comparable core used by determinism checks.
json::Value deterministic_view(const json::Value& report);

/// Writes `report` to `path` (pretty-printed, trailing newline).
bool write_report(const std::string& path, const json::Value& report,
                  std::string* error = nullptr);

}  // namespace swarmlab::runner
