// Tests for the parallel batch scenario runner and its JSON report
// machinery: writer/parser round-trips and escaping edge cases, ordered
// result merging, error propagation, and the headline determinism
// guarantee — a 26-scenario Table-I sweep produces byte-identical
// aggregated results for 1 worker and 8 workers.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runner/batch_runner.h"
#include "runner/json.h"
#include "sim/rng.h"
#include "swarm/scenario.h"

namespace swarmlab {
namespace {

using runner::BatchJob;
using runner::BatchOptions;
using runner::BatchRunner;
using runner::JobStatus;
using runner::RunResult;
using runner::failure_summary;
namespace json = runner::json;

// --- JSON writer -------------------------------------------------------------

TEST(JsonWriter, Scalars) {
  EXPECT_EQ(json::dump(json::Value()), "null");
  EXPECT_EQ(json::dump(json::Value(true)), "true");
  EXPECT_EQ(json::dump(json::Value(false)), "false");
  EXPECT_EQ(json::dump(json::Value(0)), "0");
  EXPECT_EQ(json::dump(json::Value(-42)), "-42");
  EXPECT_EQ(json::dump(json::Value(18446744073709551615ull)),
            "18446744073709551615");
  EXPECT_EQ(json::dump(json::Value(1.5)), "1.5");
  EXPECT_EQ(json::dump(json::Value("hi")), "\"hi\"");
}

TEST(JsonWriter, EscapesControlAndSpecialCharacters) {
  const std::string nasty = std::string("a\"b\\c\n\t\r\b\f") + '\x01' + "z";
  const std::string out = json::dump(json::Value(nasty));
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001z\"");
}

TEST(JsonWriter, Utf8PassesThrough) {
  const std::string s = "caf\xc3\xa9";  // café in UTF-8
  EXPECT_EQ(json::dump(json::Value(s)), "\"caf\xc3\xa9\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(json::dump(json::Value(std::nan(""))), "null");
  EXPECT_EQ(json::dump(json::Value(1.0 / 0.0)), "null");
}

TEST(JsonWriter, ObjectsKeepInsertionOrder) {
  auto v = json::Value::object();
  v["zebra"] = 1;
  v["alpha"] = 2;
  v["zebra"] = 3;  // update in place, order preserved
  EXPECT_EQ(json::dump(v), "{\"zebra\":3,\"alpha\":2}");
}

TEST(JsonWriter, PrettyPrinting) {
  auto v = json::Value::object();
  v["a"] = 1;
  auto arr = json::Value::array();
  arr.push_back(2);
  v["b"] = std::move(arr);
  EXPECT_EQ(json::dump(v, 2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(json::dump(json::Value::object(), 2), "{}");
  EXPECT_EQ(json::dump(json::Value::array(), 2), "[]");
}

TEST(JsonWriter, DoubleRoundTripsExactly) {
  for (const double d : {0.1, 1.0 / 3.0, 1e-300, 1e300, 12345.6789,
                         -0.000123}) {
    json::Value parsed;
    ASSERT_TRUE(json::parse(json::dump(json::Value(d)), &parsed));
    EXPECT_EQ(parsed.as_double(), d);
  }
}

// --- JSON parser -------------------------------------------------------------

TEST(JsonParser, RoundTripsNestedStructures) {
  auto v = json::Value::object();
  v["name"] = "sweep";
  v["count"] = 26;
  v["ratio"] = 0.375;
  v["flag"] = true;
  v["missing"] = json::Value();
  auto arr = json::Value::array();
  for (int i = 0; i < 3; ++i) {
    auto entry = json::Value::object();
    entry["id"] = i;
    entry["text"] = "row \"quoted\" \\ end\n";
    arr.push_back(std::move(entry));
  }
  v["rows"] = std::move(arr);

  for (const int indent : {-1, 0, 2, 4}) {
    json::Value parsed;
    std::string error;
    ASSERT_TRUE(json::parse(json::dump(v, indent), &parsed, &error))
        << error;
    EXPECT_TRUE(parsed == v) << "indent=" << indent;
    // Byte-stability: dump(parse(dump(x))) == dump(x).
    EXPECT_EQ(json::dump(parsed, indent), json::dump(v, indent));
  }
}

TEST(JsonParser, UnicodeEscapes) {
  json::Value v;
  ASSERT_TRUE(json::parse("\"\\u0041\\u00e9\\u20ac\"", &v));
  EXPECT_EQ(v.as_string(), "A\xc3\xa9\xe2\x82\xac");  // A é €
}

TEST(JsonParser, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",       "[1,",      "{\"a\":}",  "tru",
      "01x",        "-",       "\"\x01\"", "\"unterminated",
      "{\"a\":1,}", "[1] []",  "{'a':1}",  "\"\\q\"",   "\"\\u12g4\"",
  };
  for (const char* text : bad) {
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(text, &v, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParser, RejectsTrailingGarbageAfterTopLevelValue) {
  // Regression: a complete value followed by junk must fail, never
  // silently return the prefix.
  const char* bad[] = {
      "{}x",      "{} {}",   "[1]2",       "1 2",
      "null!",    "true,",   "\"a\"b",     "{\"a\":1}\xe2\x82\xac",
  };
  for (const char* text : bad) {
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(text, &v, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // Trailing whitespace (including newlines) is NOT garbage.
  json::Value v;
  ASSERT_TRUE(json::parse("{\"a\": 1}  \n\t ", &v));
  EXPECT_EQ(v.find("a")->as_int64(), 1);
}

TEST(JsonParser, RejectsSloppyNumberGrammar) {
  // RFC 8259: int = "0" / [1-9] DIGIT*; frac and exp need >= 1 digit.
  const char* bad[] = {
      "01", "0123", "-01", "00", "1.", "-1.", ".5", "-.5", "1.e5",
      "1e",  "1e+",  "+1",  "[01]", "{\"a\":00}",
  };
  for (const char* text : bad) {
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(text, &v, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // The strict forms these sloppy spellings shadow stay accepted.
  const char* good[] = {"0", "-0", "10", "0.5", "1.0e5", "0e0"};
  for (const char* text : good) {
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::parse(text, &v, &error)) << text << ": " << error;
  }
}

TEST(JsonWriter, RoundTripRejectsAppendedGarbage) {
  // Writer output is exactly one value: round-trip parses, but the same
  // bytes with anything appended must not.
  json::Value v = json::Value::object();
  v["pi"] = 3.25;
  v["n"] = -7;
  auto arr = json::Value::array();
  arr.push_back(true);
  arr.push_back(json::Value());
  v["flags"] = std::move(arr);
  const std::string text = json::dump(v);
  json::Value parsed;
  ASSERT_TRUE(json::parse(text, &parsed));
  EXPECT_TRUE(parsed == v);
  for (const char* suffix : {"x", "{}", "0", " null"}) {
    json::Value junk;
    std::string error;
    EXPECT_FALSE(json::parse(text + suffix, &junk, &error)) << suffix;
  }
}

TEST(JsonParser, ParsesNumbersIntoNarrowestKind) {
  json::Value v;
  ASSERT_TRUE(json::parse("[-3, 7, 18446744073709551615, 2.5, 1e3]", &v));
  EXPECT_EQ(v.at(0).as_int64(), -3);
  EXPECT_EQ(v.at(1).as_int64(), 7);
  EXPECT_EQ(v.at(2).as_uint64(), 18446744073709551615ull);
  EXPECT_EQ(v.at(3).as_double(), 2.5);
  EXPECT_EQ(v.at(4).as_double(), 1000.0);
}

// --- seed forking ------------------------------------------------------------

TEST(ForkSeed, DeterministicAndWellSpread) {
  EXPECT_EQ(sim::fork_seed(1, 0), sim::fork_seed(1, 0));
  std::vector<std::uint64_t> seen;
  for (std::uint64_t master = 0; master < 4; ++master) {
    for (std::uint64_t stream = 0; stream < 64; ++stream) {
      seen.push_back(sim::fork_seed(master, stream));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "fork_seed collision across adjacent masters/streams";
}

// --- BatchRunner mechanics ---------------------------------------------------

std::vector<BatchJob> fake_jobs(int n) {
  std::vector<BatchJob> jobs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    jobs[static_cast<std::size_t>(i)].id = i;
    jobs[static_cast<std::size_t>(i)].seed = sim::fork_seed(7, i);
  }
  return jobs;
}

TEST(BatchRunner, MergesResultsInSubmissionOrder) {
  for (const int workers : {1, 2, 8}) {
    BatchOptions opts;
    opts.jobs = workers;
    BatchRunner batch(opts);
    std::vector<int> emitted;
    const auto results = batch.run(
        fake_jobs(20),
        [](const BatchJob& job) {
          // Early jobs sleep longest so completion order inverts
          // submission order under parallelism.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(job.id < 5 ? 20 - job.id : 0));
          RunResult r;
          r.id = job.id;
          r.seed = job.seed;
          return r;
        },
        [&](const RunResult& r) { emitted.push_back(r.id); });
    ASSERT_EQ(results.size(), 20u) << "workers=" << workers;
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(emitted[static_cast<std::size_t>(i)], i);
      EXPECT_EQ(results[static_cast<std::size_t>(i)].id, i);
    }
  }
}

TEST(BatchRunner, ContainsJobFailures) {
  // A throwing job no longer aborts the sweep: its result carries
  // status=failed and the error text, every other job still runs, and
  // failure_summary() gives callers the nonzero-exit signal.
  BatchOptions opts;
  opts.jobs = 4;
  BatchRunner batch(opts);
  const auto results = batch.run(fake_jobs(8),
                                 [](const BatchJob& job) -> RunResult {
                                   if (job.id == 5) {
                                     throw std::runtime_error("boom");
                                   }
                                   RunResult r;
                                   r.id = job.id;
                                   return r;
                                 });
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) {
    if (r.id == 5) {
      EXPECT_EQ(r.status, JobStatus::kFailed);
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.error, "boom");
    } else {
      EXPECT_TRUE(r.ok());
      EXPECT_TRUE(r.error.empty());
    }
  }
  const std::string summary = failure_summary(results);
  EXPECT_NE(summary.find("1 of 8 jobs did not complete"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("boom"), std::string::npos) << summary;
  EXPECT_TRUE(failure_summary({}).empty());
}

TEST(BatchRunner, ReportSeparatesDeterministicFromWallClock) {
  BatchOptions opts;
  opts.jobs = 3;
  opts.master_seed = 99;
  BatchRunner batch(opts);
  const auto results = batch.run(fake_jobs(3), [](const BatchJob& job) {
    RunResult r;
    r.id = job.id;
    r.seed = job.seed;
    r.setup_seconds = 0.25;  // pretend wall clock
    r.metrics["k"] = job.id * 2;
    return r;
  });
  const auto report =
      runner::make_report("test_tool", opts, results, batch.wall_seconds());
  EXPECT_NE(report.find("host"), nullptr);
  EXPECT_NE(report.find("wall_seconds"), nullptr);
  ASSERT_NE(report.find("results"), nullptr);
  EXPECT_NE(report.find("results")->at(0).find("wall"), nullptr);

  const auto core = runner::deterministic_view(report);
  EXPECT_EQ(core.find("host"), nullptr);
  EXPECT_EQ(core.find("jobs"), nullptr);
  EXPECT_EQ(core.find("wall_seconds"), nullptr);
  ASSERT_NE(core.find("results"), nullptr);
  ASSERT_EQ(core.find("results")->size(), 3u);
  EXPECT_EQ(core.find("results")->at(0).find("wall"), nullptr);
  EXPECT_EQ(core.find("schema")->as_string(), runner::kReportSchema);
}

TEST(BatchRunner, WriteReportRoundTrips) {
  auto report = json::Value::object();
  report["schema"] = runner::kReportSchema;
  report["value"] = 0.1;
  const std::string path =
      testing::TempDir() + "/swarmlab_batch_report_test.json";
  std::string error;
  ASSERT_TRUE(runner::write_report(path, report, &error)) << error;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  json::Value parsed;
  ASSERT_TRUE(json::parse(buf.str(), &parsed, &error)) << error;
  EXPECT_TRUE(parsed == report);
  std::remove(path.c_str());

  EXPECT_FALSE(
      runner::write_report("/nonexistent-dir/x.json", report, &error));
  EXPECT_FALSE(error.empty());
}

// --- the determinism guarantee ----------------------------------------------

swarm::ScaleLimits tiny_limits() {
  swarm::ScaleLimits limits;
  limits.max_peers = 24;
  limits.max_pieces = 16;
  limits.min_pieces = 16;
  limits.duration = 6000.0;
  return limits;
}

struct SweepOutput {
  std::string text;         // concatenated per-scenario rows
  std::string report_core;  // dump of the deterministic report view
  double wall_seconds = 0.0;
};

SweepOutput run_sweep(int workers) {
  BatchOptions opts;
  opts.jobs = workers;
  opts.master_seed = 20061025;
  BatchRunner batch(opts);
  SweepOutput out;
  const auto results = batch.run(
      runner::table1_jobs(opts.master_seed, tiny_limits()),
      [](const BatchJob& job) {
        return runner::run_scenario_job(
            job, 200.0,
            [&job](const swarm::ScenarioRunner& sr,
                   const instrument::LocalPeerLog& log, RunResult& res) {
              char row[96];
              std::snprintf(row, sizeof row, "%d done=%.2f peers=%zu\n",
                            job.id, res.local_completion,
                            log.records().size());
              res.text = row;
              res.metrics["peers_seen"] = static_cast<unsigned long long>(
                  log.records().size());
              res.metrics["events"] = sr.simulation().events_executed();
            });
      },
      [&](const RunResult& r) { out.text += r.text; });
  const auto report = runner::make_report("runner_batch_test", opts, results,
                                          batch.wall_seconds());
  out.report_core = dump(runner::deterministic_view(report), 2);
  out.wall_seconds = batch.wall_seconds();
  return out;
}

TEST(BatchDeterminism, TwentySixScenarioSweepIsIdenticalAcrossWorkerCounts) {
  const SweepOutput serial = run_sweep(1);
  const SweepOutput parallel = run_sweep(8);
  // Byte-identical per-scenario rows and aggregated deterministic report.
  EXPECT_EQ(serial.text, parallel.text);
  EXPECT_EQ(serial.report_core, parallel.report_core);
  // Sanity: the sweep actually simulated something.
  EXPECT_NE(serial.text.find("1 done="), std::string::npos);
  EXPECT_GE(serial.report_core.size(), 1000u);

  if (std::thread::hardware_concurrency() >= 4) {
    const double speedup = serial.wall_seconds / parallel.wall_seconds;
    std::printf("[ sweep    ] 26 scenarios: 1 worker %.2fs, 8 workers "
                "%.2fs (%.2fx)\n",
                serial.wall_seconds, parallel.wall_seconds, speedup);
    // Conservative bound: even a loaded 4-core runner parallelizes an
    // embarrassingly parallel sweep well past this.
    EXPECT_GT(speedup, 1.3);
  }
}

// --- golden trajectory digest ---------------------------------------------

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a_bytes(h, &v, sizeof v);
}

std::uint64_t fnv1a_double(std::uint64_t h, double v) {
  return fnv1a_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// Digests every deterministic field of a result sequence. Wall-clock
/// fields are deliberately excluded.
std::uint64_t digest_results(const std::vector<RunResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const RunResult& r : results) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.id));
    h = fnv1a_bytes(h, r.name.data(), r.name.size());
    h = fnv1a_u64(h, r.seed);
    h = fnv1a_double(h, r.end_time);
    h = fnv1a_double(h, r.local_completion);
    h = fnv1a_u64(h, r.completed ? 1 : 0);
    h = fnv1a_u64(h, r.events_executed);
    h = fnv1a_u64(h, r.events_scheduled);
    h = fnv1a_u64(h, r.events_cancelled);
    h = fnv1a_u64(h, r.peak_pending);
    h = fnv1a_bytes(h, r.text.data(), r.text.size());
  }
  return h;
}

std::vector<RunResult> run_golden_jobs(int workers,
                                      const std::string& backend = "fluid") {
  // Table-I torrent 3 at test scale, under four independent seeds.
  swarm::ScenarioConfig cfg = swarm::scenario_from_table1(3, tiny_limits());
  cfg.network_backend = backend;
  std::vector<BatchJob> jobs;
  for (int i = 1; i <= 4; ++i) {
    BatchJob job;
    job.id = i;
    job.name = "golden-" + std::to_string(i);
    job.config = cfg;
    job.seed = sim::fork_seed(20061025, static_cast<std::uint64_t>(i));
    jobs.push_back(std::move(job));
  }
  BatchOptions opts;
  opts.jobs = workers;
  opts.master_seed = 20061025;
  BatchRunner batch(opts);
  return batch.run(jobs, [](const BatchJob& job) {
    return runner::run_scenario_job(job, 200.0);
  });
}

// Pins the simulated trajectory of four fixed (scenario, seed) pairs to a
// constant. Every layer feeds this digest — RNG draw sequence, event
// fire order, picker candidate order, fluid-network rate updates — so an
// accidental behavior change anywhere in the hot path fails here, at any
// worker count. Update the constant ONLY for a change that intentionally
// alters the trajectory, and call it out in the commit message.
TEST(BatchDeterminism, GoldenTrajectoryDigestStableAcrossWorkerCounts) {
  constexpr std::uint64_t kGoldenDigest = 0xb11876bebeb36d35ull;
  const std::uint64_t serial = digest_results(run_golden_jobs(1));
  const std::uint64_t parallel = digest_results(run_golden_jobs(8));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, kGoldenDigest)
      << "trajectory digest changed: 0x" << std::hex << serial;
}

// The same four jobs on the packet backend. Self-consistency across worker
// counts cannot catch a deterministic but wrong change to segment timing or
// link scheduling; this constant can. Same update rule as above.
TEST(BatchDeterminism, PacketGoldenTrajectoryDigestStable) {
  constexpr std::uint64_t kPacketGoldenDigest = 0xa1eb0ac57041c702ull;
  const std::uint64_t serial = digest_results(run_golden_jobs(1, "packet"));
  const std::uint64_t parallel = digest_results(run_golden_jobs(8, "packet"));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, kPacketGoldenDigest)
      << "packet trajectory digest changed: 0x" << std::hex << serial;
}

std::vector<RunResult> run_faulted_golden_jobs(int workers) {
  // Same Table-I torrent, but under a compound fault plan (message loss
  // + delay jitter, random crashes, flow kills, one tracker outage), so
  // the digest also pins the fault-injection RNG stream, the liveness
  // timers, and the retry/backoff machinery.
  swarm::ScenarioConfig cfg = swarm::scenario_from_table1(3, tiny_limits());
  cfg.faults.message_loss_rate = 0.05;
  cfg.faults.message_delay_jitter = 0.25;
  cfg.faults.peer_crash_rate = 1.0 / 400.0;
  cfg.faults.flow_kill_rate = 1.0 / 200.0;
  cfg.faults.tracker_outages.push_back({40.0, 30.0});
  std::vector<BatchJob> jobs;
  for (int i = 1; i <= 4; ++i) {
    BatchJob job;
    job.id = i;
    job.name = "golden-faulted-" + std::to_string(i);
    job.config = cfg;
    job.seed = sim::fork_seed(20061025, 100 + static_cast<std::uint64_t>(i));
    jobs.push_back(std::move(job));
  }
  BatchOptions opts;
  opts.jobs = workers;
  opts.master_seed = 20061025;
  BatchRunner batch(opts);
  return batch.run(jobs, [](const BatchJob& job) {
    return runner::run_scenario_job(job, 200.0);
  });
}

// Same contract as the fault-free digest above, but on the fault path:
// replay identity must hold when the fault injector is drawing from its
// forked RNG stream and peers exercise retries, ghost eviction, and
// request timeouts. Update the constant ONLY for an intentional
// trajectory change, and call it out in the commit message.
TEST(BatchDeterminism, FaultedGoldenTrajectoryDigestStable) {
  constexpr std::uint64_t kFaultedGoldenDigest = 0xbaa33ec6ee7d33b2ull;
  const std::uint64_t serial = digest_results(run_faulted_golden_jobs(1));
  const std::uint64_t parallel = digest_results(run_faulted_golden_jobs(8));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, kFaultedGoldenDigest)
      << "faulted trajectory digest changed: 0x" << std::hex << serial;
}

TEST(BatchDeterminism, SimulationIndependentOfHostThread) {
  // The same (config, seed) job run from an ad-hoc thread and from the
  // main thread must agree event for event.
  BatchJob job;
  job.id = 3;
  job.config = swarm::scenario_from_table1(3, tiny_limits());
  job.seed = sim::fork_seed(42, 3);
  const RunResult main_thread = runner::run_scenario_job(job, 200.0);
  RunResult other_thread;
  std::thread([&] { other_thread = runner::run_scenario_job(job, 200.0); })
      .join();
  EXPECT_EQ(main_thread.end_time, other_thread.end_time);
  EXPECT_EQ(main_thread.local_completion, other_thread.local_completion);
  EXPECT_EQ(main_thread.events_executed, other_thread.events_executed);
}

}  // namespace
}  // namespace swarmlab
