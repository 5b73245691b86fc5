#!/usr/bin/env python3
"""The swarmlab benchmark: cost per simulated trajectory, end to end and
layer by layer.

Builds benchmark/swarmbench against the swarmlab sources of this checkout
(Release, into .bench_build/), runs each workload in a child process of
its own and prints one `workload metric value unit` line per metric. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.

  python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
  python3 benchmark/run.py [--workload NAME] --repeats N [--out SET.json [--append]]
  python3 benchmark/run.py --selftest
  python3 benchmark/run.py --write-pins

--repeats runs every selected workload N times, round-robin, all on one
seed, and writes a set file for benchmark/compare.py; --append adds the
runs to an existing set, so two checkouts can take turns. --write-pins
regenerates benchmark/pins.json; run it only when a workload changes on
purpose.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "benchmark"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "benchmark" / "swarmbench"
OUT = HERE / "out"
PINS_PATH = HERE / "pins.json"
BUILD_TYPE = "Release"
SELFTEST_WORKLOADS = ["selftest_fluid", "selftest_packet", "selftest_table1"]
# Units pinned per workload at the default seed: more than a fast host
# runs in one run.
PINNED_UNITS = 20
CHILD_TIMEOUT_S = 170
# host.calib_s of a quiet reference host (a 4-vCPU KVM guest on a Xeon,
# gcc 12.2, Release). Times are reported at that host's speed: measured
# seconds x REFERENCE_CALIB_S / host.calib_s of the same unit.
REFERENCE_CALIB_S = 0.030


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_quiet(cmd):
    r = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"{' '.join(str(c) for c in cmd[:2])} failed")


def build():
    """Configures once, then rebuilds swarmbench if any source changed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no swarmlab sources beside benchmark/ "
             "(expected CMakeLists.txt and src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", ROOT, "-B", BUILD,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                   f"-DCMAKE_PROJECT_INCLUDE={HERE / 'attach.cmake'}"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "swarmbench", "-j", jobs])


def run_child(workload, seed, seconds=None, units=None, trace=False,
              spans=None, canary_seed=None):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    cmd += ["--units", str(units)] if units else ["--seconds", repr(seconds)]
    if canary_seed is not None:
        cmd += ["--canary-seed", str(canary_seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: swarmbench did not finish in {CHILD_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{workload}: swarmbench exited with {r.returncode}")
    return json.loads(r.stdout)


# --- correctness -------------------------------------------------------------

def check(record, pins):
    """Returns (attempted, failed, errors) for one swarmbench record.

    A config fingerprint that differs from the pin means the workload
    changed: every job counts as failed. A unit digest that differs from
    its pin or from its untraced twin is a wrong output, as is a job that
    did not complete or broke a sanity check. Pins exist for the default
    seed, which the canary unit always runs.
    """
    pin = pins["workloads"].get(record["workload"], {})
    canary = record.get("canary")
    units = record["units"] + ([canary] if canary else [])
    jobs = [j for u in units for j in u["jobs"]]
    if record["fingerprint"] != pin.get("fingerprint"):
        return len(jobs), len(jobs), [
            f"workload changed: config fingerprint {record['fingerprint']}, "
            f"pinned {pin.get('fingerprint')}"]
    pinned = pin.get("unit_digests", [])
    default_seed = record["seed"] == pins["default_seed"]
    plain = {u["index"]: u for u in record["units"] if not u["traced"]}
    failed = 0
    errors = []
    for u in units:
        i = u["index"]
        name = "canary unit" if u is canary else f"unit {i}"
        expected = pinned[i] if (u is canary or default_seed) and \
            i < len(pinned) else None
        wrong = None
        if expected is not None and u["digest"] != expected:
            wrong = f"{name} digest {u['digest']}, pinned {expected}"
        elif u["traced"] and u["digest"] != plain[i]["digest"]:
            wrong = f"tracing changed the trajectory of unit {i}"
        if wrong:
            errors.append(f"wrong output: {wrong}")
        for j in u["jobs"]:
            if j["status"] != "completed":
                errors.append(f"{name} job {j['id']}: {j['status']} "
                              f"{j.get('error', '')}".rstrip())
            elif j["problem"]:
                errors.append(f"wrong output: {name} job {j['id']}: "
                              f"{j['problem']}")
            elif not wrong:
                continue
            failed += 1
    return len(jobs), failed, errors


# --- metrics -----------------------------------------------------------------

def med(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def job_wall(j):
    return j["setup_s"] + j["sim_s"] + j["analyze_s"]


def unit_setup(u):
    return sum(j["setup_s"] for j in u["jobs"])


def scaled(u, seconds):
    """Seconds measured in unit `u`, at the reference host's speed."""
    return seconds * REFERENCE_CALIB_S / u["calib_s"]


def end_to_end(record):
    plain = [u for u in record["units"] if not u["traced"]]
    return {
        "wall_s": med([scaled(u, u["wall_s"]) for u in plain]),
        "setup_s": med([scaled(u, unit_setup(u)) for u in plain]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }


def per_layer(record):
    plain = [u for u in record["units"] if not u["traced"]]
    traced = [u for u in record["units"] if u["traced"]]
    n = max(1, len(traced))
    jobs = [j for u in plain for j in u["jobs"]]
    t = record["trace"]
    spans = t["spans"]

    def per_unit(key):
        return med([sum(j[key] for j in u["jobs"]) for u in plain])

    def layer(prefix):
        picked = [s for name, s in spans.items() if name.startswith(prefix)]
        return (sum(s["calls"] for s in picked),
                sum(s["self_s"] for s in picked))

    net_calls, net_self = layer("net.")
    peer_calls, peer_self = layer("peer.")
    inst_calls, inst_self = layer("instrument.")
    events = sum(j["events"] for j in jobs)
    sim_s = sum(j["sim_s"] for j in jobs)
    workers = record["workers"]
    return {
        "sim.events": per_unit("events"),
        "sim.scheduled": per_unit("scheduled"),
        "sim.cancelled": per_unit("cancelled"),
        "sim.cancel_ratio": ratio(sum(j["cancelled"] for j in jobs),
                                  sum(j["scheduled"] for j in jobs)),
        "sim.peak_pending": med([max(j["peak_pending"] for j in u["jobs"])
                                 for u in plain]),
        "sim.compactions": per_unit("compactions"),
        "sim.events_per_s": ratio(events, sim_s),
        "sim.fastpath_share": ratio(sum(j["fastpath"] for j in jobs), events),
        "sim.residual_self_s": (t["job_s"] - t["top_level_s"]) / n,
        "net.start_flow.calls": spans["net.start_flow"]["calls"] / n,
        "net.cancel_flow.calls": spans["net.cancel_flow"]["calls"] / n,
        "net.send_control.calls": spans["net.send_control"]["calls"] / n,
        "net.set_node_capacity.calls":
            spans["net.set_node_capacity"]["calls"] / n,
        "net.flow_bytes": t["flow_bytes"] / n,
        "net.train_segments": per_unit("train_segments"),
        "net.self_s": net_self / n,
        "net.ns_per_call": ratio(net_self * 1e9, net_calls),
        "peer.flow_complete.calls": spans["peer.flow_complete"]["calls"] / n,
        "peer.flow_complete.self_s": spans["peer.flow_complete"]["self_s"] / n,
        "peer.deliver.calls": spans["peer.deliver"]["calls"] / n,
        "peer.deliver.self_s": spans["peer.deliver"]["self_s"] / n,
        "peer.ns_per_callback": ratio(peer_self * 1e9, peer_calls),
        "core.pick_rarest_ns": record["kernels"]["pick_rarest_ns"],
        "core.choke_select_ns": record["kernels"]["choke_select_ns"],
        "swarm.peers_total": per_unit("peers"),
        "swarm.announces": per_unit("announces"),
        "swarm.setup_us_per_peer": 1e6 * ratio(
            sum(j["setup_s"] for j in jobs),
            sum(j["initial_peers"] for j in jobs)),
        "instrument.callbacks": inst_calls / n,
        "instrument.self_s": inst_self / n,
        "instrument.ns_per_callback": ratio(inst_self * 1e9, inst_calls),
        "runner.jobs": med([len(u["jobs"]) for u in plain]),
        "runner.worker_util": med([
            ratio(sum(job_wall(j) for j in u["jobs"]), workers * u["wall_s"])
            for u in plain]),
        "runner.job_wall_p50_s": med([job_wall(j) for j in jobs]),
        "runner.job_wall_max_s": max((job_wall(j) for j in jobs), default=0.0),
        "runner.report_s": med([u["report_s"] for u in plain]),
        "trace.overhead_share": ratio(
            sum(scaled(u, u["wall_s"]) for u in traced),
            sum(scaled(u, u["wall_s"]) for u in plain)) - 1.0,
        "host.calib_s": med([u["calib_s"] for u in plain]),
        "host.raw_wall_s": med([u["wall_s"] for u in plain]),
        "host.raw_setup_s": med([unit_setup(u) for u in plain]),
    }


# --- host record -------------------------------------------------------------

def git_state():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or \
                Path(lines[0]).resolve() != ROOT:
            return "unknown", None
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, timeout=10)
        return lines[1], bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(record):
    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": record["host"].get("compiler", "unknown"),
        "build_type": BUILD_TYPE,
        "git_sha": sha,
        "git_dirty": dirty,
    }


# --- modes -------------------------------------------------------------------

def measure(workload, seed, seconds, trace, pins, units=None):
    """One child run: returns the evaluated record (also written to out/)."""
    spans = OUT / f"{workload}.spans.jsonl" if trace else None
    started = time.time()
    record = run_child(workload, seed, seconds=seconds, units=units,
                       trace=trace, spans=spans,
                       canary_seed=pins["default_seed"])
    attempted, failed, errors = check(record, pins)
    metrics = per_layer(record) if trace else end_to_end(record)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "started": started,
        "host": host_record(record),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "calib_s": [u["calib_s"] for u in record["units"] if not u["traced"]],
        "unit_digests": [u["digest"] for u in record["units"]
                         if not u["traced"]],
        "record": record,
    }
    (OUT / f"{workload}.{'trace' if trace else 'plain'}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def units_of(spec_data, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec_data[key]}


def single_run(args, spec_data, pins):
    result = measure(args.workload, args.seed, args.seconds, args.trace, pins)
    for e in result["errors"]:
        print(f"{args.workload} error {e}", file=sys.stderr)
    units = units_of(spec_data, args.trace)
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        print(f"{args.workload} {name} {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeats(args, spec_data, pins):
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec_data["workloads"]]
    units = units_of(spec_data, args.trace)
    out = Path(args.out) if args.out else \
        OUT / time.strftime("set-%Y%m%d-%H%M%S.json")
    runs = []
    if args.append and out.is_file():
        old = load_json(out)
        if (old["seed"], old["trace"]) != (args.seed, args.trace):
            fail(f"{out} holds runs of another seed or trace setting")
        runs = old["runs"]
    for _ in range(args.repeats):
        for name in names:
            result = measure(name, args.seed, args.seconds, args.trace, pins)
            result.pop("record")
            result["repeat"] = sum(r["workload"] == name for r in runs)
            runs.append(result)
            print(f"repeat {result['repeat']} {name}: " + " ".join(
                f"{k}={result['metrics'][k]:.6g}" for k in units),
                file=sys.stderr)
    summary = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        c1, c2, c3 = quartiles([c for r in mine for c in r["calib_s"]])
        row = {"noisy": (c3 - c1) / c2 > 0.10 if c2 else False,
               "failed_share": ratio(sum(r["failed"] for r in mine),
                                     sum(r["attempted"] for r in mine)),
               "metrics": {}}
        for metric, unit in units.items():
            values = [r["metrics"][metric] for r in mine]
            q1, q2, q3 = quartiles(values)
            row["metrics"][metric] = {"median": q2, "q1": q1, "q3": q3,
                                      "n": len(values), "unit": unit}
            print(f"{name} {metric} {q2!r} {unit} q1={q1:.6g} q3={q3:.6g} "
                  f"n={len(values)}")
        print(f"{name} failed_share {row['failed_share']!r} ratio")
        if row["noisy"]:
            print(f"{name}: host.calib_s quartile spread over 10%: noisy")
        summary[name] = row
    out.write_text(json.dumps({
        "schema": "swarmbench.set/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": runs[0]["host"],
        "noisy": any(row["noisy"] for row in summary.values()),
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"set written to {out}")
    return 1 if any(r["failed"] or r["errors"] for r in runs) else 0


def selftest(pins):
    """Passivity: tracing must not change a trajectory, and its time
    accounting must close."""
    problems = []
    for name in SELFTEST_WORKLOADS:
        result = measure(name, pins["default_seed"], None, True, pins, units=1)
        problems += [f"{name}: {e}" for e in result["errors"]]
        record = result["record"]
        t = record["trace"]
        self_sum = sum(s["self_s"] for s in t["spans"].values())
        residual = t["job_s"] - t["top_level_s"]
        if abs(self_sum + residual - t["job_s"]) > 0.01 * t["job_s"]:
            problems.append(f"{name}: span self times {self_sum:.6f} s plus "
                            f"residual {residual:.6f} s != traced job wall "
                            f"{t['job_s']:.6f} s")
        negative = [n for n, s in t["spans"].items() if s["min_self_s"] < 0]
        if negative or residual < 0:
            problems.append(f"{name}: negative self time in "
                            f"{negative or ['residual']}")
        verdict = "DIFFER" if result["errors"] else "equal"
        print(f"{name}: digests {verdict}, spans {self_sum:.4f} s"
              f" + residual {residual:.4f} s = {t['job_s']:.4f} s traced")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def write_pins(spec_data, pins):
    fresh = {"default_seed": pins["default_seed"],
             "held_out_seed": pins["held_out_seed"], "workloads": {}}
    names = [w["name"] for w in spec_data["workloads"]] + SELFTEST_WORKLOADS
    for name in names:
        units = 1 if name in SELFTEST_WORKLOADS else PINNED_UNITS
        record = run_child(name, pins["default_seed"], units=units)
        for u in record["units"]:
            for j in u["jobs"]:
                if j["status"] != "completed" or j["problem"]:
                    fail(f"{name}: unit {u['index']} job {j['id']} is not "
                         f"healthy; refusing to pin it")
        fresh["workloads"][name] = {
            "fingerprint": record["fingerprint"],
            "unit_digests": [u["digest"] for u in record["units"]],
        }
        print(f"pinned {name}: {len(record['units'])} units")
    PINS_PATH.write_text(json.dumps(fresh, indent=1) + "\n")
    return 0


def main():
    spec_data = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(PINS_PATH)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=pins["default_seed"])
    p.add_argument("--seconds", type=float, default=spec_data["run_seconds"])
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--repeats", type=int)
    p.add_argument("--out")
    p.add_argument("--append", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-pins", action="store_true")
    args = p.parse_args()
    args.trace = args.trace == "1"
    known = [w["name"] for w in spec_data["workloads"]]
    if args.workload and args.workload not in known:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(known)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    OUT.mkdir(exist_ok=True)
    if args.selftest:
        return selftest(pins)
    if args.write_pins:
        return write_pins(spec_data, pins)
    if args.repeats:
        return repeats(args, spec_data, pins)
    if not args.workload:
        fail("--workload is required (or --repeats, --selftest)")
    single_run(args, spec_data, pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
