#!/usr/bin/env python3
"""The cslack layered benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds; the bounds there hold for runs of that length only. The script builds the `perfbench` package
(cargo, release profile, `CARGO_TARGET_DIR` respected), then for each
workload:

* set-up: SETUP_PROCS fresh processes each time cold construction
  (the `c(eps, m)` solve is memoized per process, so a warm process
  would hide it); `setup_s` is their median;
* --trace 0: one fresh process runs the workload for --seconds and
  reports the end-to-end metrics;
* --trace 1: an untraced process of the workload and a traced process
  of each workload split --seconds. The per-layer metrics come from the
  workload's own traced process, and those of layers it does not
  exercise from a traced process of a workload that does (printed as
  "[on <workload>]"). The gap between the untraced and the traced
  `decisions_per_s` of the workload is the tracing overhead.

Every measurement process checks each cycle's decisions against
`sim::simulate` of the same instance and exits nonzero on a mismatch.
Output: a table of every metric with its unit and sample count, one
`host:` provenance line, and as the last line one JSON object with the
keys correct, attempted, failed and metrics. Full reports and traced
spans go to perfbench/out/. Exits nonzero, without a result line, when a
build, a process or a decision check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ["sim_iaas_m64", "engine_burst_m8", "wire_burst_m8"]
SETUP_PROCS = 15
SOLVE_PROCS = 5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_lists():
    """The end-to-end and per-layer metrics, as (name, unit) pairs, from
    BENCHMARK.json."""
    spec = load_spec()
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


class BenchError(Exception):
    pass


def build():
    """Builds the benchmark binary and returns its path."""
    for need in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found next to perfbench/: run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if done.returncode != 0:
        raise BenchError("cargo build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    if not os.path.isfile(exe):
        raise BenchError(f"built binary not found at {exe}")
    return exe


def child(exe, args, timeout):
    """Runs one benchmark process and returns its JSON report."""
    try:
        done = subprocess.run([exe] + args, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench {' '.join(args)} timed out after {timeout} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"perfbench {' '.join(args)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def metric_values(reports, name):
    return [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]


def setup_median(exe, workload, seed, solve, procs):
    args = ["setup", workload, "--seed", str(seed)] + (["--solve"] if solve else [])
    reports = [child(exe, args, 120) for _ in range(procs)]
    name = "ratio.solve_ms" if solve else "setup_s"
    return statistics.median(metric_values(reports, name)), procs


def measure(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (metrics {name: (value, unit, n)},
    sources {name: workload measured on}, attempted, failed, correct, raw)."""
    raw = {}
    metrics = {}
    sources = {}
    args = ["measure", workload, "--seed", str(seed)]
    timeout = seconds + 150
    if trace:
        # Every workload reports every per-layer metric: a layer this
        # workload does not exercise is taken from a traced slice of one
        # that does, so no per-layer figure is a placeholder.
        os.makedirs(OUT, exist_ok=True)
        share = seconds / (len(WORKLOADS) + 1)
        plain = child(exe, args + ["--seconds", str(share)], timeout)
        raw["untraced"] = plain
        runs = [plain]
        for w in [workload] + [w for w in WORKLOADS if w != workload]:
            spans = os.path.join(OUT, f"spans-{w}-seed{seed}.jsonl")
            traced = child(exe, ["measure", w, "--seed", str(seed), "--seconds", str(share),
                                 "--trace", "--spans", spans], timeout)
            raw[f"traced.{w}"] = traced
            runs.append(traced)
            for name, m in traced["metrics"].items():
                if name not in metrics:
                    metrics[name] = (m["value"], m["unit"], m["n"])
                    sources[name] = w
        solve, n = setup_median(exe, workload, seed, True, SOLVE_PROCS)
        metrics["ratio.solve_ms"] = (solve, "ms", n)
        sources["ratio.solve_ms"] = workload
        base = plain["metrics"]["decisions_per_s"]
        metrics["trace.untraced_decisions_per_s"] = (base["value"], "1/s", base["n"])
        sources["trace.untraced_decisions_per_s"] = workload
        traced_dps = metrics["trace.decisions_per_s"][0]
        metrics["trace.overhead_frac"] = (1.0 - traced_dps / base["value"], "ratio", None)
        sources["trace.overhead_frac"] = workload
    else:
        plain = child(exe, args + ["--seconds", str(seconds)], timeout)
        raw["untraced"] = plain
        for name, m in plain["metrics"].items():
            metrics[name] = (m["value"], m["unit"], m["n"])
        setup, n = setup_median(exe, workload, seed, False, SETUP_PROCS)
        metrics["setup_s"] = (setup, "s", n)
        runs = [plain]
        sources = {name: workload for name in metrics}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    raw["info"] = plain.get("info", {})
    return metrics, sources, attempted, failed, correct, raw


def first_line(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip().splitlines()[0] if done.returncode == 0 else None
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """SHA-256 over the program and benchmark sources, so results from a
    checkout that is not a git repository still name the code."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", os.path.join("perfbench", "src"),
             os.path.join("perfbench", "Cargo.toml"), os.path.join("perfbench", "run.py")]
    files = []
    for r in roots:
        path = os.path.join(ROOT, r)
        if os.path.isfile(path):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.relpath(os.path.join(dirpath, f), ROOT) for f in filenames]
    for rel in sorted(files):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def host_block(seed, seconds, trace, workload, info):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": first_line(["rustc", "-V"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "job_count": info.get("jobs_per_call") or info.get("jobs_per_cycle"),
        "cycles": info.get("calls") or info.get("cycles"),
    }


def show(workload, metrics, sources, wanted):
    print(f"== {workload}")
    rows = [(name, metrics[name]) for name, _ in wanted]
    listed = {name for name, _ in wanted}
    extra = [(name, m) for name, m in sorted(metrics.items()) if name not in listed]
    if extra:
        rows += [("-- also measured", None)] + extra
    for name, m in rows:
        if m is None:
            print(f"  {name}")
            continue
        value, unit, n = m
        samples = "" if n is None else f"  (n={n})"
        source = sources.get(name, workload)
        elsewhere = "" if source == workload else f"  [on {source}]"
        print(f"  {name:34s} {value:>16.6g} {unit}{samples}{elsewhere}")


def run_one(exe, workload, seed, seconds, trace):
    metrics, sources, attempted, failed, correct, raw = measure(exe, workload, seed, seconds,
                                                               trace)
    end_to_end, per_layer = metric_lists()
    wanted = per_layer if trace else end_to_end
    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        raise BenchError(f"{workload}: no measurement of {', '.join(missing)}")
    show(workload, metrics, sources, wanted)
    failed_frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':34s} {failed_frac:>16.6g} ratio  ({failed} of {attempted} jobs)")
    host = host_block(seed, seconds, trace, workload, raw["info"])
    print("host: " + json.dumps(host, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump({"host": host, "metrics": metrics, "sources": sources, "raw": raw}, f, indent=1,
                  sort_keys=True)
    if not correct:
        raise BenchError(f"{workload}: decisions differ from sim::simulate of the same instance")
    result = {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted}
    return result, attempted, failed


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; defaults to BENCHMARK.json's run_seconds, the length "
                        "the bounds were measured at")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    a = p.parse_args()
    try:
        if a.seconds is None:
            a.seconds = float(load_spec()["run_seconds"])
        if a.seconds <= 0:
            p.error("--seconds must be positive")
        exe = build()
        chosen = WORKLOADS if a.workload == "all" else [a.workload]
        combined, attempted, failed = {}, 0, 0
        for w in chosen:
            result, att, fail = run_one(exe, w, a.seed, a.seconds, bool(a.trace))
            attempted += att
            failed += fail
            if len(chosen) == 1:
                combined = result
            else:
                combined.update({f"{w}.{k}": v for k, v in result.items()})
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
