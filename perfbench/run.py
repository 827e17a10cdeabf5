#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fleet --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. The script builds the perfbench Go
program (module perfbench/, which compiles against the repository's
packages) into .bench_build/. One run of a workload simulates each of
its replicas in a fresh process, so no replica inherits another's heap,
and pools them with `perfbench -pool`.

  --trace 0  one set-up-only process that builds the scenario
             several times, then repeated runs of the workload at
             --seed until --seconds have passed (at least MIN_RUNS).
             Reports the end-to-end metrics: medians of the host times
             and heap, and the simulated results, which must repeat
             exactly from run to run.
  --trace 1  pairs of an untraced and a traced run until --seconds have
             passed. Reports the per-layer metrics: work counts, process
             wakes by layer, host CPU seconds by layer from the traced
             runs' profiles, and the tracing overhead.

Every process's full result, with the traced runs' spans and progress
points and the host fingerprint, is written to .bench_build/results/,
and so is each replica's last CPU profile.
The last line of standard output is
{"correct", "attempted", "failed", "metrics"}, holding every metric
BENCHMARK.json names for the mode. A replica whose process crashes
counts as one failed operation, and the run goes on with the others; a
metric the crash left unmeasured reads 0, and the result is not
correct (README.md, "A bitmap scan can panic"). A failed build exits 1
without printing a result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")

WORKLOADS = ("fleet", "elasticity", "deploy-io")
MIN_RUNS = 3  # untraced runs per benchmark run, whatever --seconds says
DEADLINE = 170.0  # seconds; the whole benchmark run must end by 180

# Simulated end-to-end metrics, as perfbench names them.
SIM_METRICS = ("ok_frac", "ready_p50_sim_s", "ready_tail_sim_s", "baremetal_p50_sim_s")
UNITS = {"ok_frac": "frac", "ready_p50_sim_s": "sim_s", "ready_tail_sim_s": "sim_s",
         "baremetal_p50_sim_s": "sim_s"}

# Per-layer counts that are ratios; every other count is a plain count.
RATIOS = ("aoe.retransmit_ratio", "vblade.amplification", "vblade.cache_hit_rate")


class RunFailed(Exception):
    pass


class Crashed(RunFailed):
    """A perfbench process exited with an error after `elapsed` seconds."""

    def __init__(self, msg, elapsed):
        super().__init__(msg)
        self.elapsed = elapsed


def go_env():
    """Keep the Go toolchain offline and everything it writes (caches,
    telemetry, configuration) inside the checkout."""
    env = dict(os.environ)
    env.update({
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "home", ".cache"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    r = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                       capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("perfbench: build failed")


def child(args, deadline, stdin=None):
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunFailed("out of time before " + " ".join(args))
    start = time.monotonic()
    try:
        r = subprocess.run([BINARY] + args, cwd=ROOT, env=go_env(), input=stdin, capture_output=True,
                           text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise RunFailed("timed out: " + " ".join(args))
    if r.returncode != 0:
        lines = r.stderr.strip().splitlines()
        first = next((l for l in lines if l.startswith("panic:")), lines[0] if lines else "")
        raise Crashed("%s: exit %d: %s" % (" ".join(args), r.returncode, first), time.monotonic() - start)
    return json.loads(r.stdout)


def fingerprint(go_host):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host = dict(go_host)
    host.update({"nproc": os.cpu_count(), "cpu": cpu})
    return host


def run_once(common, setup, deadline, profile=None):
    """One run of the workload: each replica in its own process, pooled.
    Given a profile path prefix, the run is traced, and replica i writes
    its CPU profile to <prefix>-replica<i>.pprof. A replica that crashes
    is pooled as one failed operation that took its process's time."""
    def replica(i):
        args = common + ["-replica", str(i)]
        if profile:
            args += ["-profile", "%s-replica%d.pprof" % (profile, i)]
        try:
            return child(args, deadline)
        except Crashed as e:
            return {"workload": setup["workload"], "seed": setup["seed"], "replica": i,
                    "replicas": setup["replicas"], "wall_s": e.elapsed, "attempted": 1, "ok": 0,
                    "failed": 1, "error": "replica crashed: %s" % e}

    reps = [replica(i) for i in range(setup["replicas"])]
    pooled = child(common + ["-pool"], deadline, stdin="".join(json.dumps(r) + "\n" for r in reps))
    pooled["replicas"] = reps
    return pooled


def check_same(runs, errors):
    """Every run of one seed must simulate exactly the same thing. Traced
    runs add process-wake counts, which are compared among themselves."""
    first = {}
    for r in runs:
        for key in ("attempted", "ok", "failed", "sim"):
            want = first.setdefault(key, r[key])
            if r[key] != want:
                errors.append("%s differs between runs of one seed: %r vs %r" % (key, r[key], want))
        for k, v in r["counts"].items():
            want = first.setdefault(k, v)
            if v != want:
                errors.append("count %s differs between runs of one seed: %r vs %r" % (k, v, want))


def run_untraced(common, setup, seconds, deadline):
    runs = []
    start = time.monotonic()
    while True:
        runs.append(run_once(common, setup, deadline))
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + elapsed / len(runs) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setup["setup_reps"]), "s"),
        "peak_heap_mb": (statistics.median(r["heap_sys_mb"] for r in runs), "MB"),
    }
    for name in SIM_METRICS:
        metrics[name] = (runs[0]["sim"][name], UNITS[name])
    return runs, metrics


def run_traced(common, setup, profile, seconds, deadline):
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_once(common, setup, deadline))
        traced.append(run_once(common, setup, deadline, profile))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(traced) > seconds:
            break
    metrics = {}
    for name, v in sorted(traced[0]["counts"].items()):
        metrics[name] = (v, "ratio" if name in RATIOS else "count")
    for layer in traced[0].get("host_s", {}):
        metrics[layer + "_s"] = (statistics.mean(r["host_s"][layer] for r in traced), "s")
    metrics["profile_total_s"] = (statistics.mean(r.get("profile_s", 0) for r in traced), "s")
    overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain) - 1
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return plain + traced, metrics


def manifest_metrics(trace):
    """The metrics BENCHMARK.json names for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE

    build()
    common = ["-workload", args.workload, "-seed", str(args.seed)]
    name = "%s-seed%d" % (args.workload, args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    errors, runs, metrics, host = [], [], {}, {}
    try:
        setup = child(common + ["-setup"], deadline)
        host = fingerprint(setup["host"])
        if args.trace:
            runs, metrics = run_traced(common, setup, os.path.join(RESULTS, name), args.seconds, deadline)
        else:
            runs, metrics = run_untraced(common, setup, args.seconds, deadline)
    except RunFailed as e:
        errors.append(str(e))

    check_same(runs, errors)
    errors += ["%s: %s" % (r["workload"], r["error"]) for r in runs if r.get("error")]
    for k, unit in manifest_metrics(args.trace).items():
        if k not in metrics:
            errors.append("metric %s was not measured" % k)
            metrics[k] = (0, unit)
    out = os.path.join(RESULTS, "%s-trace%d.json" % (name, args.trace))
    with open(out, "w") as f:
        json.dump({"host": host, "errors": errors, "runs": runs,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, f, indent=1)

    for e in errors:
        sys.stderr.write("perfbench: %s\n" % e)
    print("host: " + json.dumps(host, sort_keys=True))
    if runs:
        sim = runs[0]["sim"]
        print("ready_tail_sim_s is the p%d of %d samples" % (sim["ready_tail_pct"], sim["ready_n"]))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in runs) if runs else 1,
        "failed": sum(r["failed"] for r in runs) if runs else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
