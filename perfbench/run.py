#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark runner (pbench) and ptranc from
source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload table1|wide-cfg|serve|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It prints a table of every
metric with its unit and sample count, then, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  It
exits non-zero when an output is wrong or a check fails.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("table1", "wide-cfg", "serve")
PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")
PTRANC = os.path.join("_build", "default", "bin", "ptranc.exe")
WORK = ".perfbench-work"
# Set-up of the batch workloads is timed in the measuring process and in
# this many fresh processes before and as many after it, and reported as
# the median: set-up samples taken a minute apart see more of the host's
# speed changes than samples taken back to back.
SETUP_PROCESSES = 6
# Whole-run budget for one workload, seconds.
RUN_TIMEOUT = 160

# Per-layer metrics: name (also the key of its per-request samples in the
# pbench output) and unit.
PER_LAYER = [
    ("frontend.busy_s", "s"), ("frontend.alloc_mwords", "Mwords"),
    ("frontend.cfg_nodes", "count"),
    ("analysis.busy_s", "s"), ("analysis.alloc_mwords", "Mwords"),
    ("analysis.ecfg_nodes", "count"),
    ("placement.busy_s", "s"), ("placement.alloc_mwords", "Mwords"),
    ("placement.counters", "count"),
    ("vm.compile_s", "s"), ("vm.run_s", "s"), ("vm.mcycles_per_s", "Mcycles/s"),
    ("vm.alloc_mwords", "Mwords"), ("vm.sim_cycles", "cycles"),
    ("reconstruct.busy_s", "s"),
    ("estimate.busy_s", "s"), ("estimate.alloc_mwords", "Mwords"),
    ("report.busy_s", "s"), ("report.bytes", "bytes"),
    ("net.submit_s", "s"), ("net.exec_s", "s"), ("net.result_s", "s"),
    ("net.polls_per_job", "count"), ("net.result_races", "count"),
    ("proto.encode_s", "s"), ("proto.decode_s", "s"),
    ("store.recover_s", "s"), ("store.jobs_recovered", "count"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
]

MIN_COVERAGE = 0.95


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        fail("run from the root of a source checkout: "
             "dune-project, lib/ and bin/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/pbench.exe",
           "./bin/ptranc.exe"]
    try:
        r = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                           stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


class Pbench:
    """One pbench.exe process in its own process group, so that leaving
    the `with` block (done, timed out or interrupted) also stops the
    servers it started."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [PBENCH] + args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            text=True, start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()

    def ready(self):
        """Seconds from spawn until pbench's first request finished."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.kill()
            fail("pbench failed before its first request")
        return time.monotonic() - self.t0

    def finish(self):
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            fail("pbench timed out")
        if self.proc.returncode != 0:
            fail("pbench exited with code %d" % self.proc.returncode)
        return out

    def kill(self):
        """Stop pbench and everything it started (no-op once done)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def run_pbench(workload, args, work, deadline):
    """Run pbench; return (its JSON result, set-up samples)."""
    base = [workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--ptranc", PTRANC, "--work", work]
    timed_setup = workload != "serve" and not args.trace
    setup = []

    def setup_processes():
        for _ in range(SETUP_PROCESSES if timed_setup else 0):
            with Pbench(base + ["--setup-only"], deadline) as d:
                setup.append(d.ready())
                d.finish()

    setup_processes()
    with Pbench(base + (["--trace"] if args.trace else []), deadline) as d:
        if timed_setup:
            setup.append(d.ready())
        lines = d.finish().strip().splitlines()
    setup_processes()
    if not lines:
        fail("pbench printed no result")
    return json.loads(lines[-1]), setup


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(raw, setup):
    """End-to-end metrics, the figures shown but not gated, and the
    problems found, from an untraced run."""
    problems = list(raw["problems"])
    tally = raw["tally"]
    lat = raw["latencies"]
    setup = setup or raw["setup_s"]
    m = {}
    for name, q in (("latency_p10_s", 0.1), ("latency_p90_s", 0.9)):
        if stats.supported(len(lat), q):
            m[name] = metric(stats.percentile(lat, q), "s", len(lat))
        else:
            problems.append("%s unsupported: %d samples, %d needed beyond it"
                            % (name, len(lat), stats.MIN_BEYOND))
    # Shown, not gated: the median moves with the share of the window the
    # shared host spends in its slow phase (README.md, "Measured spread"),
    # and with one closed-loop client throughput is about 1/mean latency.
    shown = {
        "latency_p50_s": metric(stats.median(lat), "s", len(lat)),
        "throughput_rps": metric(tally["ok"] / raw["window_s"], "1/s", tally["ok"]),
    }
    m["success_rate"] = metric(stats.success_rate(tally), "ratio", tally["attempted"])
    m["setup_s"] = metric(stats.median(setup), "s", len(setup))
    m["max_rss_mb"] = metric(raw["max_rss_mb"], "MB", 1)
    m["probe_overhead"] = metric(raw["probe_overhead"], "ratio", 1)
    if raw["result_races"]:
        print("  WARNING: %d Result polls answered \"done\" with an empty body "
              "(counted as net.result_races; see README.md)" % raw["result_races"])
    failed = tally["attempted"] - tally["ok"]
    if failed:
        problems.append("%d of %d requests failed: %r" % (failed, tally["attempted"], tally))
    return m, shown, tally["attempted"], failed, problems


def per_layer(workload, raw):
    """Per-layer metrics (medians per request) from a traced run."""
    problems = list(raw["problems"])
    m = {}
    for name, unit in PER_LAYER:
        samples = raw.get(name)
        if name == "vm.mcycles_per_s":
            samples = [c / t / 1e6 for c, t in zip(raw["vm.sim_cycles"], raw["vm.run_s"])]
        elif name == "trace.coverage":
            if workload == "serve":
                spans = [a + b + c for a, b, c in
                         zip(raw["net.submit_s"], raw["net.exec_s"], raw["net.result_s"])]
                samples = [stats.ratio(spans, raw["net.wall_s"])]
            else:
                samples = [stats.ratio(raw["spans_s"], raw["wall_s"])]
            if samples[0] < MIN_COVERAGE:
                problems.append("trace coverage %.3f below %.2f" % (samples[0], MIN_COVERAGE))
        elif name == "trace.overhead":
            samples = [stats.median(raw["traced"]) / stats.median(raw["untraced"]) - 1.0]
        elif isinstance(samples, (int, float)):
            samples = [samples]
        m[name] = metric(stats.median(samples), unit, len(samples))
    attempted = len(raw["wall_s"]) + len(raw["net.wall_s"])
    return m, attempted, len(problems), problems


def show(workload, metrics, shown, problems):
    print("%s:" % workload)
    for name, v in metrics.items():
        print("  %-24s %14.6g %-10s n=%d" % (name, v["value"], v["unit"], v["samples"]))
    for name, v in shown.items():
        print("  %-24s %14.6g %-10s n=%d  (not gated)"
              % (name, v["value"], v["unit"], v["samples"]))
    for p in problems:
        print("  FAILED: %s" % p)


def run(workload, args):
    work = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        raw, setup = run_pbench(workload, args, work,
                                time.monotonic() + RUN_TIMEOUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if args.trace:
        m, attempted, failed, problems = per_layer(workload, raw)
        shown = {}
    else:
        m, shown, attempted, failed, problems = end_to_end(raw, setup)
    show(workload, m, shown, problems)
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in m.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # unwind through the `with` blocks that stop the pbench processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = all([run(w, args) for w in workloads])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
