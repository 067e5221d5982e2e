"""Benchmark of the mbs library and CLI: one closed-loop client per run.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: homology_large, equiv_walks, cli_session (see bench/README.md
for what each measures and why).  The run

1. generates the inputs and expected answers SETUP_REPEATS times, each in
   a fresh process (``bench/inputs.py``), and checks that they agree;
2. times every operation of the workload once per pass, each pass in a
   fresh worker process (``bench/ops.py``), for about ``--seconds``, and
   takes each operation's fastest pass as its latency;
3. scales each op time to the reference speed (see ``shared.GAUGES``);
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
   run (``--trace 1``).

It exits non-zero without a result line when the checkout cannot run it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from shared import BENCH_DIR, GAUGES, OUT_DIR, SRC, SetupError

WORKLOADS = ("homology_large", "equiv_walks", "cli_session")
SETUP_REPEATS = 5
# Each op runs in every pass (cheap ops several times in a row), in a fresh
# worker per pass, and its latency is its fastest run: the speed of a shared
# machine drifts by 20-40% over seconds to minutes.  A run makes
# ceil(seconds / PASS_S) passes, at least MIN_PASSES; PASS_S is about one
# pass at baseline, so the pass count never depends on the code under test.
PASS_S = {"homology_large": 11.5, "equiv_walks": 6.0, "cli_session": 12.0}
MIN_PASSES = 2
HARD_LIMIT_S = 170.0  # the whole run, set-up and checks included


class RunError(Exception):
    """A benchmark process failed; the run prints no result."""


def python(script, *args, timeout):
    """Run a benchmark script in a fresh interpreter; returns its stdout."""
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, script), *args],
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RunError(f"{script} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.start = time.monotonic()
        self.dir = os.path.join(OUT_DIR, f"run-{workload}-{seed}-{os.getpid()}")
        self.startups: list[float] = []

    def remaining(self) -> float:
        left = HARD_LIMIT_S - (time.monotonic() - self.start)
        if left <= 0:
            raise RunError("run exceeded its time limit")
        return left

    def setup(self):
        """Generate the inputs SETUP_REPEATS times; returns (median seconds,
        whether every repetition produced the same cases)."""
        walls, texts = [], []
        for rep in range(SETUP_REPEATS):
            rep_dir = os.path.join(self.dir, f"gen{rep}")
            t0 = time.monotonic()
            python("inputs.py", self.workload, str(self.seed), rep_dir,
                   timeout=self.remaining())
            walls.append(time.monotonic() - t0)
            with open(os.path.join(rep_dir, "cases.json")) as handle:
                texts.append(handle.read())
        self.case_dir = rep_dir
        return statistics.median(walls), all(t == texts[0] for t in texts)

    def worker(self, *args):
        spawned = time.monotonic()
        report = json.loads(python("ops.py", self.case_dir, *args,
                                   timeout=self.remaining()))
        self.startups.append(report["ready"] - spawned)
        return report

    def passes(self, trace_prefix=None, inprocess=False):
        """One worker per pass.  With a trace prefix every pass runs twice,
        traced and plain, in alternating order, so that drift in machine
        speed hits both alike.  Returns the plain and the traced worker
        reports."""
        count = max(MIN_PASSES, math.ceil(self.seconds / PASS_S[self.workload]))
        plain, traced = [], []
        for p in range(count):
            args = ["--inprocess"] if inprocess else []
            if trace_prefix is not None and p % 2 == 0:
                traced.append(self.worker(*args, "--trace", f"{trace_prefix}-{p}.json.gz"))
            plain.append(self.worker(*args))
            if trace_prefix is not None and p % 2 == 1:
                traced.append(self.worker(*args, "--trace", f"{trace_prefix}-{p}.json.gz"))
        return plain, traced


def quantile_ms(values, q):
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdict(reports, same_inputs=True):
    """(correct, attempted, failed) over every op run.  An op fails unless
    its status is "ok": a wrong answer, an exception and a cap hit all
    fail, and one failed op makes the run incorrect.  So does a pass whose
    labelling cache was not empty when timing began."""
    ops = [op for r in reports for op in r["ops"]]
    failed = sum(1 for op in ops if op["status"] != "ok")
    cold = all(r["cache_empty"] is not False for r in reports)
    return same_inputs and cold and failed == 0, len(ops), failed


def ok_ids(reports):
    """Ids of the ops whose status is "ok" in every report."""
    status = {}
    for r in reports:
        for op in r["ops"]:
            status[op["id"]] = status.get(op["id"], True) and op["status"] == "ok"
    return {i for i, ok in status.items() if ok}


def best_times(reports, ids):
    """Latency at the reference speed of each op in ids, by op id: the op's
    fastest run over the reports, in gauge samples, times the gauge's REF_S."""
    best = {}
    for r in reports:
        ref_s = GAUGES[r["gauge"]][2]
        for op in r["ops"]:
            if op["id"] in ids:
                best[op["id"]] = min(ref_s * op["norm"], best.get(op["id"], math.inf))
    return best


def cli_start_costs():
    """Median seconds of a bare interpreter start and of ``import mbs.cli``
    on top of it, five subprocesses each."""
    def median_run(code, env=None):
        walls = []
        for _ in range(5):
            t0 = time.monotonic()
            subprocess.run([sys.executable, "-c", code], check=True, env=env,
                           capture_output=True, timeout=60)
            walls.append(time.monotonic() - t0)
        return statistics.median(walls)

    bare = median_run("pass")
    imported = median_run("import mbs.cli", env=dict(os.environ, PYTHONPATH=SRC))
    return bare, imported - bare


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run: Run):
    setup_s, same_inputs = run.setup()
    inprocess = run.trace and run.workload == "cli_session"
    trace_prefix = os.path.join(OUT_DIR, f"trace-{run.workload}-{run.seed}") \
        if run.trace else None
    plain, traced = run.passes(trace_prefix, inprocess)
    reports = plain + traced
    correct, attempted, failed = verdict(reports, same_inputs)
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    ids = ok_ids(reports)
    if len(ids) < 2:
        raise RunError(f"{len(ids)} ops succeeded in every pass; no latency to report")
    if not run.trace:
        times = list(best_times(plain, ids).values())
        result["metrics"] = {
            "ops_per_s": metric(len(times) / sum(times), "ops/s"),
            "latency_p50_ms": metric(quantile_ms(times, 50), "ms"),
            "latency_p90_ms": metric(quantile_ms(times, 90), "ms"),
            "setup_s": metric(setup_s + statistics.median(run.startups), "s"),
            "peak_rss_mb": metric(max(r["rss_kb"] for r in plain) / 1024.0, "MiB"),
        }
        return result

    from tracer import GROUPS, layer_metrics

    totals = {g: [0, 0.0] for g in GROUPS}
    for r in traced:
        for g, (calls, self_s) in r["layers"].items():
            totals[g][0] += calls
            totals[g][1] += self_s
    values = layer_metrics(totals, sum(r["snf_entries"] for r in traced),
                           sum(r["successors"] for r in traced))
    labs = [op["lab"] for r in traced for op in r["ops"]]
    if any(lab is None for lab in labs):
        values["isomorphism.labellings"] = None
        values["isomorphism.cache_hit_ratio"] = None
    else:
        hits, misses = sum(l[0] for l in labs), sum(l[1] for l in labs)
        values["isomorphism.labellings"] = misses
        values["isomorphism.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cli.startup_s"], values["cli.import_s"] = cli_start_costs()
    best_traced, best_plain = best_times(traced, ids), best_times(plain, ids)
    values["trace.overhead_ratio"] = (sum(best_traced.values())
                                      / sum(best_plain.values()))
    values["trace.op_s"] = sum(op["total_s"] for r in traced for op in r["ops"])
    values["bench.gauge_ms"] = 1000.0 * min(r["ref_s"] for r in reports)
    units = {}
    for name in values:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    result["metrics"] = {name: metric(v, units[name]) for name, v in values.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mbs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mbs", "__init__.py")):
        print(f"bench: no mbs sources under {SRC}", file=sys.stderr)
        return 2
    # a SystemExit on SIGTERM lets subprocess.run kill and reap the current
    # child and lets the work directory be removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # one CPU for this process and every child, so that an op (a CLI
    # subprocess too) and the reference kernel runs that gauge it share a CPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = measure(run)
    except (RunError, SetupError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
