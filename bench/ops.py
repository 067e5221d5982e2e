"""Run one pass over a workload's operations and check their answers.

Run as ``python3 bench/ops.py CASE_DIR [options]``; prints one JSON object.
Each op is timed on its own with a per-op cap and starts with an empty
labelling cache; an op that hits the cap is recorded as ``timeout``.  An
op with ``reps`` runs that many times in a row and keeps its fastest time.
Answers are checked only after the last timed op, so the checks' own
labellings cannot warm the cache for a timed op.  A wrong answer, an
exception or a timeout is recorded and the pass goes on.  Between ops the
pass samples a gauge of the machine's speed (``shared.GAUGES``).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io as textio
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time

from shared import GAUGES, SRC, import_mbs

mbs = import_mbs()

from mbs import SearchBudget, SymmetryMode  # noqa: E402

# The number of gauge samples nearest in time to an op run that gauge the
# machine's speed for it.
SPEED_NEAREST = 8


class OpTimeout(BaseException):
    """Raised by the alarm when an op reaches its cap (a BaseException so
    that no ``except Exception`` inside mbs swallows it)."""


def label_cache():
    """``cache_info`` of the labelling cache, or None if mbs has none."""
    cached = getattr(mbs.isomorphism, "_canonical", None)
    info = getattr(cached, "cache_info", None)
    return info() if info is not None else None


def clear_label_cache():
    """Empty the labelling cache so that no op reuses another op's labellings
    (ops share fixtures and presentations, so reuse would depend on their
    order); reuse inside one op is kept and counted."""
    clear = getattr(getattr(mbs.isomorphism, "_canonical", None), "cache_clear", None)
    if clear is not None:
        clear()


# -- operations: each parses its inputs from mbs/1 text and returns what
# -- its check needs

def op_homology(case, ctx):
    s = mbs.io.parse(case["doc"])
    return (mbs.model.validate(s), mbs.algebra.homology_profile(s),
            mbs.model.euler_characteristic(s), mbs.model.connected_components(s),
            mbs.algebra.decomposition_summary(s))


def op_equiv(case, ctx):
    x, y = mbs.io.parse(case["x"]), mbs.io.parse(case["y"])
    budget = SearchBudget(**case["budget"])
    return x, y, mbs.search.search_equivalence(x, y, budget, SymmetryMode.MIRROR)


def op_cli(case, ctx):
    if ctx["inprocess"]:
        out = textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(textio.StringIO()):
            code = mbs.cli.main(case["argv"])
        return code, out.getvalue()
    done = subprocess.run([sys.executable, "-m", "mbs", *case["argv"]],
                          cwd=ctx["case_dir"], env=ctx["env"], capture_output=True,
                          text=True, timeout=ctx["cap"])
    return done.returncode, done.stdout


OPS = {"homology": op_homology, "equiv": op_equiv, "cli": op_cli}


# -- checks: return None when the answer is right, else what is wrong

def check_homology(case, result):
    issues, hp, chi, cc, ds = result
    e = case["expect"]
    b0, b1, b2 = hp.betti
    torsion = math.prod(hp.torsion[1])
    got = {"valid": not issues, "betti": list(hp.betti), "chi": chi, "components": cc,
           "b0=components": b0 == cc, "b0-b1+b2=chi": b0 - b1 + b2 == chi,
           "torsion_order": torsion, "loci": ds.solid_torus_count}
    want = {"valid": True, "betti": e["betti"], "chi": e["chi"],
            "components": e["components"], "b0=components": True,
            "b0-b1+b2=chi": True, "torsion_order": e["torsion_order"], "loci": e["loci"]}
    return None if got == want else f"got {got}, want {want}"


def check_equiv(case, result):
    x, y, outcome = result
    name = type(outcome).__name__
    if name != case["expect"]["outcome"]:
        return f"outcome {outcome!r}, want {case['expect']['outcome']}"
    if isinstance(outcome, mbs.Found):
        endpoint = mbs.replay(x, outcome.record)
        if mbs.are_isomorphic(endpoint, y, SymmetryMode.MIRROR) is None:
            return "record does not replay to a surface isomorphic to y"
    return None


def check_cli(case, result):
    code, stdout = result
    if code != case["code"]:
        return f"exit code {code}, want {case['code']}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    for key, want in case["expect"].items():
        if key == "document":
            got = payload
        elif key == "betti":
            got = payload.get("homology", {}).get("betti")
        else:
            got = payload.get(key)
        if got != want:
            return f"{key}: got {got!r}, want {want!r}"
    return None


CHECKS = {"homology": check_homology, "equiv": check_equiv, "cli": check_cli}


class Alarm:
    """Per-op cap through SIGALRM; raises only while an op is armed."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def run(self, fn, cap):
        """Call fn with a cap; returns (status, seconds, result or detail)."""
        start = time.perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, cap)
            result = fn()
            self.armed = False
            return "done", time.perf_counter() - start, result
        except OpTimeout:
            return "timeout", time.perf_counter() - start, None
        except subprocess.TimeoutExpired:
            self.armed = False
            return "timeout", time.perf_counter() - start, None
        except Exception as exc:  # the op failed: record it, keep going
            self.armed = False
            return "raised", time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


class SpeedGauge:
    """Samples of a gauge in shared.GAUGES, taken at the start and the end
    of a pass and between ops, that tell how fast the machine was around
    each op run."""

    def __init__(self, name):
        self.measure, self.every, _ = GAUGES[name]
        self.at, self.seconds, self.since = [], [], 0.0
        for _ in range(SPEED_NEAREST // 2):
            self.sample()

    def sample(self):
        self.at.append(time.perf_counter())
        self.seconds.append(self.measure())

    def after_op(self, seconds):
        self.since += seconds
        if self.since >= self.every:
            self.sample()
            self.since = 0.0

    def near(self, at):
        """Fastest of the SPEED_NEAREST samples nearest in time to at."""
        i = bisect.bisect(self.at, at)
        lo = max(0, min(i - SPEED_NEAREST // 2, len(self.at) - SPEED_NEAREST))
        return min(self.seconds[lo:lo + SPEED_NEAREST])


def run_pass(data, case_dir, cases, tracer=None, inprocess=False):
    """Time every case in order, then check the answers.

    Returns the per-op records, whether the labelling cache was empty
    when timing started (None if mbs has no such cache), and the fastest
    gauge sample of the pass.  Each record holds the op's fastest time
    ``s`` and ``norm``, its fastest time as a multiple of the fastest gauge
    sample near it (see SpeedGauge)."""
    cap = data["cap_s"]
    ctx = {"inprocess": inprocess, "case_dir": case_dir, "cap": cap,
           "env": dict(os.environ, PYTHONPATH=SRC)}
    previous = signal.getsignal(signal.SIGALRM)
    alarm = Alarm()
    info = label_cache()
    cache_empty = None if info is None else info.currsize == 0
    gauge = SpeedGauge(data["gauge"])
    timed = []
    for case in cases:
        if tracer is not None:
            tracer.op = case["id"]
        best, total, hits, misses, counted = math.inf, 0.0, 0, 0, True
        runs = []  # (start, seconds)
        for _ in range(case.get("reps", 1)):
            clear_label_cache()
            before = label_cache()
            start = time.perf_counter()
            status, seconds, result = alarm.run(lambda: OPS[case["op"]](case, ctx), cap)
            runs.append((start, seconds))
            after = label_cache()
            if before is None or after is None:
                counted = False
            else:
                hits += after.hits - before.hits
                misses += after.misses - before.misses
            best, total = min(best, seconds), total + seconds
            gauge.after_op(seconds)
            if status != "done":
                break
        lab = [hits, misses] if counted else None
        timed.append((case, status, best, total, result, lab, runs))
    for _ in range(SPEED_NEAREST // 2):
        gauge.sample()
    if tracer is not None:
        tracer.uninstall()
    records = []
    for case, status, seconds, total, result, lab, runs in timed:
        detail = result if status == "raised" else None
        if status == "done":
            check_status, _, checked = alarm.run(
                lambda: CHECKS[case["op"]](case, result), cap)
            if check_status != "done":
                status, detail = "wrong", f"check {check_status}: {checked}"
            elif checked is not None:
                status, detail = "wrong", checked
            else:
                status = "ok"
        norm = min(s / gauge.near(at) for at, s in runs)
        records.append({"id": case["id"], "s": seconds, "norm": norm, "total_s": total,
                        "status": status, "detail": detail, "lab": lab})
    signal.signal(signal.SIGALRM, previous)
    return records, cache_empty, min(gauge.seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("case_dir")
    parser.add_argument("--trace", help="trace the pass and write spans here")
    parser.add_argument("--inprocess", action="store_true",
                        help="run CLI cases through mbs.cli.main in this process")
    args = parser.parse_args(argv)

    with open(os.path.join(args.case_dir, "cases.json")) as handle:
        data = json.load(handle)
    cases = data["cases"]
    os.chdir(args.case_dir)
    if args.inprocess:
        import mbs.cli  # noqa: F401  (imported before timing, as a CLI process would)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    if args.inprocess:  # CLI commands run as library calls: no process start
        data["gauge"] = "kernel"
    records, cache_empty, ref_s = run_pass(data, args.case_dir, cases, tracer,
                                           args.inprocess)
    report = {"ready": ready, "ops": records, "cache_empty": cache_empty,
              "gauge": data["gauge"], "ref_s": ref_s,
              "rss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)}
    if tracer is not None:
        report["layers"] = tracer.self_times()
        report["snf_entries"] = tracer.snf_entries
        report["successors"] = tracer.successors
        tracer.dump(args.trace)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
