"""Tests of the benchmark's bookkeeping: wrong answers, exceptions and cap
hits are counted, make the run incorrect, and never stop it."""

import copy
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from shared import union  # noqa: E402

from mbs import moebius_annulus, quasi_pure, random_surface, theta  # noqa: E402


def homology_case(case_id, surface):
    inv = inputs.invariants(surface)
    return {"id": case_id, "op": "homology", "doc": inputs.doc(surface),
            "expect": dict(inv, loci=len(surface.loci))}


def run_cases(tmp_path, cases, cap_s=10.0):
    data = {"cap_s": cap_s, "gauge": "kernel"}
    records, cold, ref_s = ops.run_pass(data, str(tmp_path), cases)
    assert ref_s > 0
    return {"ops": records, "cache_empty": cold, "gauge": "kernel", "ref_s": ref_s}


def test_independent_answers_match(tmp_path):
    surface = union([theta(3), moebius_annulus(), quasi_pure()])
    report = run_cases(tmp_path, [homology_case("h0", surface)])
    assert [r["status"] for r in report["ops"]] == ["ok"]
    assert report["cache_empty"] is True
    assert run.verdict([report]) == (True, 1, 0)


def test_corrupted_expected_answer_is_counted(tmp_path):
    good = homology_case("h0", union([theta(3), moebius_annulus()]))
    bad = copy.deepcopy(good)
    bad["id"] = "h1"
    bad["expect"]["torsion_order"] += 1
    report = run_cases(tmp_path, [bad, good])
    assert [r["status"] for r in report["ops"]] == ["wrong", "ok"]
    assert "torsion_order" in report["ops"][0]["detail"]
    assert run.verdict([report]) == (False, 2, 1)
    assert run.ok_ids([report]) == {"h0"}


def test_raised_op_is_counted(tmp_path):
    broken = homology_case("h0", theta(3))
    broken["doc"] = broken["doc"].replace("regions", "regoins")
    report = run_cases(tmp_path, [broken, homology_case("h1", theta(4))])
    assert [r["status"] for r in report["ops"]] == ["raised", "ok"]
    assert run.verdict([report]) == (False, 2, 1)
    # an op that failed in any pass gives no latency
    assert run.ok_ids([report, report]) == {"h1"}
    assert set(run.best_times([report], run.ok_ids([report]))) == {"h1"}


def test_cap_hit_is_recorded_and_counted(tmp_path):
    rng = random.Random(3)
    big = union([random_surface(rng.randrange(10**9), 40) for _ in range(25)])
    slow = run_cases(tmp_path, [homology_case("s0", big)], cap_s=0.002)
    assert [r["status"] for r in slow["ops"]] == ["timeout"]
    assert 0.002 <= slow["ops"][0]["s"] < 1.0
    fast = run_cases(tmp_path, [homology_case("h0", theta(3))])
    assert run.verdict([slow, fast]) == (False, 2, 1)
