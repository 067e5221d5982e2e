import hashlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import mbs
from mbs import (
    BranchLocus,
    FixtureError,
    MbsError,
    ModeError,
    MultibranchedSurface,
    Region,
    RegionClass,
    RegionTopology,
    SymmetryMode,
    UnknownIdError,
    ValidityMode,
    build_fixture,
    canonical_form,
    classify_region,
    closed_surface,
    connected_components,
    disjoint_union,
    euler_characteristic,
    homology_profile,
    locus_profile,
    random_surface,
    random_walk,
    theta,
    validate,
)
from mbs.fixtures import _BUILDERS, _parameters
from mbs.io import serialize
from helpers import join
from oracles import _components

SRC = str(Path(mbs.__file__).resolve().parents[1])


def test_topology_euler():
    assert RegionTopology(True, 0, 2).euler == 0
    assert RegionTopology(True, 2, 1).euler == -3
    assert RegionTopology(False, 1, 1).euler == 0
    assert RegionTopology(False, 2, 0).euler == 0


def test_fixtures_are_valid(theta3, mb, qn):
    assert validate(theta3) == []
    assert validate(mb) == []
    assert validate(qn) == []
    assert validate(closed_surface(False, 1)) == []
    assert validate(one_boundary_surface()) == []


def test_theta2_strict_violation():
    report = validate(theta(2))
    assert any(v.rule == "degree-too-small" for v in report)


def test_disk_region_rejected():
    disk = Region("d", RegionTopology(True, 0, 1), ("x",))
    locus = BranchLocus("b", 3, ("x",))
    report = validate(MultibranchedSurface((disk,), (locus,)))
    assert any(v.rule == "disk-region" for v in report)


def test_dangling_slot_is_a_violation():
    r = Region("r", RegionTopology(True, 1, 1), ("x",))
    locus = BranchLocus("b", 3, ("x", "ghost"))
    report = validate(MultibranchedSurface((r,), (locus,)))
    assert any(v.rule == "dangling-slot" for v in report)


TORUS_1 = RegionTopology(True, 1, 1)


def one_boundary_surface(regions=(Region("r", TORUS_1, ("x",)),),
                         loci=(BranchLocus("b", 3, ("x",)),)):
    return MultibranchedSurface(tuple(regions), tuple(loci))


BAD_SURFACES = {
    "duplicate-region-id": one_boundary_surface(
        regions=(Region("r", TORUS_1, ("x",)), Region("r", TORUS_1, ("y",))),
        loci=(BranchLocus("b", 3, ("x",)), BranchLocus("c", 3, ("y",)))),
    "duplicate-circle-id": one_boundary_surface(
        regions=(Region("r", TORUS_1, ("x",)), Region("s", TORUS_1, ("x",)))),
    "duplicate-locus-id": one_boundary_surface(
        regions=(Region("r", TORUS_1, ("x",)), Region("s", TORUS_1, ("y",))),
        loci=(BranchLocus("b", 3, ("x",)), BranchLocus("b", 3, ("y",)))),
    "negative-genus": one_boundary_surface(
        regions=(Region("r", RegionTopology(True, -1, 1), ("x",)),)),
    "negative-boundary-count": one_boundary_surface(
        regions=(Region("r", RegionTopology(True, 1, -1), ("x",)),)),
    "boundary-count-mismatch": one_boundary_surface(
        regions=(Region("r", RegionTopology(True, 1, 2), ("x",)),)),
    "wrapping-positive": one_boundary_surface(loci=(BranchLocus("b", 0, ("x",)),)),
    "empty-locus": one_boundary_surface(
        loci=(BranchLocus("b", 3, ("x",)), BranchLocus("e", 1, ()))),
    "sign-length": one_boundary_surface(loci=(BranchLocus("b", 3, ("x",), (1, 1)),)),
    "sign-value": one_boundary_surface(loci=(BranchLocus("b", 3, ("x",), (2,)),)),
    "slot-repeat": one_boundary_surface(loci=(BranchLocus("b", 3, ("x", "x")),)),
    "slot-conflict": one_boundary_surface(
        loci=(BranchLocus("b", 3, ("x",)), BranchLocus("c", 3, ("x",)))),
}


@pytest.mark.parametrize("rule", BAD_SURFACES)
def test_validate_reports_rule(rule):
    assert rule in {v.rule for v in validate(BAD_SURFACES[rule])}


def test_boolean_sign_breaks_sign_value():
    r = Region("r", RegionTopology(True, 0, 3), ("x", "y", "z"))
    locus = BranchLocus("b", 1, ("x", "y", "z"), (True, 1, -1))
    report = validate(MultibranchedSurface((r,), (locus,)))
    assert "sign-value" in {v.rule for v in report}


def test_unattached_circle_strict_only():
    r = Region("r", RegionTopology(True, 1, 2), ("x", "y"))
    locus = BranchLocus("b", 3, ("x",))
    strict = MultibranchedSurface((r,), (locus,))
    assert any(v.rule == "unattached-circle" for v in validate(strict))
    minor = strict.in_mode(ValidityMode.MINOR)
    assert validate(minor) == []


def test_closed_region_strict_only():
    s = closed_surface(True, 1)
    assert validate(s) == []
    assert any(v.rule == "closed-region" for v in validate(s.in_mode(ValidityMode.STRICT)))


def test_locus_profiles(theta3, qn):
    p = locus_profile(theta3, "b1")
    assert (p.degree, p.wrapping, p.component_count) == (3, 1, 3)
    assert p.is_normal and p.is_tribranched and not p.is_pure and not p.is_spreadable

    p = locus_profile(qn, "bp")
    assert (p.degree, p.wrapping, p.component_count) == (3, 3, 1)
    assert p.is_pure and not p.is_normal and not p.is_spreadable

    wide = theta(4)
    assert locus_profile(wide, "b1").is_spreadable


def test_locus_profile_unknown_id(theta3):
    with pytest.raises(UnknownIdError):
        locus_profile(theta3, "nope")


def test_degree_arithmetic_random():
    for seed in range(1, 40):
        surface = random_surface(seed, 3 + seed % 20)
        for l in surface.loci:
            p = locus_profile(surface, l.id)
            assert p.component_count * p.wrapping == p.degree
            if p.is_normal:
                assert p.component_count == p.degree
            if p.is_pure:
                assert p.component_count == 1


def test_classify_regions(theta3, mb, qn):
    assert classify_region(theta3, "r1") is RegionClass.NORMAL_ANNULUS
    assert classify_region(qn, "A") is RegionClass.QUASI_NORMAL_ANNULUS
    assert classify_region(qn, "C") is RegionClass.CLOSING_ANNULUS
    assert classify_region(mb, "M") is RegionClass.NORMAL_MOEBIUS
    assert classify_region(mb, "C") is RegionClass.CLOSING_ANNULUS
    assert classify_region(closed_surface(False, 1), "s") is RegionClass.OTHER


def test_classify_total_on_strict_corpus():
    named = {RegionClass.NORMAL_ANNULUS, RegionClass.QUASI_NORMAL_ANNULUS,
             RegionClass.UNNORMAL_ANNULUS, RegionClass.CLOSING_ANNULUS,
             RegionClass.NORMAL_MOEBIUS, RegionClass.UNNORMAL_MOEBIUS}
    for seed in range(1, 40):
        surface = random_surface(seed, 3 + seed % 20)
        for r in surface.regions:
            kind = classify_region(surface, r.id)
            if r.topology.is_annulus or r.topology.is_moebius:
                assert kind in named


def test_euler_characteristic(theta3, mb):
    assert euler_characteristic(theta3) == 0
    assert euler_characteristic(mb) == 0
    genus2 = MultibranchedSurface(
        (Region("g", RegionTopology(True, 2, 1), ("x",)),),
        (BranchLocus("b", 3, ("x",)),))
    assert validate(genus2) == []
    assert euler_characteristic(genus2) == -3


def test_connected_components(theta3, mb):
    assert connected_components(theta3) == 1
    assert connected_components(disjoint_union(theta3, mb)) == 2
    assert connected_components(closed_surface(True, 1)) == 1


def test_euler_additive_over_components(theta3, mb, qn):
    both = disjoint_union(theta3, qn)
    assert euler_characteristic(both) == \
        euler_characteristic(theta3) + euler_characteristic(qn)
    assert connected_components(both) == 2


def test_disjoint_union_needs_one_mode(theta3):
    torus = closed_surface(True, 1)  # minor mode
    for x, y in ((theta3, torus), (torus, theta3)):
        with pytest.raises(ModeError):
            disjoint_union(x, y)
    both = disjoint_union(theta(3, ValidityMode.MINOR), torus)
    assert both.mode is ValidityMode.MINOR and validate(both) == []


def test_build_fixture_dispatch(theta3, mb):
    assert build_fixture("theta", n=3) == theta3
    assert build_fixture("mb") == mb
    with pytest.raises(FixtureError):
        build_fixture("theta", n=2)
    with pytest.raises(FixtureError):
        build_fixture("closed_surface", orientable=False, genus=2,
                      mode=ValidityMode.STRICT)
    with pytest.raises(FixtureError):
        build_fixture("does-not-exist")
    with pytest.raises(FixtureError):
        build_fixture("mb", n=3)
    assert build_fixture("closed_surface", genus=1) == closed_surface(True, 1)


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_builder_parameters_match_the_signature(name):
    # inspect is the oracle: the library reads the code object instead
    params = inspect.signature(_BUILDERS[name]).parameters.values()
    assert _parameters(_BUILDERS[name]) == tuple(p.name for p in params)
    with pytest.raises(FixtureError) as caught:
        build_fixture(name, not_a_parameter=1, nor_this=2)
    for p in ("not_a_parameter", "nor_this"):
        assert repr(p) in str(caught.value), (name, p)


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_every_builder_builds_with_no_arguments(name):
    """Each builder owns its defaults, so ``build_fixture`` adds none."""
    assert build_fixture(name) == _BUILDERS[name]()


FIXTURE_CASES = [("theta", {"n": n}, lambda mode, n=n: theta(n, mode)) for n in range(-1, 7)]
FIXTURE_CASES += [
    ("closed_surface", {"orientable": o, "genus": g},
     lambda mode, o=o, g=g: MultibranchedSurface(
         (Region("s", RegionTopology(o, g, 0), ()),), (), mode))
    for o in (True, False) for g in range(-1, 3)]


@pytest.mark.parametrize("mode", list(ValidityMode))
def test_build_fixture_raises_exactly_on_validate_report(mode):
    for name, params, build in FIXTURE_CASES:
        issues = validate(build(mode))
        if not issues:
            assert build_fixture(name, mode=mode, **params) == build(mode)
            continue
        with pytest.raises(FixtureError) as caught:
            build_fixture(name, mode=mode, **params)
        assert all(str(v) in str(caught.value) for v in issues), (name, params)


def partition_ids(components):
    return [({r.id for r in regions}, {l.id for l in loci})
            for regions, loci in components]


def partition_corpus():
    surfaces = []
    for seed in range(1, 201):
        for mode in ValidityMode:
            surfaces.append(random_surface(seed, 3 + seed % 28, mode))
        surfaces.append(random_walk(surfaces[-2], seed, 4)[0])
    chain = surfaces[0]
    for i, piece in enumerate(surfaces[1:40:3], start=1):
        chain = join(chain, piece.in_mode(chain.mode), f"p{i}.")
        surfaces.append(chain)
    return surfaces


def test_components_match_oracle():
    for surface in partition_corpus():
        got = surface.components
        oracle = [(set(regions), {l.id for l in loci})
                  for regions, loci in _components(surface)]
        # both list components in order of their first region
        assert partition_ids(got) == oracle
        position = {x.id: i for i, x in enumerate(surface.regions + surface.loci)}
        for regions, loci in got:
            assert [position[x.id] for x in regions + loci] == \
                sorted(position[x.id] for x in regions + loci)
        assert isinstance(got, tuple) and all(
            isinstance(regions, tuple) and isinstance(loci, tuple) for regions, loci in got)


def test_components_of_unknown_slots_and_empty_surface():
    a = Region("a", TORUS_1, ("x",))
    b = Region("b", TORUS_1, ("y",))
    surface = MultibranchedSurface(
        (a, b), (BranchLocus("ghost", 1, ("g1", "g2")), BranchLocus("bx", 3, ("x", "g3")),
                 BranchLocus("by", 3, ("y",))), ValidityMode.MINOR)
    assert partition_ids(surface.components) == [
        ({"a"}, {"bx"}), ({"b"}, {"by"}), (set(), {"ghost"})]
    assert connected_components(surface) == 3
    assert MultibranchedSurface((), (), ValidityMode.MINOR).components == ()


@pytest.mark.parametrize("mode", list(ValidityMode))
def test_components_computed_once(monkeypatch, mode):
    calls = []
    original = MultibranchedSurface.__dict__["components"].func

    def counted(surface):
        calls.append(surface)
        return original(surface)

    prop = cached_property(counted)
    prop.__set_name__(MultibranchedSurface, "components")
    monkeypatch.setattr(MultibranchedSurface, "components", prop)
    surface = disjoint_union(random_surface(7, 30, mode), random_surface(8, 30, mode))
    homology_profile(surface)
    connected_components(surface)
    for symmetry in SymmetryMode:
        canonical_form(surface, symmetry)
    assert len(calls) == 1


def test_hash_is_the_dataclass_hash_computed_once():
    surface = random_walk(theta(5), 3, 2)[0]
    assert hash(surface) == hash((surface.regions, surface.loci, surface.mode))
    assert surface.__dict__["_hash"] == hash(surface)
    assert hash(surface.in_mode(ValidityMode.MINOR)) != hash(surface)


UNPICKLE = """
import json, pickle, sys
from mbs import random_walk, theta
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = random_walk(theta(5), 3, 2)[0]
print(json.dumps([loaded == fresh, hash(loaded) == hash(fresh),
                  {fresh: "hit"}.get(loaded), hash(fresh)]))
"""


def test_cached_hash_does_not_travel_through_pickle():
    """String hashes differ between processes, so a surface unpickled under
    another hash seed hashes as an equal surface built there does."""
    surface = random_walk(theta(5), 3, 2)[0]
    here = hash(surface)  # cached before pickling
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    done = subprocess.run([sys.executable, "-c", UNPICKLE], input=pickle.dumps(surface),
                          env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    equal, same_hash, looked_up, there = json.loads(done.stdout)
    assert there != here  # the seeds differ, so a hash that travelled would be stale
    assert (equal, same_hash, looked_up) == (True, True, "hit")


def test_random_surface_deterministic_and_valid():
    a = random_surface(1, 5)
    b = random_surface(1, 5)
    assert a == b
    assert validate(a) == []
    for seed in range(1, 101):
        assert validate(random_surface(seed, 3 + seed % 26)) == []


def test_random_surface_minor_mode():
    for seed in range(1, 40):
        surface = random_surface(seed, 1 + seed % 20, ValidityMode.MINOR)
        assert validate(surface) == []


# sha256 over the serialized output (or the error's class and message) of
# 7,200 random_surface calls, recorded before the generator lost its
# unreachable branches
RANDOM_SURFACE_DIGEST = "c64a6633edab7a75296defe0faaa4132bae4a57b434ccd8f154303f47cd7ffd0"


def test_random_surface_corpus_matches_digest():
    digest = hashlib.sha256()
    for seed in range(1, 401):
        for size in (1, 2, 3, 4, 5, 7, 10, 3 + seed % 40, 60):
            for mode in ValidityMode:
                try:
                    digest.update(serialize(random_surface(seed, size, mode)))
                except MbsError as e:
                    digest.update(repr((type(e).__name__, str(e))).encode())
    assert digest.hexdigest() == RANDOM_SURFACE_DIGEST


def test_random_surface_budget():
    with pytest.raises(FixtureError):
        random_surface(1, 2)
    for seed in range(1, 30):
        budget = 3 + seed % 28
        assert random_surface(seed, budget).cell_count <= budget
