import dataclasses
import hashlib

import pytest

import mbs.isomorphism
from mbs import (
    ANNULUS,
    BranchLocus,
    IneligibleMoveError,
    IXSite,
    ModeError,
    MoebiusSplit,
    MoveRecord,
    MultibranchedSurface,
    NormalSplit,
    QuasiSplit,
    Region,
    RegionClass,
    ReplayError,
    SymmetryMode,
    ValidityMode,
    apply_ih,
    apply_ix,
    apply_xi,
    are_isomorphic,
    canonical_hash,
    classify_region,
    connected_components,
    enumerate_ix,
    enumerate_xi,
    euler_characteristic,
    homology_profile,
    is_maximally_spread_region,
    is_maximally_spread_surface,
    locus_profile,
    maximally_spread,
    moebius_annulus,
    quasi_pure,
    random_surface,
    random_walk,
    replay,
    spread_potential,
    theta,
    validate,
)
from mbs.moves import _fresh_ids, _ix, all_maximal_spreadings
from test_move_golden import golden_corpus


def cyclic_equal(seq, other):
    if len(seq) != len(other):
        return False
    doubled = tuple(other) + tuple(other)
    return any(tuple(seq) == doubled[i:i + len(seq)] for i in range(len(other)))


def the_locus(surface):
    (locus,) = surface.loci
    return locus


def test_enumerate_ix(theta3, mb, qn):
    assert [s.region_id for s in enumerate_ix(theta3)] == ["r1", "r2", "r3"]
    assert all(s.kind is RegionClass.NORMAL_ANNULUS for s in enumerate_ix(theta3))
    assert [(s.region_id, s.kind) for s in enumerate_ix(qn)] == \
        [("A", RegionClass.QUASI_NORMAL_ANNULUS)]
    assert [(s.region_id, s.kind) for s in enumerate_ix(mb)] == \
        [("M", RegionClass.NORMAL_MOEBIUS)]


def test_apply_ix_normal_annulus(theta3):
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    locus = the_locus(merged)
    assert locus.wrapping == 1
    assert locus.degree == 4
    assert cyclic_equal(locus.slots, ("r2.a", "r3.a", "r2.b", "r3.b"))
    assert {classify_region(merged, r.id) for r in merged.regions} == \
        {RegionClass.CLOSING_ANNULUS}
    assert validate(merged) == []
    assert locus_profile(merged, locus.id).is_spreadable


def test_apply_ix_moebius(mb):
    merged = apply_ix(mb, enumerate_ix(mb)[0])
    locus = the_locus(merged)
    assert locus.wrapping == 2
    assert locus.degree == 4
    assert cyclic_equal(locus.slots, ("c1", "c2"))
    assert homology_profile(merged) == homology_profile(mb)
    assert "M" not in merged.region_by_id


def test_apply_ix_quasi(qn):
    merged = apply_ix(qn, enumerate_ix(qn)[0])
    locus = the_locus(merged)
    assert locus.wrapping == 3
    assert locus.degree == 6
    assert cyclic_equal(locus.slots, ("c1", "c2"))
    assert homology_profile(merged) == homology_profile(qn)


def test_apply_ix_rejects_ineligible(qn):
    with pytest.raises(IneligibleMoveError):
        apply_ix(qn, IXSite("C", RegionClass.CLOSING_ANNULUS))
    with pytest.raises(IneligibleMoveError):
        apply_ix(qn, IXSite("A", RegionClass.NORMAL_ANNULUS))


def test_degree_arithmetic_of_merges():
    for seed in range(1, 45):
        surface = random_surface(seed, 3 + seed % 24)
        for site in enumerate_ix(surface):
            region = surface.region(site.region_id)
            loci = {surface.circle_to_slot[c][0] for c in region.boundary_circles}
            before = {l: surface.locus(l) for l in loci}
            merged = apply_ix(surface, site)
            new_locus = next(l for l in merged.loci if l.id not in surface.locus_by_id)
            if site.kind is RegionClass.NORMAL_ANNULUS:
                k1, k2 = [len(l.slots) for l in before.values()]
                assert new_locus.degree == k1 + k2 - 2
            elif site.kind is RegionClass.QUASI_NORMAL_ANNULUS:
                normal = next(l for l in before.values() if l.wrapping == 1)
                other = next(l for l in before.values() if l.wrapping > 1)
                assert new_locus.degree == \
                    other.degree + (normal.degree - 2) * other.wrapping
            else:
                (locus,) = before.values()
                assert new_locus.degree == 2 * (locus.degree - 1)
            assert locus_profile(merged, new_locus.id).is_spreadable


def test_enumerate_xi_fixture_counts(theta3, mb, qn):
    assert enumerate_xi(theta3, "b1") == []
    assert enumerate_xi(qn, "bp") == []
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    choices = enumerate_xi(merged, the_locus(merged).id)
    assert len(choices) == 2
    assert all(isinstance(c, NormalSplit) for c in choices)


def test_enumerate_xi_normal_k5():
    wide = theta(5)
    choices = enumerate_xi(wide, "b1")
    assert len(choices) == 5
    assert {(c.gap_b - c.gap_a) % 5 for c in choices} <= {2, 3}


def test_spreadable_iff_xi_nonempty():
    for seed in range(1, 60):
        surface = random_surface(seed, 3 + seed % 26)
        for l in surface.loci:
            profile = locus_profile(surface, l.id)
            assert bool(enumerate_xi(surface, l.id)) == profile.is_spreadable


def test_xi_roundtrip_fixtures(theta3, mb, qn):
    for fixture in (theta3, mb, qn):
        for site in enumerate_ix(fixture):
            merged = apply_ix(fixture, site)
            new_locus = next(l for l in merged.loci
                             if l.id not in fixture.locus_by_id)
            results = [apply_xi(merged, c) for c in enumerate_xi(merged, new_locus.id)]
            assert any(are_isomorphic(r, fixture, SymmetryMode.ROTATIONAL)
                       for r in results)


def test_xi_both_choices_give_theta3(theta3):
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    for choice in enumerate_xi(merged, the_locus(merged).id):
        back = apply_xi(merged, choice)
        assert are_isomorphic(back, theta3, SymmetryMode.ROTATIONAL) is not None


def test_xi_creates_expected_region_class():
    for seed in range(1, 40):
        surface = random_surface(seed, 3 + seed % 22)
        for l in surface.loci:
            for choice in enumerate_xi(surface, l.id):
                after = apply_xi(surface, choice)
                assert validate(after) == []
                fresh = next(r for r in after.regions
                             if r.id not in surface.region_by_id)
                kind = classify_region(after, fresh.id)
                if isinstance(choice, NormalSplit):
                    assert kind is RegionClass.NORMAL_ANNULUS
                elif isinstance(choice, QuasiSplit):
                    assert kind is RegionClass.QUASI_NORMAL_ANNULUS
                else:
                    assert kind is RegionClass.NORMAL_MOEBIUS
                # re-contracting the fresh region undoes the split
                site = IXSite(fresh.id, kind)
                assert are_isomorphic(apply_ix(after, site), surface,
                                      SymmetryMode.ROTATIONAL) is not None


def test_apply_xi_rejects_bad_choice(theta3):
    with pytest.raises(IneligibleMoveError):
        apply_xi(theta3, NormalSplit("b1", 0, 1))
    with pytest.raises(IneligibleMoveError):
        apply_xi(theta3, MoebiusSplit("b1", 0))


def test_maximally_spread_predicates(theta3, qn):
    assert is_maximally_spread_surface(theta3)
    assert is_maximally_spread_region(qn, "A")
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    assert not is_maximally_spread_surface(merged)


def test_spread_potential_values(theta3, mb):
    assert spread_potential(theta3) == 0
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    assert spread_potential(merged) == 1
    merged_mb = apply_ix(mb, enumerate_ix(mb)[0])
    assert spread_potential(merged_mb) == 1


def test_potential_monotone():
    for seed in range(1, 45):
        surface = random_surface(seed, 3 + seed % 24)
        phi = spread_potential(surface)
        assert (phi == 0) == is_maximally_spread_surface(surface)
        for site in enumerate_ix(surface):
            assert spread_potential(apply_ix(surface, site)) > phi
        for l in surface.loci:
            for choice in enumerate_xi(surface, l.id):
                assert spread_potential(apply_xi(surface, choice)) < phi


def test_maximally_spread_fixture_cases(theta3, mb):
    same, record = maximally_spread(theta3)
    assert same == theta3 and len(record) == 0

    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    spread, record = maximally_spread(merged)
    assert len(record) == 1
    assert are_isomorphic(spread, theta3, SymmetryMode.ROTATIONAL) is not None

    merged_mb = apply_ix(mb, enumerate_ix(mb)[0])
    spread, record = maximally_spread(merged_mb)
    assert len(record) == 1
    assert are_isomorphic(spread, mb, SymmetryMode.ROTATIONAL) is not None


def test_maximally_spread_policies(mb):
    merged = apply_ix(mb, enumerate_ix(mb)[0])
    first, _ = maximally_spread(merged, policy="first")
    exhaustive, _ = maximally_spread(merged, policy="exhaustive")
    assert are_isomorphic(first, exhaustive, SymmetryMode.ROTATIONAL) is not None
    endpoints = all_maximal_spreadings(merged)
    assert len(endpoints) == 1
    with pytest.raises(ValueError):
        maximally_spread(merged, policy="bogus")


@pytest.mark.parametrize("policy", ["first", "exhaustive"])
def test_spreading_requires_strict_mode(policy, mb):
    # a two-slot normal locus is spreadable by its profile but has no XI choice
    for surface in (theta(2, ValidityMode.MINOR), theta(4, ValidityMode.MINOR),
                    mb.in_mode(ValidityMode.MINOR)):
        with pytest.raises(ModeError):
            maximally_spread(surface, policy=policy)


def test_all_maximal_spreadings_requires_strict_mode():
    for n in (2, 4):
        with pytest.raises(ModeError):
            all_maximal_spreadings(theta(n, ValidityMode.MINOR))


def test_all_maximal_spreadings_theta5():
    # several spreading orders reach one intermediate class, so the search
    # meets states it has already expanded
    start = theta(5)
    endpoints = all_maximal_spreadings(start)
    assert len(endpoints) == 3
    for i, (a, _) in enumerate(endpoints):
        for b, _ in endpoints[i + 1:]:
            assert are_isomorphic(a, b, SymmetryMode.ROTATIONAL) is None
    for spread, record in endpoints:
        assert is_maximally_spread_surface(spread)
        assert replay(start, record) == spread


def test_fresh_ids_continue_from_largest_suffix():
    taken = {"c3", "c10", "cx", "r1.a"}
    assert _fresh_ids("c", taken, 2) == ["c11", "c12"]
    assert _fresh_ids("r", taken, 1) == ["r1"]
    assert _fresh_ids("c", {"c\u00b2", "c3"}, 1) == ["c4"]  # not a decimal suffix
    # a NormalSplit numbers on from the largest suffix of each kind of id
    surface = MultibranchedSurface(
        (Region("r2", ANNULUS, ("c3", "c4")), Region("r9", ANNULUS, ("c10", "cx")),
         Region("rx", ANNULUS, ("c1", "c2")), Region("r1.a", ANNULUS, ("d1", "d2"))),
        (BranchLocus("b1", 1, ("c3", "c10", "c1", "d1")),
         BranchLocus("b7", 1, ("c4", "cx", "c2", "d2"))))
    assert validate(surface) == []
    after = apply_xi(surface, NormalSplit("b1", 0, 2))
    assert after.regions[-1] == Region("r10", ANNULUS, ("c11", "c12"))
    assert after.loci[-2:] == (
        BranchLocus("b8", 1, ("d1", "c3", "c11"), (1, 1, 1)),
        BranchLocus("b9", 1, ("c10", "c1", "c12"), (-1, -1, 1)))


def test_maximally_spread_records_replay():
    for seed in range(1, 25):
        surface = random_surface(seed, 3 + seed % 20)
        spread, record = maximally_spread(surface)
        assert is_maximally_spread_surface(spread)
        assert len(record) <= spread_potential(surface)
        assert replay(surface, record) == spread


def test_replay_rejects_wrong_hashes(theta3):
    _, record = random_walk(theta3, seed=1, length=2)
    first, second = record.steps
    bad_before = dataclasses.replace(first, hash_before=first.hash_before ^ 1)
    with pytest.raises(ReplayError, match="before step 0"):
        replay(theta3, MoveRecord((bad_before, second)))
    bad_after = dataclasses.replace(second, hash_after=second.hash_after ^ 1)
    with pytest.raises(ReplayError, match="after step 1"):
        replay(theta3, MoveRecord((first, bad_after)))


def test_apply_ih_fixtures(theta3, mb, qn):
    for fixture in (theta3, mb, qn):
        site = enumerate_ix(fixture)[0]
        result = apply_ih(fixture, site)
        assert are_isomorphic(result, fixture, SymmetryMode.ROTATIONAL) is not None
        assert is_maximally_spread_surface(result)


def test_apply_ih_requires_maximally_spread(theta3):
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    spreadable = apply_xi(merged, enumerate_xi(merged, the_locus(merged).id)[0])
    # build a surface with a spreadable locus adjacent to an IX site
    wide = theta(4)
    site = enumerate_ix(wide)[0]
    assert not is_maximally_spread_region(wide, site.region_id)
    with pytest.raises(IneligibleMoveError):
        apply_ih(wide, site)
    del spreadable


def test_splice_names_the_reversal():
    """The XI choice the contraction names is offered at the merged locus
    and undoes the IX-move up to rotation."""
    checked = 0
    for surface in golden_corpus():
        for site in enumerate_ix(surface):
            merged, reversal = _ix(surface, site)
            assert reversal in enumerate_xi(merged, reversal.locus_id), (surface, site)
            undone = apply_xi(merged, reversal)
            assert are_isomorphic(undone, surface, SymmetryMode.ROTATIONAL) is not None, \
                (surface, site)
            checked += 1
    assert checked == 418


# sha256 over the rotational hashes (8 bytes, big-endian) of every apply_ih
# result below, recorded when apply_ih still told the reversal apart by
# comparing canonical forms
IH_DIGEST = "a75ced7e065fb15d5dfcff774ce16bd3683c1a92b59013022286921bb33b778d"


def test_apply_ih_classes_match_digest():
    surfaces = [random_surface(seed, 3 + seed % 28) for seed in range(1, 101)]
    surfaces += [theta(n) for n in range(3, 7)] + [moebius_annulus(), quasi_pure()]
    digest = hashlib.sha256()
    sites = 0
    for surface in surfaces:
        spread, _ = maximally_spread(surface)
        for site in enumerate_ix(spread):
            result = apply_ih(spread, site)
            digest.update(canonical_hash(result, SymmetryMode.ROTATIONAL).to_bytes(8, "big"))
            sites += 1
    assert sites == 170
    assert digest.hexdigest() == IH_DIGEST


def test_apply_ih_runs_no_labelling():
    spread, _ = maximally_spread(random_surface(54, 27))
    sites = enumerate_ix(spread)
    assert sites
    mbs.isomorphism._canonical.cache_clear()
    for site in sites:
        apply_ih(spread, site)
    assert mbs.isomorphism._canonical.cache_info().misses == 0


def test_moves_conserve_invariants():
    for seed in range(1, 40):
        surface = random_surface(seed, 3 + seed % 24)
        stats = (euler_characteristic(surface), connected_components(surface),
                 homology_profile(surface))
        moves = [(s, apply_ix(surface, s)) for s in enumerate_ix(surface)]
        for l in surface.loci:
            moves += [(c, apply_xi(surface, c)) for c in enumerate_xi(surface, l.id)]
        for move, after in moves:
            got = (euler_characteristic(after), connected_components(after),
                   homology_profile(after))
            assert got == stats, move


def test_moves_strict_only():
    strict = theta(4)
    minor = strict.in_mode(ValidityMode.MINOR)
    site = enumerate_ix(strict)[0]
    choice = enumerate_xi(strict, "b1")[0]
    refusals = (lambda: enumerate_ix(minor),
                lambda: enumerate_xi(minor, "b1"),
                lambda: apply_ix(minor, site),
                lambda: apply_xi(minor, choice))
    for refused in refusals:
        with pytest.raises(ModeError,
                           match="IX- and XI-moves are defined on strict surfaces"):
            refused()
