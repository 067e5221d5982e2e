import random

import pytest

from mbs import (
    ContractRegion,
    IneligibleMoveError,
    MinorOutcome,
    ModeError,
    MultibranchedSurface,
    RemoveRegion,
    SearchBudget,
    SymmetryMode,
    ValidityMode,
    apply_ix,
    are_isomorphic,
    closed_surface,
    contract_region,
    enumerate_ix,
    enumerate_reductions,
    is_minor,
    less_than,
    moebius_annulus,
    obstruction_screen,
    quasi_pure,
    random_surface,
    remove_region,
    theta,
    tilde_equivalent,
    validate,
)
from mbs.minors import apply_reduction
from oracles import reference_is_minor, reference_less_than


@pytest.fixture
def theta3m():
    return theta(3).in_mode(ValidityMode.MINOR)


@pytest.fixture
def torus_complex(theta3m):
    return contract_region(remove_region(theta3m, "r1"), "r2")


def test_enumerate_reductions_counts(theta3m, qn):
    steps = enumerate_reductions(theta3m)
    assert sum(isinstance(s, RemoveRegion) for s in steps) == 3
    assert sum(isinstance(s, ContractRegion) for s in steps) == 3

    steps = enumerate_reductions(qn.in_mode(ValidityMode.MINOR))
    assert sum(isinstance(s, RemoveRegion) for s in steps) == 2
    assert [s.region_id for s in steps if isinstance(s, ContractRegion)] == ["A"]

    steps = enumerate_reductions(closed_surface(False, 1))
    assert steps == [RemoveRegion("s")]


def test_reductions_require_minor_mode(theta3):
    with pytest.raises(ModeError):
        enumerate_reductions(theta3)
    with pytest.raises(ModeError):
        remove_region(theta3, "r1")


def test_remove_region_theta(theta3m):
    out = remove_region(theta3m, "r1")
    assert validate(out) == []
    assert {l.degree for l in out.loci} == {2}
    assert len(out.loci) == 2 and len(out.regions) == 2


def test_remove_region_mb():
    mbm = moebius_annulus().in_mode(ValidityMode.MINOR)
    out = remove_region(mbm, "C")
    assert validate(out) == []
    (locus,) = out.loci
    assert locus.wrapping == 1 and locus.slots == ("m",) and locus.degree == 1


def test_remove_last_region_gives_empty_surface():
    out = remove_region(closed_surface(True, 2), "s")
    assert out.regions == () and out.loci == ()
    assert validate(out) == []


def test_contract_chain_to_torus(theta3m, torus_complex):
    assert validate(torus_complex) == []
    (locus,) = torus_complex.loci
    assert locus.degree == 2 and locus.wrapping == 1
    (region,) = torus_complex.regions
    assert region.topology.is_annulus


def test_contract_agrees_with_ix(qn):
    qnm = qn.in_mode(ValidityMode.MINOR)
    via_contract = contract_region(qnm, "A")
    via_ix = apply_ix(qn, enumerate_ix(qn)[0]).in_mode(ValidityMode.MINOR)
    assert are_isomorphic(via_contract, via_ix, SymmetryMode.ROTATIONAL) is not None


def test_contract_rejects_closing(qn):
    with pytest.raises(IneligibleMoveError):
        contract_region(qn.in_mode(ValidityMode.MINOR), "C")


def test_contract_rejects_bare_circle_outcome():
    mbm = moebius_annulus().in_mode(ValidityMode.MINOR)
    lonely = remove_region(mbm, "C")  # Moebius band on a degree-1 locus
    with pytest.raises(IneligibleMoveError, match="would leave locus b bare"):
        contract_region(lonely, "M")


def contractible(surface, region_id):
    try:
        contract_region(surface, region_id)
    except IneligibleMoveError:
        return False
    return True


def test_listed_contractions_are_exactly_the_contractible_regions():
    surfaces = [random_surface(seed, 1 + seed % 25, ValidityMode.MINOR)
                for seed in range(1, 301)]
    surfaces += [theta(n, ValidityMode.MINOR) for n in range(1, 5)]
    surfaces += [moebius_annulus(ValidityMode.MINOR), quasi_pure(ValidityMode.MINOR)]
    for surface in surfaces:
        listed = [s.region_id for s in enumerate_reductions(surface)
                  if isinstance(s, ContractRegion)]
        assert listed == sorted(r.id for r in surface.regions
                                if contractible(surface, r.id))
    with pytest.raises(IneligibleMoveError, match="would leave locus b1\\+b2 bare"):
        contract_region(theta(1, ValidityMode.MINOR), "r1")


def test_reduction_outputs_always_valid_minor():
    for seed in range(1, 30):
        surface = random_surface(seed, 1 + seed % 22, ValidityMode.MINOR)
        for step in enumerate_reductions(surface):
            out = apply_reduction(surface, step)
            assert validate(out) == [], (seed, step)
            assert len(out.regions) + len(out.loci) < \
                len(surface.regions) + len(surface.loci)


def test_reduction_chains_terminate():
    for seed in range(1, 15):
        surface = random_surface(seed, 1 + seed % 18, ValidityMode.MINOR)
        bound = len(surface.regions) + len(surface.loci)
        count = 0
        while True:
            steps = enumerate_reductions(surface)
            if not steps:
                break
            surface = apply_reduction(surface, steps[0])
            count += 1
            assert count <= bound


def test_less_than_single_step(theta3m):
    smaller = remove_region(theta3m, "r2")
    chain = less_than(smaller, theta3m)
    assert chain is not None and len(chain) == 1
    assert less_than(theta3m, smaller) is None


def test_is_minor_torus_chain(theta3m, torus_complex):
    outcome = is_minor(torus_complex, theta3m)
    assert outcome.found and outcome.complete
    assert len(outcome.sequence) == 2
    assert isinstance(outcome.sequence[0], RemoveRegion)
    assert isinstance(outcome.sequence[1], ContractRegion)
    # the found chain replays down to the target
    current = theta3m
    for step in outcome.sequence:
        current = apply_reduction(current, step)
    assert are_isomorphic(current, torus_complex, SymmetryMode.MIRROR) is not None


def test_is_minor_reflexive(theta3m):
    outcome = is_minor(theta3m, theta3m)
    assert outcome.found and outcome.sequence == ()


def test_is_minor_definitive_negative(theta3m):
    klein = closed_surface(False, 2)
    outcome = is_minor(klein, theta3m)
    assert not outcome.found and outcome.complete


def test_is_minor_is_definitive_when_the_downward_set_fits_the_budget(theta3m):
    # the reductions of theta(3) down to the size of a Klein bottle reach
    # exactly 5 states, theta(3) among them
    klein = closed_surface(False, 2)
    assert is_minor(klein, theta3m, SearchBudget(max_states=5)) == MinorOutcome(None, True)
    assert is_minor(klein, theta3m, SearchBudget(max_states=4)) == MinorOutcome(None, False)


def minor_corpus():
    """Minor-mode random surfaces y, each with two targets: y reduced one to
    three times at random, and an unrelated smaller surface."""
    for seed in range(1, 120):
        y = random_surface(seed, 6 + seed % 12, ValidityMode.MINOR)
        rng = random.Random(seed)
        x = y
        for _ in range(1 + seed % 3):
            steps = enumerate_reductions(x)
            if steps:
                x = apply_reduction(x, rng.choice(steps))
        yield x, y
        yield random_surface(seed + 500, 4 + seed % 5, ValidityMode.MINOR), y


def test_is_minor_matches_reference():
    ample = SearchBudget(max_states=100_000)
    boundary = 0
    for x, y in minor_corpus():
        assert is_minor(x, y, ample) == reference_is_minor(x, y, ample)
        for m in (2, 4, 8, 16):
            budget = SearchBudget(max_states=m)
            outcome, reference = is_minor(x, y, budget), reference_is_minor(x, y, budget)
            if outcome != reference:
                # only where the whole downward set holds exactly m states,
                # which the reference reads as incomplete
                assert reference == MinorOutcome(None, False)
                assert outcome == MinorOutcome(None, True)
                assert not is_minor(x, y, SearchBudget(max_states=m - 1)).complete
                boundary += 1
    assert boundary


def test_less_than_matches_reference():
    """One level of the class walk gives the chain of the loop over the
    reductions of y, on the corpus plus y itself (the empty chain is no
    step) and the first three one-step reductions of each y, in every
    mode."""
    pairs = list(minor_corpus())
    for y in {id(y): y for _, y in pairs}.values():
        pairs += [(y, y)] + [(apply_reduction(y, step), y)
                             for step in enumerate_reductions(y)[:3]]
    found = 0
    for x, y in pairs:
        for mode in SymmetryMode:
            chain = less_than(x, y, mode=mode)
            assert chain == reference_less_than(x, y, mode=mode), (x, y, mode)
            found += chain is not None
    assert len(pairs) == 602 and found > 900


def test_tilde_equivalent(theta3m):
    mbm = moebius_annulus().in_mode(ValidityMode.MINOR)
    assert tilde_equivalent(theta3m, theta3m)
    assert not tilde_equivalent(theta3m, mbm)

    from helpers import scramble

    assert tilde_equivalent(theta3m, scramble(theta3m, 5))


def test_tilde_equivalent_requires_minor_mode(theta3):
    # one isomorphic pair and one non-isomorphic pair with equal invariants
    x, y = random_surface(15, 12), random_surface(21, 12)
    for a, b in ((theta3, theta3), (x, y)):
        with pytest.raises(ModeError):
            tilde_equivalent(a, b)


def test_obstruction_screen(qn):
    flags = obstruction_screen(closed_surface(False, 1))
    assert flags.has_nonorientable_closed_region
    assert obstruction_screen(qn).locus_wrapping_gcd == 1
    from mbs import BranchLocus, Region, RegionTopology

    all3 = MultibranchedSurface(
        (Region("r", RegionTopology(True, 1, 2), ("x", "y")),),
        (BranchLocus("a", 3, ("x",)), BranchLocus("b", 3, ("y",))),
        ValidityMode.MINOR)
    assert obstruction_screen(all3).locus_wrapping_gcd == 3
    assert obstruction_screen(MultibranchedSurface((), (), ValidityMode.MINOR)) \
        .locus_wrapping_gcd == 1
