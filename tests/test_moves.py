import hashlib

import pytest

import mbs.isomorphism
import mbs.moves
from mbs import (
    ANNULUS,
    BranchLocus,
    IneligibleMoveError,
    IXSite,
    ModeError,
    MoebiusSplit,
    MoveRecord,
    MoveStep,
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
    apply_move,
    apply_xi,
    are_isomorphic,
    canonical_form,
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
    neighbors,
    quasi_pure,
    random_surface,
    random_walk,
    replay,
    spread_potential,
    theta,
    validate,
)
from mbs.moves import (
    _apply,
    _fresh_ids,
    _grow,
    _moves,
    _Side,
    _spreadings,
    _successors,
    _xi_choices,
    all_maximal_spreadings,
)
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


# greedy spreading, and the exhaustive spreading's least endpoint
SPREADS = {"first": maximally_spread,
           "exhaustive": lambda surface: all_maximal_spreadings(surface)[0]}


def test_maximally_spread_policies(mb):
    merged = apply_ix(mb, enumerate_ix(mb)[0])
    first, _ = maximally_spread(merged)
    exhaustive, _ = all_maximal_spreadings(merged)[0]
    assert are_isomorphic(first, exhaustive, SymmetryMode.ROTATIONAL) is not None
    endpoints = all_maximal_spreadings(merged)
    assert len(endpoints) == 1


@pytest.mark.parametrize("policy", ["first", "exhaustive"])
def test_spreading_requires_strict_mode(policy, mb):
    # a two-slot normal locus is spreadable by its profile but has no XI choice
    for surface in (theta(2, ValidityMode.MINOR), theta(4, ValidityMode.MINOR),
                    mb.in_mode(ValidityMode.MINOR)):
        with pytest.raises(ModeError):
            SPREADS[policy](surface)


@pytest.mark.parametrize("policy", ["first", "exhaustive"])
def test_spreading_labels_no_more_than_it_needs(monkeypatch, policy):
    # both spreadings are one walk that labels each surface it builds once,
    # forwards, and the record reads those labellings again; greedy
    # spreading builds only its chain, and a spread input labels nothing
    labelled = []
    search = mbs.isomorphism._search_canonical

    def counted(surface, directions):
        labelled.append((surface, directions))
        return search(surface, directions)

    monkeypatch.setattr(mbs.isomorphism, "_search_canonical", counted)
    mbs.isomorphism._canonical.cache_clear()
    spread, record = SPREADS[policy](theta(5))
    chain = [theta(5)]
    for step in record.steps:
        chain.append(apply_move(chain[-1], step.move))
    assert chain[-1] == spread and len(record) == 4
    if policy == "first":
        assert labelled == [(s, (1,)) for s in chain]
    else:  # the record labels nothing that the walk did not
        walked = list(labelled)
        mbs.isomorphism._canonical.cache_clear()
        labelled.clear()
        _spreadings(theta(5), _xi_choices)
        assert labelled == walked and len(set(walked)) == len(walked) > len(chain)
        assert {d for _, d in walked} == {(1,)}
    mbs.isomorphism._canonical.cache_clear()  # a spread input labels nothing, cached or not
    labelled.clear()
    assert SPREADS[policy](spread) == (spread, MoveRecord(()))
    assert labelled == []


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


def test_one_applier_under_three_names():
    assert apply_ix is apply_xi is apply_move


def test_all_maximal_spreadings_enumerates_each_class_once(monkeypatch):
    # every rotational class met while spreading theta(5) has its XI choices
    # listed once: one enumerate_xi call per locus of one of its surfaces
    calls = {}
    plain = mbs.moves.enumerate_xi

    def counted(surface, locus_id):
        key = canonical_form(surface, SymmetryMode.ROTATIONAL).data
        calls.setdefault(key, []).append((surface, locus_id))
        return plain(surface, locus_id)

    monkeypatch.setattr(mbs.moves, "enumerate_xi", counted)
    endpoints = all_maximal_spreadings(theta(5))
    assert len(endpoints) == 3 and len(calls) > len(endpoints)
    for listed in calls.values():
        surface = listed[0][0]
        assert sorted(l for _, l in listed) == sorted(l.id for l in surface.loci)


def xi_successors(surface, undo=None):
    return _successors(surface, _xi_choices(surface))


def test_class_walk_stops_for_each_of_its_reasons():
    # spreading theta(4) ends when no XI-move is left
    side = _Side(theta(4))
    assert _grow((side,), xi_successors) == (None, "space")
    assert not side.frontier and side.depth == 3 and len(side.tree) == 4
    # one level deep, with XI-moves left to take
    side = _Side(theta(4))
    assert _grow((side,), xi_successors, max_depth=1) == (None, "depth")
    assert side.frontier and side.depth == 1
    # the third state goes over a budget of two
    side = _Side(theta(4))
    assert _grow((side,), xi_successors, max_states=2) == (None, "states")
    assert len(side.tree) == 3
    # a start that is the goal builds no successor
    calls = []
    side = _Side(theta(4))
    (root,) = side.tree
    assert _grow((side,), lambda s, _: calls.append(s) or xi_successors(s), goal=root) == \
        (root, None)
    assert not calls and side.depth == 0


def test_class_walk_stops_where_two_trees_meet():
    start = theta(4)
    spread = _apply(start, next(_xi_choices(start)))[0]
    x, y = _Side(start), _Side(spread)
    key, why = _grow((x, y), xi_successors)
    assert why is None and key in x.tree and key in y.tree
    # the first side on a tie grows first: theta(4)'s first XI-move meets y
    assert x.depth == 1 and y.depth == 0


# sha256 of the sorted (rotational canonical form, witness length) pairs of
# every spreading corpus surface, recorded from the depth-first spreading
# that the breadth-first class walk replaced
SPREAD_DIGEST = "aa5886ace0975377df4904c6699df1134f12c5190585f2ff7300b364a7e05e29"


def spreading_corpus():
    """theta(3..5) and random_surface(s, 10 + s % 16) for s = 1..80, but
    for the ten whose spreading takes over 20 ms (s = 43 over 1 s)."""
    slow = {8, 24, 40, 41, 43, 45, 53, 56, 60, 75}
    return [theta(n) for n in range(3, 6)] + \
        [random_surface(s, 10 + s % 16) for s in range(1, 81) if s not in slow]


def test_all_maximal_spreadings_come_in_canonical_order():
    digest = hashlib.sha256()
    witnessed = 0
    for start in spreading_corpus():
        endpoints = all_maximal_spreadings(start)
        keys = [canonical_form(spread, SymmetryMode.ROTATIONAL).data for spread, _ in endpoints]
        assert keys == sorted(set(keys))
        for spread, record in endpoints:
            assert replay(start, record) == spread
            witnessed += len(record)
        # greedy spreading reaches one of the classes
        assert canonical_form(maximally_spread(start)[0], SymmetryMode.ROTATIONAL).data in keys
        digest.update(repr(sorted(zip(keys, (len(record) for _, record in endpoints)))).encode())
    assert witnessed > 300
    assert digest.hexdigest() == SPREAD_DIGEST


def test_spreading_records_do_not_depend_on_the_order_of_loci():
    # both spreadings take XI choices by locus id, so listing the loci in
    # reverse changes no record
    starts = [theta(4), theta(5)] + [random_surface(t, 10 + t % 16)
                                     for t in (5, 8, 20, 24, 26, 38, 39, 40)]
    for start in starts:
        reordered = MultibranchedSurface(start.regions, start.loci[::-1], start.mode)
        assert maximally_spread(reordered)[1] == maximally_spread(start)[1]
        assert [record for _, record in all_maximal_spreadings(reordered)] == \
            [record for _, record in all_maximal_spreadings(start)]


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


def test_fresh_ids_past_the_int_digit_limit():
    """A suffix too long for ``int()`` gives ids one digit longer than every
    suffix, so they collide with none; moves on a surface with such an id
    apply and give the classes of the same moves on the plain surface."""
    huge = "9" * 5000
    assert _fresh_ids("b", {"b" + huge, "b3", "c" + huge}, 2) == \
        ["b1" + "1".zfill(5000), "b1" + "2".zfill(5000)]
    # 4,300 nines read, but their successor has too many digits to write
    assert _fresh_ids("b", {"b" + "9" * 4300}, 1) == ["b1" + "1".zfill(4300)]
    assert _fresh_ids("b", {"b" + "9" * 4299}, 1) == ["b1" + "0" * 4299]
    plain = theta(4)
    locus, other = plain.loci
    renamed = BranchLocus("b" + huge, locus.wrapping, locus.slots, locus.signs)
    surface = MultibranchedSurface(plain.regions, (renamed, other))
    assert validate(surface) == []
    key = {move: canonical_form(after, SymmetryMode.ROTATIONAL).data
           for move, after in neighbors(plain)}
    seen = set()
    for move, after in neighbors(surface):
        if getattr(move, "locus_id", None) == "b" + huge:
            # the same choice at the plain locus: every XI choice names its
            # locus first
            move = type(move)(locus.id, *[getattr(move, name)
                                          for name in move.__match_args__[1:]])
        assert validate(after) == []
        assert canonical_form(after, SymmetryMode.ROTATIONAL).data == key[move]
        seen.add(move)
    assert seen == key.keys()
    spread, record = maximally_spread(apply_ix(surface, enumerate_ix(surface)[0]))
    plain_spread, plain_record = maximally_spread(apply_ix(plain, enumerate_ix(plain)[0]))
    assert len(record) == len(plain_record) == 3
    assert canonical_form(spread, SymmetryMode.ROTATIONAL).data == \
        canonical_form(plain_spread, SymmetryMode.ROTATIONAL).data


def test_maximally_spread_records_replay():
    for seed in range(1, 25):
        surface = random_surface(seed, 3 + seed % 20)
        spread, record = maximally_spread(surface)
        assert is_maximally_spread_surface(spread)
        assert len(record) <= spread_potential(surface)
        assert replay(surface, record) == spread


def test_maximally_spread_lists_no_ix_sites(monkeypatch):
    """Spreading applies only XI-moves, so it never asks for the IX sites."""
    listed = []

    def counted(surface):
        listed.append(surface)
        return enumerate_ix(surface)

    monkeypatch.setattr(mbs.moves, "enumerate_ix", counted)
    steps = 0
    for seed in range(1, 31):
        steps += len(maximally_spread(random_surface(seed, 20 + seed % 20))[1])
    assert steps > 0
    assert listed == []


def test_replay_rejects_wrong_hashes(theta3):
    _, record = random_walk(theta3, seed=1, length=2)
    first, second = record.steps
    bad_before = MoveStep(first.move, first.hash_before ^ 1, first.hash_after)
    with pytest.raises(ReplayError, match="before step 0"):
        replay(theta3, MoveRecord((bad_before, second)))
    bad_after = MoveStep(second.move, second.hash_before, second.hash_after ^ 1)
    with pytest.raises(ReplayError, match="after step 1"):
        replay(theta3, MoveRecord((first, bad_after)))


def test_replay_hashes_each_surface_once(theta3, monkeypatch):
    _, record = random_walk(theta3, seed=1, length=4)
    assert len(record) == 4
    plain = mbs.isomorphism.canonical_hash
    hashed = []

    def counted(surface, mode):
        hashed.append(surface)
        return plain(surface, mode)

    monkeypatch.setattr(mbs.isomorphism, "canonical_hash", counted)
    replay(theta3, record)
    assert len(hashed) == len(record) + 1


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


def test_every_move_has_an_inverse():
    """The inverse read off each move takes the move's result back to the
    rotational class of its input: for an IX-move the XI choice that the
    contraction names, which the merged locus offers, and for an XI-move
    the IX-move along the region it created.  The result offers the inverse
    among its moves, which the search's skip of a state's undo needs."""
    checked = {IXSite: 0, NormalSplit: 0, QuasiSplit: 0, MoebiusSplit: 0}
    for surface in golden_corpus():
        want = canonical_form(surface, SymmetryMode.ROTATIONAL)
        for move, after in neighbors(surface):
            applied, undo = _apply(surface, move)
            assert applied == after, (surface, move)
            assert undo in _moves(after), (surface, move)
            back = apply_move(after, undo)
            assert canonical_form(back, SymmetryMode.ROTATIONAL) == want, (surface, move)
            checked[type(move)] += 1
    assert checked[IXSite] == 418
    assert sum(checked.values()) == 1179
    assert min(checked.values()) > 0


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
