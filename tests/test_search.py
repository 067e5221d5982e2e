import hashlib
import json
import sys
import threading
import time
from functools import reduce

import pytest

import mbs.algebra
import mbs.isomorphism
import mbs.moves
import mbs.search
from mbs import (
    BranchLocus,
    ExhaustedWithinBudget,
    Found,
    InvariantMismatch,
    ModeError,
    MultibranchedSurface,
    Region,
    RegionTopology,
    SearchBudget,
    SymmetryMode,
    ValidityMode,
    apply_ix,
    are_isomorphic,
    canonical_form,
    disjoint_union,
    enumerate_ix,
    homology_profile,
    is_minor,
    maximally_spread,
    moebius_annulus,
    neighbors,
    quasi_pure,
    random_surface,
    random_walk,
    replay,
    search_equivalence,
    theta,
)
from mbs.io import record_to_document
from mbs.isomorphism import _canonical
from mbs.moves import _moves, _orbit_moves
from helpers import is_automorphism, mirror_image, ring, scramble
from oracles import (
    orbit_roots,
    reference_invert_backward_chain,
    reference_orbit_moves,
    reference_search_equivalence,
    reference_symmetry_search,
)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_depth=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=0)


def test_neighbor_counts(theta3, mb, qn):
    assert len(neighbors(theta3)) == 3
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    assert len(neighbors(merged)) == 2
    assert len(neighbors(qn)) == 1
    assert len(neighbors(mb)) == 1


def test_moves_on_minor_surfaces_raise_mode_error(theta3):
    with pytest.raises(ModeError):
        neighbors(theta(4, ValidityMode.MINOR))
    minor = random_surface(4, 20, ValidityMode.MINOR)  # has no IX or XI site
    with pytest.raises(ModeError):
        random_walk(minor, 4, 3)
    walked, record = random_walk(minor, 4, 0)
    assert walked is minor and len(record) == 0
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    with pytest.raises(ModeError):  # passes every quick check
        search_equivalence(theta3.in_mode(ValidityMode.MINOR),
                           merged.in_mode(ValidityMode.MINOR))


def test_neighbors_deterministic(theta3):
    a = neighbors(theta3)
    b = neighbors(theta3)
    assert [m for m, _ in a] == [m for m, _ in b]
    assert [s for _, s in a] == [s for _, s in b]


def orbit_surfaces():
    """Random surfaces, the theta family spread and not, short walks of it
    and unions of two components; scrambled presentations give symmetries
    that both swap and rotate loci."""
    surfaces = [random_surface(s, 3 + s % 28) for s in range(1, 201)]
    surfaces += [theta(n) for n in range(3, 8)]
    surfaces += [maximally_spread(theta(n))[0] for n in range(3, 8)]
    surfaces += [scramble(theta(n), n) for n in range(3, 8)]
    surfaces += [random_walk(theta(n), seed, 3)[0] for n in (4, 5, 6) for seed in (1, 2, 3)]
    surfaces += [disjoint_union(theta(4), theta(4)),
                 disjoint_union(theta(3), maximally_spread(theta(4))[0]),
                 disjoint_union(random_surface(7, 12), scramble(random_surface(7, 12), 7))]
    return surfaces


def test_one_move_per_orbit_reaches_every_class():
    """The moves the search keeps, one per orbit of the symmetries that the
    labeling found, reach the rotational classes of all the moves; and each
    symmetry sends every offered move to an offered move with an isomorphic
    result."""
    offered = kept = 0
    for surface in orbit_surfaces():
        key = {move: canonical_form(after, SymmetryMode.ROTATIONAL).data
               for move, after in neighbors(surface)}
        automorphisms = _canonical(surface, SymmetryMode.ROTATIONAL).automorphisms
        for region_map, locus_map, alignment in automorphisms:
            assert locus_map.keys() == alignment.keys()
            assert is_automorphism(surface, (region_map, locus_map, alignment))
            all_regions = {r.id: region_map.get(r.id, r.id) for r in surface.regions}
            all_loci = {l.id: locus_map.get(l.id, l.id) for l in surface.loci}
            all_alignment = {l.id: alignment.get(l.id, (0, False)) for l in surface.loci}
            for move in key:
                image = mbs.moves._image(move, surface, all_regions, all_loci, all_alignment)
                assert key[image] == key[move], (surface, move, image)
        moves = _orbit_moves(surface)
        successors = mbs.moves._successors(surface, moves)
        assert {canonical_form(after, SymmetryMode.ROTATIONAL).data
                for _, after, _ in successors} == set(key.values())
        assert moves == [move for move in key if move in moves]  # move order
        offered += len(key)
        kept += len(moves)
    assert kept < offered


def test_orbit_moves_match_the_union_find_reference():
    """The breadth-first orbit walk keeps the moves, in order, that the
    earlier union-find kept, with and without symmetries to prune by."""
    pruned = 0
    for surface in orbit_surfaces():
        moves = _orbit_moves(surface)
        assert moves == reference_orbit_moves(surface), surface
        for move in _moves(surface):  # no map lists a move it fixes
            assert mbs.moves._image(move, surface, {}, {}, {}) == move
        pruned += len(moves) < len(list(_moves(surface)))
    assert pruned == 21


def swapped_pairs_flipping_one_region():
    """Orientable regions A and B joined by the locus pairs (L0a, L0b) and
    (L1a, L1b), each pair the same up to B's signs and the private regions
    P1, P1' and P2, P2'.  Swapping every pair flips B's potential and not
    A's, so once other loci (M0, M1) have numbered A and B, that symmetry
    maps a node to another node, and pruning by it there loses the first
    least leaf: the code stays, but another leaf realises it."""
    loci = {
        "L0a": (("P2.0", 1), ("P1.0", -1), ("A.0", 1), ("A.2", 1), ("B.0", 1)),
        "L0b": (("P2'.0", 1), ("P1'.0", -1), ("A.1", 1), ("A.3", 1), ("B.1", -1)),
        "L1a": (("B.2", 1), ("B.4", -1), ("P1.1", -1), ("B.6", 1)),
        "L1b": (("B.3", -1), ("B.5", 1), ("P1'.1", -1), ("B.7", -1)),
        "M0": (("A.4", 1), ("A.5", -1), ("A.6", 1)),
        "M1": (("B.8", -1), ("B.9", 1), ("B.10", -1)),
    }
    circles = {}
    for slots in loci.values():
        for circle, _ in slots:
            circles.setdefault(circle.split(".")[0], []).append(circle)
    regions = tuple(Region(rid, RegionTopology(True, int(len(cs) == 1), len(cs)), tuple(cs))
                    for rid, cs in circles.items())
    return MultibranchedSurface(regions, tuple(BranchLocus(lid, 1, *zip(*slots))
                                               for lid, slots in loci.items()))


def test_symmetry_pruning_matches_the_reference():
    """Pruning the labeller's search by the symmetries it has found keeps
    the labelling of the unpruned reference search; each generator it keeps
    is a symmetry, and they give orbits of the moves that are the
    reference's or unions of them, never finer ones."""
    surfaces = []
    for surface in orbit_surfaces():
        surfaces += [surface] + [after for _, after in neighbors(surface)]
    surfaces += [random_surface(seed, 3 + seed % 30) for seed in range(1, 401)]
    surfaces += [random_walk(theta(n), seed, 2)[0] for n in (4, 5, 6) for seed in range(1, 21)]
    # in two of these walks of spread theta, pruning by a symmetry that does
    # not fix the node would lose the least leaf
    surfaces += [random_walk(maximally_spread(theta(n))[0], seed, 2)[0]
                 for n in (5, 6, 7) for seed in range(1, 11)]
    # and here, pruning by one that fixes the node's loci and regions but
    # flips some of its potentials and not the others
    surfaces.append(swapped_pairs_flipping_one_region())
    equal = coarser = 0
    for surface in surfaces:
        labelling = _canonical.__wrapped__(surface, SymmetryMode.ROTATIONAL)
        reference = reference_symmetry_search(surface)
        assert labelling == reference, surface
        assert all(is_automorphism(surface, generator)
                   for generator in labelling.automorphisms), surface
        moves = list(_moves(surface))
        want = orbit_roots(surface, moves, reference.automorphisms)
        got = orbit_roots(surface, moves, labelling.automorphisms)
        # each reference orbit lies inside one orbit
        assert all(got[i] == got[want[i]] for i in range(len(moves))), surface
        if got == want:
            equal += 1
        else:
            coarser += 1
    assert (equal, coarser) == (1670, 3)


def test_orbit_moves_drop_exactly_the_orbit_of_the_undo():
    """Given the undo of the move that made a surface, the orbit walk keeps
    what it keeps without it but one move, the first of the undo's orbit,
    and that move leads back to the class the move started from."""
    checked, symmetric = 0, 0
    for surface in orbit_surfaces():
        want = canonical_form(surface, SymmetryMode.ROTATIONAL)
        for _, after, undo in mbs.moves._successors(surface, _orbit_moves(surface)):
            full, kept = _orbit_moves(after), _orbit_moves(after, undo)
            (dropped,) = [move for move in full if move not in kept]
            assert kept == [move for move in full if move != dropped]
            back = mbs.moves._apply(after, dropped)[0]
            assert canonical_form(back, SymmetryMode.ROTATIONAL) == want, (surface, undo)
            checked += 1
            symmetric += dropped != undo
    assert (checked, symmetric) == (770, 32)


def test_pruned_search_matches_the_unpruned_search(monkeypatch):
    """Keeping the first move of each orbit leaves the trees, the meets and
    the records of the search as they are when it applies every move."""
    budget = SearchBudget(max_depth=4, max_states=20000)
    cases = []
    for start in (theta(4), theta(5), random_surface(2, 30), random_surface(6, 30)):
        for seed, length in ((1, 2), (2, 3), (3, 4)):
            walked = random_walk(start, seed, length)[0]
            cases.append((start, scramble(walked, seed), budget, SymmetryMode.MIRROR))
    deep = random_walk(theta(5), 2, 6)[0]
    cases += [(theta(3), moebius_annulus(), budget, SymmetryMode.MIRROR),
              (theta(5), deep, SearchBudget(max_depth=1), SymmetryMode.ROTATIONAL),
              (theta(5), deep, SearchBudget(max_depth=4, max_states=30),
               SymmetryMode.ROTATIONAL)]
    outcomes = []
    for x, y, budget, mode in cases:
        got = search_equivalence(x, y, budget, mode)
        # every move, the undo of the move that made the state among them
        monkeypatch.setattr(mbs.search, "_orbit_moves",
                            lambda surface, undo: list(_moves(surface)))
        want = search_equivalence(x, y, budget, mode)
        monkeypatch.undo()
        assert got == want, (x, y)
        outcomes.append(got)
    assert {type(o) for o in outcomes} == {Found, InvariantMismatch, ExhaustedWithinBudget}
    assert ExhaustedWithinBudget("depth budget exhausted") in outcomes
    assert ExhaustedWithinBudget("state or time budget exhausted") in outcomes


def test_search_matches_the_sorted_reference():
    """Growing each level in discovery order, not sorted, keeps the outcome,
    the reason and the record length wherever neither run ends on the state
    budget; where one does, the other may find a record."""
    starts = [theta(n) for n in range(3, 7)] + [moebius_annulus(), quasi_pure()] + \
        [random_surface(s, 8 + s % 16) for s in range(1, 30)]
    states = ExhaustedWithinBudget("state or time budget exhausted")
    outcomes, budget_moved = set(), []
    for i, start in enumerate(starts):
        for length in range(1, 5):
            walked = random_walk(start, 100 * i + length, length)[0]
            for max_states in (10, 40, 5000):
                for max_depth in (2, 4):
                    budget = SearchBudget(max_depth=max_depth, max_states=max_states)
                    got = search_equivalence(start, walked, budget)
                    want = reference_search_equivalence(start, walked, budget)
                    if isinstance(got, Found):
                        endpoint = replay(start, got.record)
                        assert are_isomorphic(endpoint, walked) is not None
                    outcomes.add(got if got == states else type(got))
                    if states in (got, want):
                        if got != want:
                            budget_moved.append((i, max_states, max_depth))
                            assert Found in (type(got), type(want))
                        continue
                    assert type(got) is type(want), (i, length, budget)
                    assert getattr(got, "reason", None) == getattr(want, "reason", None)
                    if isinstance(got, Found):
                        assert len(got.record) == len(want.record), (i, length, budget)
    assert outcomes == {Found, states}
    assert len(budget_moved) <= 4, budget_moved


# sha256 over the record documents of MIRROR searches between walk pairs,
# recorded when the search still labelled the reversed passes of x, y and
# the endpoint and built the undo of each state's move
SEARCH_DIGEST = "023e2a778ca121493bf310b9cda31268c8eeec83445c7e677b558e1acd0c7c01"


def test_search_records_match_digest():
    starts = [theta(4), theta(5), moebius_annulus(), quasi_pure()] + \
        [random_surface(i, 30) for i in (2, 5, 6)]
    digest = hashlib.sha256()
    for n, start in enumerate(starts):
        for seed in range(1, 9):
            length = 1 + seed % 4
            y = scramble(random_walk(start, 10 * n + seed, length)[0], seed)
            outcome = search_equivalence(start, y, SearchBudget(max_depth=length),
                                         SymmetryMode.MIRROR)
            assert isinstance(outcome, Found), (n, seed)
            digest.update(json.dumps(record_to_document(outcome.record),
                                     sort_keys=True).encode())
    assert digest.hexdigest() == SEARCH_DIGEST


def test_search_identity(theta3):
    outcome = search_equivalence(theta3, theta3)
    assert isinstance(outcome, Found)
    assert len(outcome.record) == 0


def test_search_finds_recorded_walk(theta3):
    walked, record = random_walk(theta3, seed=11, length=4)
    depth = max(len(record), 1)
    outcome = search_equivalence(theta3, walked,
                                 SearchBudget(max_depth=depth, max_states=20000),
                                 SymmetryMode.ROTATIONAL)
    assert isinstance(outcome, Found)
    assert len(outcome.record) <= 2 * len(record)
    endpoint = replay(theta3, outcome.record)
    assert are_isomorphic(endpoint, walked, SymmetryMode.ROTATIONAL) is not None


def test_search_invariant_mismatch(theta3, mb):
    outcome = search_equivalence(theta3, mb)
    assert isinstance(outcome, InvariantMismatch)
    assert outcome.which == "homology_profile"


def test_search_component_mismatch(theta3):
    from mbs import disjoint_union

    outcome = search_equivalence(theta3, disjoint_union(theta3, theta(3)))
    assert isinstance(outcome, InvariantMismatch)


def test_search_exhausts_gracefully(theta3):
    big = theta(6)
    outcome = search_equivalence(theta3, big)
    # Euler characteristic and components agree; homology tells them apart
    assert outcome == InvariantMismatch("homology_profile")


def test_search_rejects_on_euler_characteristic(theta3):
    outcome = search_equivalence(theta3, random_surface(1, 12))
    assert outcome == InvariantMismatch("euler_characteristic")


def test_search_reports_exhausted_state_space():
    budget = SearchBudget(max_depth=30, max_cell_count=7)
    outcome = search_equivalence(random_surface(1, 9), random_surface(65, 13), budget)
    assert outcome == ExhaustedWithinBudget("state space exhausted within budget")


def test_search_reports_exhausted_depth():
    start = theta(4)
    walked, _ = random_walk(start, 3, 4)
    outcome = search_equivalence(start, walked, SearchBudget(max_depth=1),
                                 SymmetryMode.ROTATIONAL)
    assert outcome == ExhaustedWithinBudget("depth budget exhausted")


def test_random_walk_length_zero(theta3):
    surface, record = random_walk(theta3, seed=1, length=0)
    assert surface == theta3
    assert len(record) == 0


def test_random_walk_applies_only_the_drawn_move(theta3, monkeypatch):
    expected = random_walk(theta3, seed=7, length=5)
    applied, apply = [], mbs.moves._apply

    def counted(surface, move, ids=None):
        applied.append(move)
        return apply(surface, move, ids)

    monkeypatch.setattr(mbs.moves, "_apply", counted)
    walked = random_walk(theta3, seed=7, length=5)
    assert walked == expected
    assert applied == [step.move for step in walked[1].steps]


def test_random_walk_deterministic(theta3):
    a = random_walk(theta3, seed=7, length=5)
    b = random_walk(theta3, seed=7, length=5)
    assert a == b


def test_random_walk_replays_and_conserves(mb):
    for seed in (1, 2, 3):
        walked, record = random_walk(mb, seed=seed, length=5)
        assert replay(mb, record) == walked
        assert homology_profile(walked) == homology_profile(mb)


def test_search_soundness_on_random_pairs():
    for seed in (2, 5, 9):
        start = random_surface(seed, 8 + seed)
        walked, record = random_walk(start, seed, 3)
        outcome = search_equivalence(
            start, walked,
            SearchBudget(max_depth=max(len(record), 1), max_states=20000),
            SymmetryMode.ROTATIONAL)
        assert isinstance(outcome, Found)
        endpoint = replay(start, outcome.record)
        assert are_isomorphic(endpoint, walked, SymmetryMode.ROTATIONAL) is not None


def chiral_walk_pair(seed):
    """x = random_surface(seed, 20 + seed % 10) and the mirror image of x's
    2-move walk: for the seeds below, a walk toward the walk's own
    rotational class misses it within max_depth=4."""
    x = random_surface(seed, 20 + seed % 10)
    return x, mirror_image(random_walk(x, seed, 2)[0])


def test_mirror_search_walks_to_the_mirror_image():
    budget = SearchBudget(max_depth=4)
    for seed in (19, 46, 62, 69, 92):
        x, m = chiral_walk_pair(seed)
        outcome = search_equivalence(x, m, budget)
        assert isinstance(outcome, Found), (seed, outcome)
        endpoint = replay(x, outcome.record)
        assert are_isomorphic(endpoint, m, SymmetryMode.MIRROR) is not None
        assert are_isomorphic(endpoint, m, SymmetryMode.ROTATIONAL) is None
        # a DIHEDRAL search walks toward m's rotational class only
        outcome = search_equivalence(x, m, budget, SymmetryMode.DIHEDRAL_PER_LOCUS)
        assert outcome == ExhaustedWithinBudget("depth budget exhausted"), seed


def test_mirror_search_does_not_close_on_one_rotational_class():
    # the walk toward m's rotational class alone closes its state space
    for seed in (19, 46):
        x, m = chiral_walk_pair(seed)
        assert isinstance(search_equivalence(x, m, SearchBudget(max_depth=8)), Found), seed


def test_each_walk_has_a_state_budget_of_its_own(monkeypatch):
    # the walk toward m runs out of its 50 states, and the walk toward m's
    # mirror image then meets within 50 states of its own
    x, m = chiral_walk_pair(53)
    whys, walk_to = [], mbs.search._walk_to

    def counted(x, target, budget):
        record, why = walk_to(x, target, budget)
        whys.append(why)
        return record, why

    monkeypatch.setattr(mbs.search, "_walk_to", counted)
    outcome = search_equivalence(x, m, SearchBudget(max_depth=4, max_states=50))
    assert isinstance(outcome, Found) and len(outcome.record) == 2
    assert whys == ["states", None]


def test_failed_walks_give_the_reason_of_highest_precedence(monkeypatch):
    x, m = chiral_walk_pair(19)
    space, depth, states = (ExhaustedWithinBudget(reason) for reason in (
        "state space exhausted within budget", "depth budget exhausted",
        "state or time budget exhausted"))
    cases = [(SymmetryMode.MIRROR, ("space", "space"), space),
             (SymmetryMode.MIRROR, ("space", "depth"), depth),
             (SymmetryMode.MIRROR, ("depth", "space"), depth),
             (SymmetryMode.MIRROR, ("states", "space"), states),
             (SymmetryMode.MIRROR, ("depth", "states"), states),
             (SymmetryMode.DIHEDRAL_PER_LOCUS, ("depth", "states"), depth)]
    for mode, whys, want in cases:
        walked = []

        def walk_to(x, target, budget):
            walked.append(target)
            return None, whys[len(walked) - 1]

        monkeypatch.setattr(mbs.search, "_walk_to", walk_to)
        assert search_equivalence(x, m, mode=mode) == want, (mode, whys)
        # MIRROR walks toward m, then toward its mirror image; DIHEDRAL
        # toward m only
        assert walked[0] is m
        assert walked[1:] == [mirror_image(m)] * (mode is SymmetryMode.MIRROR)


def test_chain_inversion_matches_the_neighbour_scan(monkeypatch):
    """The inversion by certificate and the neighbour scan it replaced give
    the same outcome and record length on walk pairs, and the record of the
    certificate replays."""
    library = mbs.search._invert_backward_chain
    inverted = []

    def counted(meet_surface, side, key):
        inverted.append(len(side.chain(key)[1]))  # the meet's depth in y's tree
        return library(meet_surface, side, key)

    starts = [theta(4), theta(5), moebius_annulus(), quasi_pure()]
    starts += [random_surface(i, 30) for i in (2, 5, 6)]
    budget = SearchBudget(max_depth=4, max_states=20000)
    for start in starts:
        for seed, length in ((1, 3), (2, 3), (3, 4), (4, 4)):
            walked = random_walk(start, seed, length)[0]
            monkeypatch.setattr(mbs.search, "_invert_backward_chain",
                                reference_invert_backward_chain)
            want = search_equivalence(start, walked, budget, SymmetryMode.ROTATIONAL)
            monkeypatch.setattr(mbs.search, "_invert_backward_chain", counted)
            got = search_equivalence(start, walked, budget, SymmetryMode.ROTATIONAL)
            assert type(got) is type(want), (start, seed)
            if isinstance(got, Found):
                assert len(got.record) == len(want.record), (start, seed)
                endpoint = replay(start, got.record)
                assert are_isomorphic(endpoint, walked, SymmetryMode.ROTATIONAL) is not None
    assert sum(inverted) >= 20


def test_time_limit_counts_from_entry(monkeypatch):
    start = theta(4)
    walked, _ = random_walk(start, seed=2, length=2)
    assert isinstance(search_equivalence(start, walked, SearchBudget(max_depth=2)), Found)
    budget = SearchBudget(max_depth=2, time_limit=0.2)

    def slow_profile(surface):
        time.sleep(0.15)
        return homology_profile(surface)

    # the two invariant checks alone use up the time limit
    monkeypatch.setattr(mbs.search, "homology_profile", slow_profile)
    outcome = search_equivalence(start, walked, budget)
    assert isinstance(outcome, ExhaustedWithinBudget)


def test_time_limit_is_read_inside_the_homology_check(monkeypatch):
    x = reduce(disjoint_union, [theta(3)] * 22)
    y = scramble(x, 1)
    plain = mbs.algebra.smith_normal_form

    def slow_snf(matrix):
        time.sleep(0.02)
        return plain(matrix)

    # one Smith normal form per component, 22 per side: 0.9 s unchecked
    monkeypatch.setattr(mbs.algebra, "smith_normal_form", slow_snf)
    began = time.monotonic()
    outcome = search_equivalence(x, y, SearchBudget(time_limit=0.1))
    assert outcome == ExhaustedWithinBudget("state or time budget exhausted")
    assert time.monotonic() - began < 0.3


def test_time_limit_is_read_inside_one_smith_normal_form():
    # ring(200) is one component, whose homology block takes about a
    # second to reduce
    x = ring(200)
    began = time.monotonic()
    outcome = search_equivalence(x, x, SearchBudget(time_limit=0.2))
    assert outcome == ExhaustedWithinBudget("state or time budget exhausted")
    assert time.monotonic() - began < 0.5


def test_time_limit_is_read_before_each_labelling(monkeypatch):
    start = theta(4)
    walked, _ = random_walk(start, seed=2, length=2)
    budget = SearchBudget(max_depth=2, time_limit=0.2)
    plain = mbs.search.canonical_form

    def slow_form(surface, mode):
        time.sleep(0.3)
        return plain(surface, mode)

    # one labelling passes the deadline; the next three must not run
    for module in (mbs.search, mbs.isomorphism):  # the quick check and the sides
        monkeypatch.setattr(module, "canonical_form", slow_form)
    began = time.monotonic()
    outcome = search_equivalence(start, walked, budget)
    assert isinstance(outcome, ExhaustedWithinBudget)
    assert time.monotonic() - began < 0.7


def test_time_limit_holds_through_chain_inversion(monkeypatch):
    start = theta(4)
    walked, _ = random_walk(start, seed=2, length=2)
    budget = SearchBudget(max_depth=2, time_limit=0.2)
    # every labelling of the search is cached, so the search meets well
    # before its deadline, and the certificate's read on entry ends it
    assert isinstance(search_equivalence(start, walked, SearchBudget(max_depth=2)), Found)
    plain = mbs.search.are_isomorphic
    inverting = []

    def slow_when_inverting(x, y, mode):
        if sys._getframe(1).f_code.co_name == "_invert_backward_chain":
            inverting.append(y)
            time.sleep(0.3)
        return plain(x, y, mode)

    # the search meets quickly, then the certificate of one step of the
    # chain inversion passes the deadline
    monkeypatch.setattr(mbs.search, "are_isomorphic", slow_when_inverting)
    outcome = search_equivalence(start, walked, budget)
    assert inverting
    assert outcome == ExhaustedWithinBudget("state or time budget exhausted")


def test_time_limit_is_read_between_successor_builds(monkeypatch):
    x = random_surface(5, 30)
    y = random_walk(x, 1, 2)[0]
    assert len(_orbit_moves(x)) >= 20  # x is expanded first

    built = []

    def slowed(build):
        def slow(*args):
            built.append(args)
            time.sleep(0.05)
            return build(*args)
        return slow

    # every successor build takes at least 0.05 s, so a deadline read after
    # each build stops the search within three builds of the 0.1 s limit,
    # however long the work before the first build took; building all
    # successors of x before the first check would take 20 or more
    for name in ("_splice", "_xi"):
        monkeypatch.setattr(mbs.moves, name, slowed(getattr(mbs.moves, name)))
    outcome = search_equivalence(x, y, SearchBudget(time_limit=0.1))
    assert outcome == ExhaustedWithinBudget("state or time budget exhausted")
    assert len(built) <= 3


@pytest.fixture(scope="module")
def cliff():
    """Spread random_surface(54, 27), with 9 regions and 10 tribranched
    normal loci, and a 3-move walk of it: one rotational labelling of
    either takes 0.15 to 0.5 s, several times the 0.04 s limit below, so
    a bounded search first passes its deadline inside the MIRROR
    labelling of the start."""
    start = maximally_spread(random_surface(54, 27))[0]
    return start, random_walk(start, 1, 3)[0]


def test_time_limit_holds_inside_a_labelling(cliff):
    mbs.isomorphism._canonical.cache_clear()
    began = time.monotonic()
    outcome = search_equivalence(*cliff, SearchBudget(max_depth=6, time_limit=0.04))
    assert outcome == ExhaustedWithinBudget("state or time budget exhausted")
    assert time.monotonic() - began < 0.5


def test_minor_time_limit_holds_inside_a_labelling(cliff):
    mbs.isomorphism._canonical.cache_clear()
    began = time.monotonic()
    outcome = is_minor(random_surface(1, 5, ValidityMode.MINOR),
                       cliff[0].in_mode(ValidityMode.MINOR), SearchBudget(time_limit=0.04))
    assert not outcome.complete
    assert time.monotonic() - began < 0.5


def test_time_limit_leaves_other_threads_labelling(cliff):
    mbs.isomorphism._canonical.cache_clear()
    ended = []

    def bounded():
        began = time.monotonic()
        outcome = search_equivalence(*cliff, SearchBudget(max_depth=6, time_limit=0.04))
        ended.append((outcome, time.monotonic() - began))

    worker = threading.Thread(target=bounded)
    worker.start()
    # the worker's deadline passes while this labelling runs, and must not
    # end it
    canonical_form(cliff[1], SymmetryMode.ROTATIONAL)
    worker.join(timeout=10)
    assert not worker.is_alive()
    ((outcome, seconds),) = ended
    assert isinstance(outcome, ExhaustedWithinBudget)
    assert seconds < 0.5
