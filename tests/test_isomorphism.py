import hashlib
import itertools
import sys
import time

import pytest

from mbs import (
    BranchLocus,
    Found,
    IsoCertificate,
    MbsError,
    MoveRecord,
    MultibranchedSurface,
    Region,
    RegionTopology,
    SearchBudget,
    SymmetryMode,
    UnknownIdError,
    ValidityMode,
    apply_ih,
    are_isomorphic,
    canonical_form,
    canonical_hash,
    disjoint_union,
    enumerate_ix,
    euler_characteristic,
    homology_profile,
    locus_profile,
    maximally_spread,
    moebius_annulus,
    quasi_pure,
    random_surface,
    random_walk,
    replay,
    search_equivalence,
    serialize,
    theta,
    validate,
)
from mbs.cli import main
from helpers import mirror_image, ring, scramble
import mbs.isomorphism
from mbs.isomorphism import _canonical, _mirror_image, _search_canonical, _shape
from oracles import reference_canonical_labelling, vf2_isomorphic

ALL_MODES = tuple(SymmetryMode)


def chiral_surface(reverse=False):
    """One wrapping-1 locus with cycle pattern (A, A, B, C): not isomorphic
    to its mirror image under rotations alone."""
    g1 = Region("G1", RegionTopology(True, 1, 2), ("g1a", "g1b"))
    g2 = Region("G2", RegionTopology(True, 2, 1), ("g2a",))
    g3 = Region("G3", RegionTopology(True, 3, 1), ("g3a",))
    slots = ("g1a", "g1b", "g2a", "g3a")
    if reverse:
        slots = tuple(reversed(slots))
    return MultibranchedSurface((g1, g2, g3), (BranchLocus("B", 1, slots),))


def test_canonical_form_versioned(theta3):
    for mode in ALL_MODES:
        assert canonical_form(theta3, mode).data.startswith(b"mbscf2")


def test_scrambled_copies_have_identical_bytes(theta3):
    for seed in range(8):
        copy = scramble(theta3, seed)
        for mode in ALL_MODES:
            assert canonical_form(copy, mode).data == \
                canonical_form(theta3, mode).data


def test_different_fixtures_differ(theta3, mb, qn):
    forms = {canonical_form(s, SymmetryMode.ROTATIONAL).data
             for s in (theta3, mb, qn)}
    assert len(forms) == 3


def test_canonical_invariance_random_corpus():
    for seed in range(1, 35):
        surface = random_surface(seed, 3 + seed % 22)
        copy = scramble(surface, seed * 17)
        for mode in ALL_MODES:
            assert canonical_form(surface, mode).data == \
                canonical_form(copy, mode).data


def test_canonical_invariance_after_walks():
    # walked surfaces carry non-trivial orientation signs
    for seed in range(1, 15):
        start = random_surface(seed, 6 + seed % 16)
        surface, _ = random_walk(start, seed, 4)
        copy = scramble(surface, seed * 29)
        for mode in ALL_MODES:
            assert canonical_form(surface, mode).data == \
                canonical_form(copy, mode).data
            cert = are_isomorphic(surface, copy, mode)
            assert cert is not None and cert.verify(surface, copy)


def test_identity_certificate(theta3):
    for mode in ALL_MODES:
        cert = are_isomorphic(theta3, theta3, mode)
        assert cert is not None
        assert cert.region_map == {r.id: r.id for r in theta3.regions}
        assert cert.verify(theta3, theta3)
    surfaces = [random_walk(random_surface(seed, 3 + seed % 28), seed, 1 + seed % 6)[0]
                for seed in range(1, 201)]
    surfaces += [random_surface(seed, 3 + seed % 28, ValidityMode.MINOR)
                 for seed in range(1, 61)]
    for surface in surfaces:
        for mode in ALL_MODES:
            cert = are_isomorphic(surface, surface, mode)
            assert cert.region_map == {r.id: r.id for r in surface.regions}
            assert cert.locus_map == {l.id: l.id for l in surface.loci}
            assert cert.circle_map == {c: c for c in surface.circle_to_region}
            assert cert.locus_alignment == {l.id: (0, False) for l in surface.loci}
            assert not (cert.region_flips or cert.locus_flips or cert.circle_flips)


def test_non_isomorphic_fixtures(qn, mb):
    assert are_isomorphic(qn, mb, SymmetryMode.ROTATIONAL) is None
    assert are_isomorphic(qn, mb, SymmetryMode.MIRROR) is None


def test_mirror_pair():
    x = chiral_surface()
    y = chiral_surface(reverse=True)
    assert are_isomorphic(x, y, SymmetryMode.ROTATIONAL) is None
    cert = are_isomorphic(x, y, SymmetryMode.MIRROR)
    assert cert is not None and cert.verify(x, y)
    assert are_isomorphic(x, y, SymmetryMode.DIHEDRAL_PER_LOCUS) is not None


def test_mode_inclusions():
    surfaces = [random_surface(seed, 3 + seed % 18) for seed in range(1, 12)]
    surfaces += [chiral_surface(), chiral_surface(True),
                 mirror_image(random_surface(3, 14))]
    for x, y in itertools.combinations(surfaces, 2):
        rot = are_isomorphic(x, y, SymmetryMode.ROTATIONAL) is not None
        mir = are_isomorphic(x, y, SymmetryMode.MIRROR) is not None
        dih = are_isomorphic(x, y, SymmetryMode.DIHEDRAL_PER_LOCUS) is not None
        assert (not rot or mir) and (not mir or dih)


def test_equivalence_relation_on_fixtures(theta3, mb, qn):
    rot, mir = SymmetryMode.ROTATIONAL, SymmetryMode.MIRROR
    families = [
        (rot, theta3, scramble(theta3, 1), scramble(theta3, 2)),
        (rot, mb, scramble(mb, 3), scramble(mb, 4)),
        (rot, qn, scramble(qn, 5), scramble(qn, 6)),
        # the MIRROR reversal: the middle copy is reversed, so both legs
        # reverse every cycle and a to c reverses none
        (mir, chiral_surface(), chiral_surface(True), scramble(chiral_surface(), 7)),
    ]
    for seed in range(1, 13):
        # minor mode admits unattached circles: dropping a locus leaves its
        # circles unattached; scrambling flips single signs of the circles
        # of non-orientable regions
        minor = random_surface(seed, 6 + seed, ValidityMode.MINOR)
        minor = MultibranchedSurface(minor.regions, minor.loci[1:], minor.mode)
        assert not validate(minor)
        families.append((rot, minor, scramble(minor, seed), scramble(minor, seed + 50)))
        strict = random_surface(seed, 10 + seed)
        families.append((mir, strict, mirror_image(scramble(strict, seed)),
                         scramble(strict, seed + 50)))
    counts = {"unattached": 0, "circle_flips": 0, "reversed": 0}
    for mode, a, b, c in families:
        ab = are_isomorphic(a, b, mode)
        bc = are_isomorphic(b, c, mode)
        assert ab is not None and bc is not None
        assert ab.verify(a, b) and bc.verify(b, c)
        # symmetry and transitivity
        ba = are_isomorphic(b, a, mode)
        assert ba is not None and ba.verify(b, a)
        ac = are_isomorphic(a, c, mode)
        assert ac is not None and ac.verify(a, c)
        slotted = {x for l in a.loci for x in l.slots}
        counts["unattached"] += any(x not in slotted for x in ab.circle_map)
        counts["circle_flips"] += bool(ab.circle_flips)
        counts["reversed"] += any(rev for _, rev in ab.locus_alignment.values())
    assert min(counts.values()) > 0, counts


def test_certificate_apply_matches_target(theta3):
    copy = scramble(theta3, 9)
    cert = are_isomorphic(theta3, copy, SymmetryMode.ROTATIONAL)
    image = cert.apply(theta3)
    assert {(l.id, l.wrapping, l.slots, l.signs) for l in image.loci} == \
        {(l.id, l.wrapping, l.slots, l.signs) for l in copy.loci}
    assert {(r.id, r.topology, frozenset(r.boundary_circles))
            for r in image.regions} == \
        {(r.id, r.topology, frozenset(r.boundary_circles)) for r in copy.regions}


def test_isomorphic_surfaces_share_invariants():
    for seed in range(1, 20):
        surface = random_surface(seed, 3 + seed % 20)
        copy = scramble(surface, seed + 100)
        assert euler_characteristic(surface) == euler_characteristic(copy)
        assert homology_profile(surface) == homology_profile(copy)
        mine = sorted((locus_profile(surface, l.id) for l in surface.loci),
                      key=repr)
        theirs = sorted((locus_profile(copy, l.id) for l in copy.loci), key=repr)
        assert mine == theirs


def test_hash_stability_and_relabeling(theta3):
    h = canonical_hash(theta3, SymmetryMode.ROTATIONAL)
    assert h == canonical_hash(scramble(theta3, 42), SymmetryMode.ROTATIONAL)
    assert 0 <= h < 2 ** 64
    # frozen values guard against accidental encoding changes
    assert h == canonical_hash(theta(3), SymmetryMode.ROTATIONAL)


# stored move records hold canonical hashes, so the mbscf2 bytes of these
# surfaces must never change
GOLDEN_HASHES = {
    "theta3": (lambda: theta(3), {"rotational": 0x1f7e145086a0f782,
                                  "mirror": 0x191c410f4e99b84e,
                                  "dihedral": 0x7f6ebe3877f1c1e0}),
    "mb": (moebius_annulus, {"rotational": 0x58d48ad75d2209de,
                             "mirror": 0x33ee70816da2ca4c,
                             "dihedral": 0x3324c141f193e38f}),
    "qn": (quasi_pure, {"rotational": 0x676ae661e7c6bde,
                        "mirror": 0xe96fe5c79cbf5495,
                        "dihedral": 0xc839f249597de521}),
    "spread_theta4": (lambda: maximally_spread(theta(4))[0],
                      {"rotational": 0x356ee230b9fc0977,
                       "mirror": 0x52352575122404f7,
                       "dihedral": 0x5faf665772abb43a}),
    "theta3_mb": (lambda: disjoint_union(theta(3), moebius_annulus()),
                  {"rotational": 0xc2eefd0f0203167d,
                   "mirror": 0xc2049af5e45d8687,
                   "dihedral": 0x9fcd67d9c5bb8f2c}),
}


@pytest.mark.parametrize("name", GOLDEN_HASHES)
def test_golden_hashes(name):
    build, hashes = GOLDEN_HASHES[name]
    surface = build()
    for mode in ALL_MODES:
        assert canonical_hash(surface, mode) == hashes[mode.value], mode


def test_canonical_hash_is_the_blake2b_of_the_form():
    # canonical_hash takes blake2b from _blake2 rather than from hashlib
    surfaces = [build() for build, _ in GOLDEN_HASHES.values()]
    surfaces += [random_surface(seed, 3 + seed % 22) for seed in range(1, 35)]
    for surface in surfaces:
        for mode in ALL_MODES:
            data = canonical_form(surface, mode).data
            digest = hashlib.blake2b(data, digest_size=8).digest()
            assert canonical_hash(surface, mode) == int.from_bytes(digest, "big")


def test_labelling_matches_reference():
    surfaces = []
    for seed in range(1, 201):
        surface = random_surface(seed, 3 + seed % 28)
        surfaces += [surface, random_walk(surface, seed, 3)[0]]
    surfaces += [random_surface(seed, 3 + seed % 28, ValidityMode.MINOR)
                 for seed in range(1, 121)]
    for seed in range(1, 21):
        a = random_surface(seed, 6 + seed % 10)
        b = random_walk(random_surface(seed + 50, 6 + seed % 9), seed, 2)[0]
        surfaces += [disjoint_union(a, b), disjoint_union(a, scramble(a, seed))]
    surfaces += [maximally_spread(theta(n))[0] for n in range(3, 7)]
    # unions of identical components, up to presentation and reversal
    for seed in range(1, 11):
        a = random_walk(random_surface(seed, 6 + seed % 10), seed, 2)[0]
        surfaces += [disjoint_union(a, a),
                     disjoint_union(disjoint_union(a, scramble(a, seed)), a),
                     disjoint_union(a, mirror_image(scramble(a, seed + 30)))]
    ch = chiral_surface()
    surfaces += [disjoint_union(ch, ch), disjoint_union(ch, chiral_surface(True)),
                 disjoint_union(disjoint_union(theta(3), ch), theta(3))]
    for surface in surfaces:
        for mode in ALL_MODES:
            # equal code, locus_seq, region_number and p_region
            assert _canonical.__wrapped__(surface, mode) == \
                reference_canonical_labelling(surface, mode)


# sha256 over the full labelling (code, locus sequence, region numbers and
# potentials) in every mode, recorded when each MIRROR labelling still ran
# its own forward and reversed passes
LABEL_DIGEST = "fde95f8877e62946ac10bffc8f185cc1f6655e25559ebe84d4af4c1dba34f55c"


def label_digest_corpus():
    surfaces = []
    for seed in range(1, 401):
        surface = random_surface(seed, 3 + seed % 30)
        surfaces += [surface, random_surface(seed, 3 + seed % 30, ValidityMode.MINOR),
                     random_walk(surface, seed, 3)[0]]
    surfaces += [maximally_spread(theta(k))[0] for k in range(3, 8)]
    return surfaces


def test_labellings_match_digest():
    surfaces = label_digest_corpus()
    digest = hashlib.sha256()
    for surface in surfaces:
        for mode in ALL_MODES:
            l = _canonical(surface, mode)
            digest.update(repr((mode.value, l.code, l.locus_seq,
                                sorted(l.region_number.items()),
                                sorted(l.p_region.items()))).encode())
    assert len(surfaces) == 1205
    assert digest.hexdigest() == LABEL_DIGEST


# sha256 over the symmetry generators of every labelling of the LABEL_DIGEST
# corpus in every mode, in the order the search found them, each map's
# entries sorted; recorded before the first-step cut of sibling blocks
AUTOMORPHISM_DIGEST = "47cfc11286683f5c0ee7a0e9375408d4b3fc08ceaa999d5c024c149e776ff5b2"


def test_automorphisms_match_digest():
    surfaces = label_digest_corpus()
    digest = hashlib.sha256()
    found = 0
    for surface in surfaces:
        for mode in ALL_MODES:
            generators = _canonical(surface, mode).automorphisms
            found += len(generators)
            digest.update(repr((mode.value, [[sorted(m.items()) for m in generator]
                                             for generator in generators])).encode())
    assert found
    assert digest.hexdigest() == AUTOMORPHISM_DIGEST


def test_mirror_search_labels_each_end_once(monkeypatch):
    # the MIRROR start test reads the rotational passes that the sides key
    # on, and the MIRROR codes of x and y, each one reversed pass more, only
    # when x and y have one shape; the closing check is rotational, so no
    # other surface is read backwards
    passes = []
    search = mbs.isomorphism._search_canonical

    def counted(surface, directions):
        passes.append((surface, directions))
        return search(surface, directions)

    monkeypatch.setattr(mbs.isomorphism, "_search_canonical", counted)
    # (seed, walk length, whether x and y have one shape); the endpoint of
    # seed 26's record is y itself
    for seed, length, same_shape in ((11, 3, False), (26, 2, True)):
        x = random_surface(seed, 12)
        y, _ = random_walk(x, seed, length)
        assert (_shape(x) == _shape(y)) == same_shape
        passes.clear()
        _canonical.cache_clear()
        outcome = search_equivalence(x, y)
        assert outcome.record.steps
        # no surface is labelled twice with one direction setting
        assert len(set(passes)) == len(passes)
        forwards = [s for s, d in passes if d == (1,)]
        assert forwards.count(x) == forwards.count(y) == 1
        assert replay(x, outcome.record) in forwards
        assert [s for s, d in passes if d != (1,)] == [x, y] * same_shape


def mirror_corpus():
    """Chiral unions, random surfaces and their walks, minor-mode random
    surfaces and spread thetas: 486 surfaces, 124 of them chiral."""
    ch = chiral_surface()
    surfaces = [ch, disjoint_union(ch, ch), disjoint_union(ch, chiral_surface(True))]
    for seed in range(1, 201):
        surface = random_surface(seed, 3 + seed % 28)
        surfaces += [surface, random_walk(surface, seed, 3)[0]]
    surfaces += [random_surface(seed, 3 + seed % 28, ValidityMode.MINOR)
                 for seed in range(1, 81)]
    surfaces += [maximally_spread(theta(n))[0] for n in range(3, 6)]
    return surfaces


def test_reversed_pass_reads_the_mirror_image_forwards():
    # the MIRROR labelling rests on this: the rotational code of y's mirror
    # image is the code of y's reversed pass
    surfaces = mirror_corpus()
    chiral = 0
    for surface in surfaces:
        reversed_code = _search_canonical(surface, (-1,)).code
        assert reversed_code == \
            _canonical(mirror_image(surface), SymmetryMode.ROTATIONAL).code, surface
        chiral += reversed_code != _canonical(surface, SymmetryMode.ROTATIONAL).code
    assert len(surfaces) == 486
    assert chiral == 124


def test_mirror_image_matches_the_reference():
    # the MIRROR search's second walk heads for the library's mirror image
    for surface in mirror_corpus():
        assert _mirror_image(surface) == mirror_image(surface), surface


def test_shape_check_is_exact():
    # the search's start test compares MIRROR or DIHEDRAL codes only when x
    # and y have one shape; this is exact only if a presentation, the mirror
    # image and per-locus reversals keep the shape, and unequal shapes never
    # share a code
    ends = []  # (shape, rotational code, that of the mirror image, dihedral code)
    for i, surface in enumerate(mirror_corpus()):
        shape = _shape(surface)
        assert _shape(scramble(surface, i)) == shape
        assert _shape(mirror_image(surface)) == shape
        # the loci at the positions of i's set bits read backwards
        loci = tuple(BranchLocus(l.id, l.wrapping, l.slots[::-1], l.signs[::-1])
                     if i >> j & 1 else l for j, l in enumerate(surface.loci))
        assert _shape(MultibranchedSurface(surface.regions, loci, surface.mode)) == shape
        ends.append((shape, _canonical(surface, SymmetryMode.ROTATIONAL).code,
                     _canonical(mirror_image(surface), SymmetryMode.ROTATIONAL).code,
                     _canonical(surface, SymmetryMode.DIHEDRAL_PER_LOCUS).code))
    unequal = 0
    for shape_x, code_x, _, dihedral_x in ends:
        for shape_y, _, mirror_code_y, dihedral_y in ends:
            if shape_x != shape_y:
                unequal += 1
                assert code_x != mirror_code_y
                assert dihedral_x != dihedral_y
    assert unequal == 234_522


def test_search_start_finds_the_empty_record_exactly_for_isomorphic_ends():
    """x against a presentation of itself, the mirror image of that and a
    surface of the same homology: the search's start test gives the empty
    record in each mode exactly when the canonical forms of that mode are
    equal."""
    ch = chiral_surface()
    pairs = [(disjoint_union(ch, ch), disjoint_union(ch, chiral_surface(True)))]
    pairs += [(random_surface(a, 8 + a % 8), random_surface(b, 8 + b % 8))
              for a, b in ((10, 107), (2, 8), (9, 40))]
    seen = set()
    for i, (x, other) in enumerate(pairs):
        assert homology_profile(x) == homology_profile(other)
        for y in (scramble(x, i), mirror_image(scramble(x, i)), other):
            for mode in ALL_MODES:
                outcome = search_equivalence(x, y, SearchBudget(max_depth=1), mode)
                same = canonical_form(x, mode) == canonical_form(y, mode)
                assert (outcome == Found(MoveRecord(()))) == same, (i, mode)
                seen.add((mode, same))
    assert seen == {(mode, same) for mode in ALL_MODES for same in (True, False)}
    # the union of ch with its mirror image is DIHEDRAL-isomorphic to two
    # copies of ch, but neither MIRROR- nor rotationally isomorphic
    x, y = pairs[0]
    assert [canonical_form(x, mode) == canonical_form(y, mode) for mode in ALL_MODES] == \
        [False, False, True]


def test_spread_theta7_labels_quickly():
    # expanding every child block (the reference labelling) takes minutes
    spread, _ = maximally_spread(theta(7))
    start = time.perf_counter()
    for mode in ALL_MODES:
        # each mode from a cold cache: MIRROR runs its rotational pass too
        _canonical.cache_clear()
        _canonical.__wrapped__(spread, mode)
    assert time.perf_counter() - start < 5.0


def test_labeller_expands_no_more_nodes_on_a_cliff(monkeypatch):
    # spread random_surface(54, 27) is the labeller's cliff; without the
    # best-code bound it reads 27,677/55,354/27,677 nodes, and no other test
    # sees the difference
    spread, _ = maximally_spread(random_surface(54, 27))
    nodes = []
    monkeypatch.setattr(mbs.isomorphism, "_check_clock", lambda: nodes.append(None))
    counts = {}
    for mode in ALL_MODES:
        # each mode from a cold cache: MIRROR runs its rotational pass too
        _canonical.cache_clear()
        nodes.clear()
        _canonical.__wrapped__(spread, mode)
        counts[mode] = len(nodes)
    _canonical.cache_clear()
    # every node reads the clock, so a count of 0 means the count saw nothing
    assert 0 < counts[SymmetryMode.ROTATIONAL] <= 10_754
    assert 0 < counts[SymmetryMode.MIRROR] <= 21_482
    assert 0 < counts[SymmetryMode.DIHEDRAL_PER_LOCUS] <= 10_870


def test_union_labels_quickly():
    # every order of identical components once gave equal blocks, and five
    # copies of theta(3) took tens of seconds
    copies = theta(3)
    for _ in range(4):
        copies = disjoint_union(copies, theta(3))
    pieces = random_surface(1, 20)
    for seed in range(2, 9):
        pieces = disjoint_union(pieces, random_surface(seed, 20))
    start = time.perf_counter()
    for surface in (copies, pieces):
        for mode in ALL_MODES:
            _canonical.cache_clear()
            _canonical.__wrapped__(surface, mode)
    assert time.perf_counter() - start < 1.0


def test_chiral_union_reverses_every_component_at_once():
    # MIRROR reverses all cycles together: reversing one component of two
    # is not an isomorphism, but reversing both is
    ch, rv = chiral_surface(), chiral_surface(True)
    same = disjoint_union(ch, ch)
    mixed = disjoint_union(ch, rv)
    assert are_isomorphic(same, mixed, SymmetryMode.MIRROR) is None
    cert = are_isomorphic(same, mixed, SymmetryMode.DIHEDRAL_PER_LOCUS)
    assert cert is not None and cert.verify(same, mixed)
    cert = are_isomorphic(mixed, mirror_image(mixed), SymmetryMode.MIRROR)
    assert cert is not None and cert.verify(mixed, mirror_image(mixed))


def test_fixture_hashes_distinct(theta3, mb, qn):
    hashes = {canonical_hash(s, SymmetryMode.ROTATIONAL)
              for s in (theta3, mb, qn, theta(4), theta(5))}
    assert len(hashes) == 5


def test_ih_result_same_bytes(theta3):
    result = apply_ih(theta3, enumerate_ix(theta3)[0])
    assert canonical_form(result, SymmetryMode.ROTATIONAL).data == \
        canonical_form(theta3, SymmetryMode.ROTATIONAL).data


def test_sign_class_is_structural(theta3):
    # flipping one sign of one orientable-region circle changes the gauge
    # class, hence the canonical form (Z/2 holonomy differs)
    b1 = theta3.loci[0]
    twisted = MultibranchedSurface(
        theta3.regions,
        (BranchLocus(b1.id, b1.wrapping, b1.slots, (-1,) + b1.signs[1:]),
         theta3.loci[1]),
        theta3.mode)
    assert are_isomorphic(theta3, twisted, SymmetryMode.ROTATIONAL) is None
    assert homology_profile(twisted) != homology_profile(theta3)


def test_dangling_slot_raises_unknown_id(theta3):
    b1 = theta3.loci[0]
    dangling = MultibranchedSurface(
        theta3.regions,
        (BranchLocus(b1.id, b1.wrapping, b1.slots[:-1] + ("zzz",), b1.signs),)
        + theta3.loci[1:],
        theta3.mode)
    for mode in ALL_MODES:
        for call in (lambda: canonical_form(dangling, mode),
                     lambda: canonical_hash(dangling, mode),
                     lambda: are_isomorphic(dangling, theta3, mode),
                     lambda: are_isomorphic(theta3, dangling, mode)):
            with pytest.raises(UnknownIdError, match="zzz") as caught:
                call()
            assert isinstance(caught.value, MbsError)


def test_locus_without_slots_raises_mbs_error(theta3):
    empty = MultibranchedSurface(theta3.regions, theta3.loci + (BranchLocus("E", 1, ()),),
                                 theta3.mode)
    for mode in ALL_MODES:
        for call in (lambda: canonical_form(empty, mode),
                     lambda: canonical_hash(empty, mode),
                     lambda: are_isomorphic(empty, theta3, mode),
                     lambda: are_isomorphic(theta3, empty, mode)):
            with pytest.raises(MbsError, match="locus E has no slots"):
                call()


def test_a_component_too_deep_to_label_is_an_error(tmp_path, capsys):
    """The labeller recurses once per locus of a component: ring(1000) is
    too deep at the default limit, and ring(150) is under a limit of 100
    frames above this one."""
    surface = ring(150)
    path = tmp_path / "ring.json"
    path.write_bytes(serialize(surface))
    _canonical.cache_clear()
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        with pytest.raises(MbsError, match="a component of 150 loci is too deep"):
            canonical_form(surface, SymmetryMode.ROTATIONAL)
        code = main(["iso", str(path), str(path), "--symmetry", "rotational"])
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: a component of 150 loci is too deep")
    assert "Traceback" not in captured.err


def tampered(cert, **changes):
    """``cert`` with some fields changed, built by its constructor."""
    return IsoCertificate(**{name: changes.get(name, getattr(cert, name))
                             for name in IsoCertificate.__match_args__})


def test_certificate_verify_rejects_each_tampering():
    ch, rv = chiral_surface(), chiral_surface(True)
    x = disjoint_union(theta(3), ch)
    y = scramble(disjoint_union(theta(3), rv), 4)
    cert = are_isomorphic(x, y, SymmetryMode.MIRROR)
    assert cert is not None and cert.verify(x, y)
    a_circle = next(iter(cert.circle_map))
    a_region = next(iter(cert.region_map))
    theta_locus = next(l.id for l in x.loci if l.id != "B")
    # an incomplete map makes apply raise KeyError
    incomplete = {c: d for c, d in cert.circle_map.items() if c != a_circle}
    assert not tampered(cert, circle_map=incomplete).verify(x, y)
    # the image keeps x's validity mode
    assert not cert.verify(x, y.in_mode(ValidityMode.MINOR))
    wrong_region = {**cert.region_map, a_region: "nowhere"}
    assert not tampered(cert, region_map=wrong_region).verify(x, y)
    flipped = cert.locus_flips ^ {theta_locus}
    assert not tampered(cert, locus_flips=flipped).verify(x, y)
    # the chiral locus is reversed, which ROTATIONAL forbids
    assert not tampered(cert, mode=SymmetryMode.ROTATIONAL).verify(x, y)
    # one component reversed and the other not, which MIRROR forbids
    same, mixed = disjoint_union(ch, ch), disjoint_union(ch, rv)
    per_locus = are_isomorphic(same, mixed, SymmetryMode.DIHEDRAL_PER_LOCUS)
    assert per_locus is not None and per_locus.verify(same, mixed)
    assert not tampered(per_locus, mode=SymmetryMode.MIRROR).verify(same, mixed)


def test_are_isomorphic_agrees_with_a_vf2_oracle():
    """Each surface against its presentation scrambled, a scrambled mirror
    image, and a slot transposition in one locus, plain and scrambled; no
    gauge, so every sign stays +1 as the oracle needs."""
    pytest.importorskip("networkx")
    agreed = isomorphic = 0
    for s in range(1, 91):
        x = random_surface(s, 8 + s % 28)
        assert all(sign == 1 for l in x.loci for sign in l.signs)
        ys = [scramble(x, s, gauge=False), scramble(mirror_image(x), s, gauge=False)]
        locus = next((l for l in x.loci if len(l.slots) >= 3), None)
        if locus is not None:
            swapped = BranchLocus(locus.id, locus.wrapping,
                                  (locus.slots[1], locus.slots[0]) + locus.slots[2:],
                                  locus.signs)
            transposed = MultibranchedSurface(
                x.regions, tuple(swapped if l is locus else l for l in x.loci), x.mode)
            ys += [transposed, scramble(transposed, s, gauge=False)]
        for y in ys:
            for mode in (SymmetryMode.ROTATIONAL, SymmetryMode.MIRROR):
                want = vf2_isomorphic(x, y, mode)
                assert (are_isomorphic(x, y, mode) is not None) == want, (s, mode)
                agreed += 1
                isomorphic += want
    assert agreed > 600 and 0.6 * agreed < isomorphic < 0.95 * agreed


@pytest.mark.parametrize("entry", [
    lambda s: canonical_form(s, SymmetryMode.MIRROR),
    lambda s: are_isomorphic(s, s, SymmetryMode.MIRROR),
], ids=["canonical_form", "are_isomorphic"])
def test_time_limit_is_read_by_a_cached_labelling(entry):
    """A labelling served from the cache still reads the deadline, so a
    bounded block whose deadline has passed ends at the call."""
    surface = theta(4)
    entry(surface)  # labels it, and caches the labelling
    reached = []
    with mbs.isomorphism._time_limit(0.01):
        time.sleep(0.02)
        entry(surface)
        reached.append(True)
    assert not reached
