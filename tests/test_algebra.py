import random
import time
from functools import reduce

import pytest

import mbs.algebra
from mbs import (
    ANNULUS,
    BranchLocus,
    HomologyProfile,
    IntegerMatrix,
    ModeError,
    MultibranchedSurface,
    Region,
    RegionTopology,
    ValidityMode,
    boundary_euler,
    build_chain_complex,
    closed_surface,
    connected_components,
    decomposition_summary,
    disjoint_union,
    euler_characteristic,
    homology_profile,
    moebius_annulus,
    quasi_pure,
    random_surface,
    smith_normal_form,
    theta,
    validate,
)
from mbs.algebra import _divisibility_chain
from helpers import join
from oracles import (
    det_bareiss,
    invariant_factors_by_minors,
    reference_chain_complex,
    reference_homology_profile,
    reference_smith_normal_form,
)


def matrix_as_dict(cx):
    """(one-cell label, two-cell label) -> coefficient, zeros skipped."""
    out = {}
    for i, row_label in enumerate(cx.one_cells):
        for j, col_label in enumerate(cx.two_cells):
            value = cx.d2.entries[i][j]
            if value:
                out[(row_label, col_label)] = value
    return out


def test_snf_identity():
    identity = IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert smith_normal_form(identity).S == identity


def test_snf_small_example():
    dec = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.S.diagonal == (2, 4)


def test_from_rows_keeps_its_checks():
    with pytest.raises(ValueError, match="ragged"):
        IntegerMatrix.from_rows([[1, 2], [3]])
    matrix = IntegerMatrix.from_rows([[True, 2]])
    assert matrix.entries == ((1, 2),)
    assert all(type(x) is int for x in matrix.entries[0])


def test_matmul_refuses_mismatched_shapes():
    a = IntegerMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(ValueError, match="shape mismatch 1x3 @ 1x3"):
        a @ a
    assert (a @ IntegerMatrix.from_rows([[1], [1], [1]])).entries == ((6,),)


def test_snf_zero_matrix():
    dec = smith_normal_form(IntegerMatrix.from_rows([[0, 0]] * 3))
    assert dec.S.is_zero()
    assert dec.S.rows == 3 and dec.S.cols == 2


def verify_decomposition(matrix, dec):
    assert dec.U @ matrix @ dec.V == dec.S
    diag = dec.S.diagonal
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j:
                assert dec.S.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert diag[len(nonzero):] == (0,) * (len(diag) - len(nonzero))
    assert abs(det_bareiss(dec.U.entries)) == 1
    assert abs(det_bareiss(dec.V.entries)) == 1


def test_snf_random_matrices_verified():
    rng = random.Random("snf-unit")
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        matrix = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        dec = smith_normal_form(matrix)
        verify_decomposition(matrix, dec)
        assert dec == reference_smith_normal_form(matrix)


def test_snf_matches_minor_oracle():
    rng = random.Random("snf-oracle")
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        matrix = IntegerMatrix.from_rows(rows)
        dec = smith_normal_form(matrix)
        assert list(dec.invariant_factors) == invariant_factors_by_minors(rows)
        assert dec == reference_smith_normal_form(matrix)


def test_snf_deterministic():
    rows = [[3, -1, 4], [1, 5, -9], [2, 6, 5]]
    a = smith_normal_form(IntegerMatrix.from_rows(rows))
    b = smith_normal_form(IntegerMatrix.from_rows(rows))
    assert a == b


def corpus():
    """Corpus seeds 1..200 in both validity modes."""
    return [random_surface(seed, 3 + seed % 28, mode)
            for seed in range(1, 201)
            for mode in (ValidityMode.STRICT, ValidityMode.MINOR)]


def test_snf_matches_reference_on_corpus_d2():
    """The early exit on a unit pivot picks the entry the full scan picked,
    so ``S``, ``U`` and ``V`` are those of the reference reduction."""
    for surface in corpus():
        d2 = build_chain_complex(surface).d2
        assert smith_normal_form(d2) == reference_smith_normal_form(d2)


def test_theta3_boundary_matrices(theta3):
    cx = build_chain_complex(theta3)
    expected = {}
    for i in (1, 2, 3):
        expected[("e.b1", f"F.r{i}")] = 1
        expected[("e.b2", f"F.r{i}")] = 1
    assert matrix_as_dict(cx) == expected


def test_mb_boundary_matrices(mb):
    cx = build_chain_complex(mb)
    assert matrix_as_dict(cx) == {
        ("e.b", "F.M"): 1, ("x1.M", "F.M"): 2,
        ("e.b", "F.C"): 2,
    }


def test_qn_boundary_matrices(qn):
    cx = build_chain_complex(qn)
    assert matrix_as_dict(cx) == {
        ("e.bn", "F.A"): 1, ("e.bp", "F.A"): 3,
        ("e.bn", "F.C"): 2,
    }


def union_of_random_pieces(pieces, mode=ValidityMode.STRICT):
    rng = random.Random(f"union/{pieces}")
    return reduce(
        lambda acc, i: join(acc, random_surface(rng.randrange(10**6), 25, mode), f"p{i}."),
        range(1, pieces), random_surface(rng.randrange(10**6), 25, mode))


def test_chain_complex_matches_reference():
    """The one-pass builder against the earlier three-pass one: same labels,
    same cell order, same entries, all plain ints."""
    surfaces = [random_surface(seed, 3 + seed % 28, mode)
                for seed in range(1, 201)
                for mode in (ValidityMode.STRICT, ValidityMode.MINOR)]
    surfaces += [theta(n) for n in (3, 4, 7)] + [theta(2, ValidityMode.MINOR)]
    surfaces += [moebius_annulus(), quasi_pure()]
    surfaces += [closed_surface(orientable, genus)
                 for orientable, genus in ((True, 0), (True, 1), (True, 3),
                                           (False, 1), (False, 2))]
    surfaces.append(MultibranchedSurface((), (), ValidityMode.MINOR))
    surfaces += [union_of_random_pieces(pieces) for pieces in (5, 10, 20)]
    surfaces.append(union_of_random_pieces(5, ValidityMode.MINOR))
    for surface in surfaces:
        cx, ref = build_chain_complex(surface), reference_chain_complex(surface)
        assert cx == ref
        for m in (cx.d1, cx.d2):
            assert all(type(x) is int for row in m.entries for x in row)


def test_d1_d2_compose_to_zero():
    for seed in range(1, 30):
        surface = random_surface(seed, 3 + seed % 22)
        cx = build_chain_complex(surface)
        assert (cx.d1 @ cx.d2).is_zero()


def test_chain_complex_with_a_free_loop():
    """An unattached boundary circle gets a free loop ``f.<circle>`` that
    bounds its region's 2-cell."""
    surface = MultibranchedSurface(
        (Region("r1", ANNULUS, ("a", "free")),
         Region("r2", RegionTopology(True, 1, 1), ("b",))),
        (BranchLocus("L", 2, ("a", "b")),), ValidityMode.MINOR)
    assert validate(surface) == []
    cx = build_chain_complex(surface)
    assert "f.free" in cx.one_cells
    assert matrix_as_dict(cx)[("f.free", "F.r1")] == 1
    assert cx == reference_chain_complex(surface)
    assert (cx.d1 @ cx.d2).is_zero()
    profile = homology_profile(surface)
    assert profile == reference_homology_profile(surface)
    assert profile.group_text(1) == "Z^2 + Z/2"


def test_fixture_homology(theta3, mb, qn):
    assert homology_profile(theta3).betti == (1, 3, 2)
    assert homology_profile(theta3).torsion == ((), (), ())
    assert homology_profile(mb).betti == (1, 1, 0)
    assert homology_profile(mb).torsion == ((), (4,), ())
    assert homology_profile(qn).betti == (1, 1, 0)
    assert homology_profile(qn).torsion == ((), (6,), ())


def test_homology_profile_invariants():
    for seed in range(1, 35):
        surface = random_surface(seed, 3 + seed % 24)
        profile = homology_profile(surface)
        assert profile.betti[0] == connected_components(surface)
        assert profile.betti[0] - profile.betti[1] + profile.betti[2] == \
            euler_characteristic(surface)
        assert profile.torsion[0] == ()
        assert profile.torsion[2] == ()


def test_homology_closed_surfaces():
    assert homology_profile(closed_surface(True, 1)).betti == (1, 2, 1)
    klein = homology_profile(closed_surface(False, 2))
    assert klein.betti == (1, 1, 0)
    assert klein.torsion[1] == (2,)
    rp2 = homology_profile(closed_surface(False, 1))
    assert rp2.betti == (1, 0, 0)
    assert rp2.torsion[1] == (2,)


def test_homology_empty_surface():
    empty = MultibranchedSurface((), (), ValidityMode.MINOR)
    assert homology_profile(empty).betti == (0, 0, 0)
    assert euler_characteristic(empty) == 0
    assert connected_components(empty) == 0


def test_group_text(mb):
    profile = homology_profile(mb)
    assert profile.group_text(0) == "Z"
    assert profile.group_text(1) == "Z + Z/4"
    assert profile.group_text(2) == "0"
    profile = homology_profile(theta(3))
    assert [profile.group_text(q) for q in range(3)] == ["Z", "Z^3", "Z^2"]
    profile = homology_profile(closed_surface(False, 4))
    assert profile.group_text(1) == "Z^3 + Z/2"


def test_decomposition_summary(theta3, mb, qn):
    d = decomposition_summary(theta3)
    assert (d.solid_torus_count, d.product_bundle_count,
            d.twisted_bundle_count, d.characteristic_annuli_count) == (2, 3, 0, 6)
    d = decomposition_summary(mb)
    assert (d.solid_torus_count, d.product_bundle_count,
            d.twisted_bundle_count, d.characteristic_annuli_count) == (1, 1, 1, 3)
    d = decomposition_summary(qn)
    assert (d.solid_torus_count, d.product_bundle_count,
            d.twisted_bundle_count, d.characteristic_annuli_count) == (2, 2, 0, 4)


def test_decomposition_rejects_minor_mode(theta3):
    with pytest.raises(ModeError):
        decomposition_summary(theta3.in_mode(ValidityMode.MINOR))


def test_boundary_euler(theta3, qn):
    assert boundary_euler(theta3) == 0
    assert boundary_euler(qn) == 0
    genus2 = MultibranchedSurface(
        (Region("g", RegionTopology(True, 2, 1), ("x",)),),
        (BranchLocus("b", 3, ("x",)),))
    assert validate(genus2) == []
    assert boundary_euler(genus2) == -6
    with pytest.raises(ModeError):
        boundary_euler(theta3.in_mode(ValidityMode.MINOR))


def test_d1_rank_is_vertices_minus_components():
    # homology_profile takes rank d1 from this identity instead of an SNF
    for seed in range(1, 201):
        surface = random_surface(seed, 3 + seed % 28)
        cx = build_chain_complex(surface)
        assert smith_normal_form(cx.d1).rank == \
            len(cx.zero_cells) - connected_components(surface)


@pytest.mark.parametrize("pieces", [5, 10, 20])
def test_homology_matches_sympy_on_unions(pieces):
    """The reduced computation against sympy's invariant factors of the full
    ``d1`` and ``d2``, on unions too large for the minors oracle."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    def factors(m):
        return [int(f) for f in invariant_factors(Matrix(m.entries), domain=ZZ)
                if f != 0]

    surface = union_of_random_pieces(pieces)
    cx = build_chain_complex(surface)
    f1, f2 = factors(cx.d1), factors(cx.d2)
    r1, r2 = len(f1), len(f2)
    n0, n1, n2 = len(cx.zero_cells), len(cx.one_cells), len(cx.two_cells)
    profile = homology_profile(surface)
    assert all(abs(f) == 1 for f in f1)
    assert profile.betti == (n0 - r1, n1 - r1 - r2, n2 - r2)
    assert profile.torsion == ((), tuple(abs(f) for f in f2 if abs(f) > 1), ())


def sympy_chain(blocks):
    """The invariant factors greater than 1 of the block-diagonal matrix of
    ``blocks``, by sympy."""
    from sympy import ZZ, Matrix, diag
    from sympy.matrices.normalforms import invariant_factors

    whole = diag(*(Matrix(b) for b in blocks))
    return tuple(abs(int(f)) for f in invariant_factors(whole, domain=ZZ) if abs(f) > 1)


@pytest.mark.parametrize("blocks, chain", [
    ([[[2]], [[3]]], (6,)),
    ([[[4]], [[6]]], (2, 12)),
    ([[[2]], [[2]], [[4]]], (2, 2, 4)),
    ([[[2**61 - 1]], [[2**31 - 1]]], ((2**61 - 1) * (2**31 - 1),)),
    ([[[6, 0], [0, 6 * (2**61 - 1)]], [[4, 2], [0, 8]]], (2, 2, 6, 48 * (2**61 - 1))),
    ([[[1, 0], [0, 9]], [[0, 0]], [[3, 0], [0, 12]]], (3, 3, 36)),
])
def test_divisibility_chain_merges_blocks(blocks, chain):
    """A wrong merge can keep the torsion's product; the chain itself is
    pinned against sympy on the block-diagonal matrix."""
    pytest.importorskip("sympy")
    factors = [d for b in blocks
               for d in smith_normal_form(IntegerMatrix.from_rows(b)).invariant_factors]
    assert _divisibility_chain(factors) == chain == sympy_chain(blocks)


def test_union_torsion_is_merged(mb, qn):
    # Z/4 (Moebius band) + Z/6 (quasi-pure) is Z/2 + Z/12, not Z/4 + Z/6
    assert homology_profile(disjoint_union(mb, qn)).torsion == ((), (2, 12), ())


@pytest.mark.parametrize("pieces", [5, 10, 20, 40])
def test_homology_matches_single_reduction_on_unions(pieces):
    surface = union_of_random_pieces(pieces)
    assert homology_profile(surface) == reference_homology_profile(surface)


def test_homology_matches_single_reduction():
    surfaces = corpus()
    surfaces += [union_of_random_pieces(5, ValidityMode.MINOR),
                 theta(2, ValidityMode.MINOR), moebius_annulus(), quasi_pure(),
                 MultibranchedSurface((), (), ValidityMode.MINOR)]
    surfaces += [closed_surface(orientable, genus)
                 for orientable, genus in ((True, 0), (True, 1), (True, 3),
                                           (False, 1), (False, 2))]
    for surface in surfaces:
        assert homology_profile(surface) == reference_homology_profile(surface)


def test_homology_matches_single_reduction_on_edge_blocks():
    """Components whose block is empty or has a zero column: closed regions
    with no locus, a closing annulus whose locus row cancels to zero, the
    empty surface, and a union of them with an ordinary piece."""
    minor = ValidityMode.MINOR
    closed = MultibranchedSurface((Region("s", RegionTopology(True, 2, 0), ()),
                                   Region("k", RegionTopology(False, 3, 0), ())), (), minor)
    cancel = MultibranchedSurface((Region("A", ANNULUS, ("A.a", "A.b")),),
                                  (BranchLocus("b1", 3, ("A.a", "A.b"), (1, -1)),), minor)
    zero_column = MultibranchedSurface(
        (Region("A", ANNULUS, ("A.a", "A.b")), Region("M", RegionTopology(False, 1, 1), ("M.a",))),
        (BranchLocus("b1", 2, ("A.a", "A.b", "M.a"), (1, -1, 1)),), minor)
    empty = MultibranchedSurface((), (), minor)
    union = join(join(join(join(cancel, closed, "x"), zero_column, "y"), empty, "z"),
                 theta(3, minor), "t")
    for surface in (closed, cancel, zero_column, empty, MultibranchedSurface((), ()), union):
        assert validate(surface) == []
        assert homology_profile(surface) == reference_homology_profile(surface)
    assert homology_profile(cancel) == HomologyProfile((1, 2, 1), ((), (), ()))


def test_homology_reduces_each_component_alone(monkeypatch):
    surface = union_of_random_pieces(20)
    parts = surface.components
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr(mbs.algebra, "smith_normal_form", counted)
    assert homology_profile(surface) == reference_homology_profile(surface)
    assert 1 < len(calls) <= len(parts)
    assert max(m.cols for m in calls) <= max(len(regions) for regions, _ in parts)


def with_topology(surface, region, orientable, genus):
    """``surface`` with ``region`` given the genus and orientability."""
    topology = RegionTopology(orientable, genus, region.topology.boundary_count)
    return MultibranchedSurface(
        tuple(Region(r.id, topology, r.boundary_circles) if r is region else r
              for r in surface.regions), surface.loci, surface.mode)


def test_homology_matches_single_reduction_on_genus_grid(monkeypatch):
    """Genus 0..6 of both orientabilities on every region of small surfaces,
    against the reduction of every non-zero row of ``d2``.  The reduced rows
    are at most one per locus loop, plus one crosscap row and one free-loop
    row per region, whatever the genus."""
    reduced = []

    def counted(matrix):
        reduced.append(matrix.rows)
        return smith_normal_form(matrix)

    monkeypatch.setattr(mbs.algebra, "smith_normal_form", counted)
    for mode in ValidityMode:
        bases = [theta(3, mode), theta(4, mode), moebius_annulus(mode), quasi_pure(mode)]
        bases += [random_surface(s, 12 + s % 10, mode) for s in range(1, 40)]
        for base in bases:
            for region in base.regions:
                for orientable in (True, False):
                    for genus in range(7):
                        surface = with_topology(base, region, orientable, genus)
                        reduced.clear()
                        assert homology_profile(surface) == \
                            reference_homology_profile(surface), (region.id, genus)
                        crosscaps = sum(not r.topology.orientable and r.topology.genus > 0
                                        for r in surface.regions)
                        free = sum(any(c not in surface.circle_to_slot
                                       for c in r.boundary_circles)
                                   for r in surface.regions)
                        assert sum(reduced) <= len(surface.loci) + crosscaps + free


def test_homology_cost_does_not_grow_with_genus(theta3):
    start = time.perf_counter()
    profile = homology_profile(closed_surface(False, 20_000))
    assert time.perf_counter() - start < 2.0
    assert profile == HomologyProfile((1, 19_999, 0), ((), (2,), ()))
    (r1,) = [r for r in theta3.regions if r.id == "r1"]
    profile = homology_profile(with_topology(theta3, r1, False, 10**9))
    assert profile == HomologyProfile((1, 10**9 + 2, 1), ((), (2,), ()))
