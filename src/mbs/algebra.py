"""Exact integer linear algebra and cellular homology of a surface complex.

The chain complex uses one vertex and one loop per locus, one vertex per
region, one handle pair (or crosscap loop) per unit of genus, one tether per
boundary circle, and one 2-cell per region.  The 2-cell of a region with
attached boundary circles contributes ``sign * wrapping`` to the loop of
each locus it meets (plus ``2 x_m`` per crosscap when non-orientable), so
the boundary matrices stay linear in the size of the surface.

Homology needs a Smith normal form of ``d2`` only.  ``d1`` is the signed
incidence matrix of the region-locus graph (the tethers are its edges); it
is totally unimodular, so it adds no torsion and its rank is ``vertices -
components``.  Only locus-loop, crosscap and free-loop rows of ``d2`` can be
non-zero, and zero rows change neither rank nor invariant factors, so they
are dropped before the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModeError
from .model import (
    MultibranchedSurface,
    ValidityMode,
    connected_components,
    euler_characteristic,
)


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense arbitrary-precision integer matrix (rows of equal length)."""

    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "IntegerMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
        return IntegerMatrix(rows)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple((0,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        ot = list(zip(*other.entries)) if other.entries else []
        out = []
        for row in self.entries:
            out.append(tuple(sum(a * b for a, b in zip(row, col)) for col in ot))
        return IntegerMatrix(tuple(out))

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == S with S diagonal, non-negative, each entry dividing the next."""

    S: IntegerMatrix
    U: IntegerMatrix
    V: IntegerMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.S.diagonal if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(matrix: IntegerMatrix) -> SmithDecomposition:
    """Diagonalise over the integers by row/column reduction.

    Pivots are chosen as the smallest non-zero absolute value (ties broken
    by position) which keeps entry growth moderate; the final pass enforces
    the divisibility chain and non-negative diagonal.  The output is
    deterministic for a given input.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def pick_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    t = 0
    while t < min(m, n):
        picked = pick_pivot(t)
        if picked is None:
            break
        _, pi, pj = picked
        swap_rows(t, pi)
        swap_cols(t, pj)
        # one pass of floor-quotient clearing; any non-zero remainder is a
        # strictly smaller entry, so re-picking the pivot makes progress
        # without the coefficient blow-up of in-pass Euclid swapping
        clean = True
        for i in range(t + 1, m):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    clean = False
        for j in range(t + 1, n):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    clean = False
        if not clean:
            continue
        # make the pivot divide everything below-right
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1

    return SmithDecomposition(
        S=IntegerMatrix.from_rows(a),
        U=IntegerMatrix.from_rows(u),
        V=IntegerMatrix.from_rows(v),
    )


@dataclass(frozen=True)
class ChainComplex:
    """Boundary matrices with their cell labels.

    ``d1`` maps 1-cells to 0-cells (rows = 0-cells), ``d2`` maps 2-cells to
    1-cells (rows = 1-cells); ``d1 @ d2 == 0``.
    """

    d1: IntegerMatrix
    d2: IntegerMatrix
    zero_cells: tuple[str, ...]
    one_cells: tuple[str, ...]
    two_cells: tuple[str, ...]


def build_chain_complex(surface: MultibranchedSurface) -> ChainComplex:
    """CW structure of the surface complex.

    0-cells: ``v.<locus>`` and ``u.<region>``.  1-cells: the locus loops
    ``e.<locus>``; per region its handle loops ``a<i>./b<i>.`` (orientable)
    or crosscap loops ``x<i>.``, one tether ``t.<circle>`` per attached
    boundary circle, and a free loop ``f.<circle>`` per unattached one.
    2-cells: one per region.
    """
    zero_cells: list[str] = []
    one_cells: list[str] = []
    two_cells: list[str] = []
    z_index: dict[str, int] = {}
    o_index: dict[str, int] = {}

    def add0(label):
        z_index[label] = len(zero_cells)
        zero_cells.append(label)

    def add1(label):
        o_index[label] = len(one_cells)
        one_cells.append(label)

    for l in surface.loci:
        add0("v." + l.id)
    for r in surface.regions:
        add0("u." + r.id)
    for l in surface.loci:
        add1("e." + l.id)
    for r in surface.regions:
        if r.topology.orientable:
            for i in range(1, r.topology.genus + 1):
                add1(f"a{i}." + r.id)
                add1(f"b{i}." + r.id)
        else:
            for i in range(1, r.topology.genus + 1):
                add1(f"x{i}." + r.id)
        for c in r.boundary_circles:
            if c in surface.circle_to_slot:
                add1("t." + c)
            else:
                add1("f." + c)

    d1_cols = []
    for label in one_cells:
        col = [0] * len(zero_cells)
        if label.startswith("t."):
            c = label[2:]
            locus_id, _ = surface.circle_to_slot[c]
            col[z_index["v." + locus_id]] += 1
            col[z_index["u." + surface.circle_to_region[c]]] -= 1
        d1_cols.append(col)

    d2_cols = []
    for r in surface.regions:
        two_cells.append("F." + r.id)
        col = [0] * len(one_cells)
        if not r.topology.orientable:
            for i in range(1, r.topology.genus + 1):
                col[o_index[f"x{i}." + r.id]] += 2
        for c in r.boundary_circles:
            slot = surface.circle_to_slot.get(c)
            if slot is None:
                col[o_index["f." + c]] += 1
            else:
                locus = surface.locus(slot[0])
                col[o_index["e." + locus.id]] += locus.signs[slot[1]] * locus.wrapping
        d2_cols.append(col)

    d1 = IntegerMatrix.from_rows(list(zip(*d1_cols))) if d1_cols else \
        IntegerMatrix.zero(len(zero_cells), 0)
    d2 = IntegerMatrix.from_rows(list(zip(*d2_cols))) if d2_cols else \
        IntegerMatrix.zero(len(one_cells), 0)
    return ChainComplex(d1, d2, tuple(zero_cells), tuple(one_cells), tuple(two_cells))


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients of H0, H1, H2.

    Torsion is listed in divisibility order with trivial factors suppressed;
    H0 and H2 of these complexes are always free.
    """

    betti: tuple[int, int, int]
    torsion: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def group_text(self, q: int) -> str:
        parts = ["Z"] * self.betti[q] + [f"Z/{t}" for t in self.torsion[q]]
        return " + ".join(parts) if parts else "0"


def homology_profile(surface: MultibranchedSurface) -> HomologyProfile:
    """Integral homology of the complex.

    ``d1`` is a graph incidence matrix, so its rank is ``n0`` minus the
    component count and it adds no torsion.  Only the non-zero rows of
    ``d2`` go through the Smith normal form; zero rows change neither its
    rank nor its invariant factors.
    """
    cx = build_chain_complex(surface)
    n0, n1, n2 = len(cx.zero_cells), len(cx.one_cells), len(cx.two_cells)
    r1 = n0 - connected_components(surface)
    snf2 = smith_normal_form(
        IntegerMatrix.from_rows([row for row in cx.d2.entries if any(row)]))
    r2 = snf2.rank
    torsion1 = tuple(d for d in snf2.invariant_factors if d > 1)
    betti = (n0 - r1, (n1 - r1) - r2, n2 - r2)
    return HomologyProfile(betti=betti, torsion=((), torsion1, ()))


@dataclass(frozen=True)
class DecompositionSummary:
    """Piece counts of the neighborhood split along its annulus system:
    one solid torus per locus, one interval bundle per region with boundary
    (product if orientable, twisted otherwise), one annulus per attached
    boundary circle."""

    solid_torus_count: int
    product_bundle_count: int
    twisted_bundle_count: int
    characteristic_annuli_count: int


def decomposition_summary(surface: MultibranchedSurface) -> DecompositionSummary:
    if surface.mode is not ValidityMode.STRICT:
        raise ModeError("decomposition_summary is defined for strict surfaces")
    with_boundary = [r for r in surface.regions if r.topology.boundary_count > 0]
    return DecompositionSummary(
        solid_torus_count=len(surface.loci),
        product_bundle_count=sum(1 for r in with_boundary if r.topology.orientable),
        twisted_bundle_count=sum(1 for r in with_boundary if not r.topology.orientable),
        characteristic_annuli_count=sum(len(l.slots) for l in surface.loci),
    )


def boundary_euler(surface: MultibranchedSurface) -> int:
    """Euler characteristic of the boundary of the regular neighborhood,
    which is twice that of the complex for a compact 3-manifold thickening."""
    if surface.mode is not ValidityMode.STRICT:
        raise ModeError("boundary_euler is defined for strict surfaces")
    return 2 * euler_characteristic(surface)
