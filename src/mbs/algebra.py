"""Exact integer linear algebra and cellular homology of a surface complex.

The chain complex uses one vertex and one loop per locus, one vertex per
region, one handle pair (or crosscap loop) per unit of genus, one tether per
boundary circle, and one 2-cell per region.  The 2-cell of a region adds
``sign * wrapping`` to the loop of each locus it meets, 2 to each of its
crosscap loops and 1 to each free loop.

Homology needs a Smith normal form of ``d2`` only.  ``d1`` is the signed
incidence matrix of the region-locus graph (the tethers are its edges); it
is totally unimodular, so it adds no torsion and its rank is ``vertices -
components``.  Handle and tether rows of ``d2`` are zero, and a region's
crosscap rows are all equal, as are its free-loop rows.  Row operations
turn equal rows into one row and zero rows, and zero rows change neither
rank nor invariant factors.  So homology builds one row per locus loop and
at most one crosscap row and one free-loop row per region, and counts cells
by arithmetic: its cost does not grow with genus.  Each row meets the
regions of one connected component only, so ``d2`` is block-diagonal by
component: homology builds each block from one component's own loci and
regions and reduces it on its own, the ranks add up, and the blocks'
invariant factors merge into one divisibility chain through
``diag(a, b) ~ diag(gcd, lcm)``.
"""

from __future__ import annotations

from math import gcd

from .errors import ModeError
from .isomorphism import _check_clock
from .model import (
    MultibranchedSurface,
    ValidityMode,
    _frozen,
    euler_characteristic,
)


@_frozen
class IntegerMatrix:
    """Dense arbitrary-precision integer matrix (rows of equal length).

    :meth:`from_rows` is the checked constructor for input from outside the
    library (``int()`` on every entry, no ragged rows); the library builds
    its own matrices directly from tuples of ``int`` rows.
    """

    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "IntegerMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
        return IntegerMatrix(rows)

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


@_frozen
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
    by row-major position, so the search stops at the first unit) which
    keeps entry growth moderate; the final pass enforces the divisibility
    chain and non-negative diagonal.  The output is deterministic for a
    given input.  Inside a bounded search, the search's deadline is read
    before each pivot.
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
            row = a[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (best is None or x < best[0]):
                    if x == 1:
                        return 1, i, j
                    best = (x, i, j)
        return best

    t = 0
    while t < min(m, n):
        _check_clock()
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
        S=IntegerMatrix(tuple(map(tuple, a))),
        U=IntegerMatrix(tuple(map(tuple, u))),
        V=IntegerMatrix(tuple(map(tuple, v))),
    )


@_frozen
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
    loci, regions = surface.loci, surface.regions
    locus_row = {l.id: i for i, l in enumerate(loci)}
    n2 = len(regions)
    zero_cells = ["v." + l.id for l in loci] + ["u." + r.id for r in regions]
    one_cells = ["e." + l.id for l in loci]
    d2 = [[0] * n2 for _ in loci]
    tethers = []  # (1-cell, locus 0-cell, region 0-cell)
    for j, r in enumerate(regions):
        genus = r.topology.genus
        if r.topology.orientable:
            one_cells += [f"{h}{i}." + r.id for i in range(1, genus + 1) for h in "ab"]
            d2 += [[0] * n2 for _ in range(2 * genus)]
        else:
            one_cells += [f"x{i}." + r.id for i in range(1, genus + 1)]
            crosscap = [0] * n2
            crosscap[j] = 2
            d2 += [crosscap[:] for _ in range(genus)]
        for c in r.boundary_circles:
            slot = surface.circle_to_slot.get(c)
            row = [0] * n2
            if slot is None:
                one_cells.append("f." + c)
                row[j] = 1
            else:
                i = locus_row[slot[0]]
                tethers.append((len(one_cells), i, len(loci) + j))
                one_cells.append("t." + c)
                d2[i][j] += loci[i].signs[slot[1]] * loci[i].wrapping
            d2.append(row)
    d1 = [[0] * len(one_cells) for _ in zero_cells]
    for col, v, u in tethers:
        d1[v][col], d1[u][col] = 1, -1
    return ChainComplex(IntegerMatrix(tuple(map(tuple, d1))),
                        IntegerMatrix(tuple(map(tuple, d2))),
                        tuple(zero_cells), tuple(one_cells),
                        tuple("F." + r.id for r in regions))


@_frozen
class HomologyProfile:
    """Betti numbers and torsion coefficients of H0, H1, H2.

    Torsion is listed in divisibility order with trivial factors suppressed;
    H0 and H2 of these complexes are always free.
    """

    betti: tuple[int, int, int]
    torsion: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def group_text(self, q: int) -> str:
        """``H_q`` as text: the free part as ``Z`` or ``Z^n``, then the
        torsion, e.g. ``Z^3 + Z/2``; the trivial group is ``0``."""
        b = self.betti[q]
        free = ["Z" if b == 1 else f"Z^{b}"] if b else []
        parts = free + [f"Z/{t}" for t in self.torsion[q]]
        return " + ".join(parts) if parts else "0"


def _divisibility_chain(factors) -> tuple[int, ...]:
    """The invariant factors greater than 1 of ``diag(*factors)``, for
    positive ``factors`` in any order.

    Insertion sort under ``diag(a, b) ~ diag(gcd(a, b), lcm(a, b))``: for
    each prime the exchange puts the smaller exponent first, so the chain
    comes out sorted by every prime at once, without factoring anything.
    """
    chain: list[int] = []
    for x in factors:
        if x == 1:
            continue
        chain.append(x)
        j = len(chain) - 1
        while j and chain[j] % chain[j - 1]:
            a, b = chain[j - 1], chain[j]
            g = gcd(a, b)
            chain[j - 1], chain[j] = g, a // g * b
            j -= 1
    return tuple(d for d in chain if d > 1)


def homology_profile(surface: MultibranchedSurface) -> HomologyProfile:
    """Integral homology of the complex, from the rows of ``d2`` that can
    change it (see the module docstring) and cell counts by arithmetic.

    Each component's block, one column per region, goes through its own
    Smith normal form.  ``rank d2`` is the sum of the block ranks, and the
    torsion of H1 is the blocks' invariant factors merged into one
    divisibility chain.  A bounded search's deadline is read at each pivot
    of a Smith normal form.
    """
    parts = surface.components
    n1, n2 = len(surface.loci), len(surface.regions)
    r1, r2, factors = n1 + n2 - len(parts), 0, []  # rank d1 = vertices - components
    for regions, loci in parts:
        locus_row = {l.id: i for i, l in enumerate(loci)}
        rows: list[dict[int, int]] = [{} for _ in loci]  # locus loops, summed below
        for j, r in enumerate(regions):
            genus, free = r.topology.genus, False
            n1 += len(r.boundary_circles) + (2 * genus if r.topology.orientable else genus)
            if genus and not r.topology.orientable:
                rows.append({j: 2})
            for c in r.boundary_circles:
                slot = surface.circle_to_slot.get(c)
                if slot is None:
                    free = True
                else:
                    i = locus_row[slot[0]]
                    rows[i][j] = rows[i].get(j, 0) + loci[i].signs[slot[1]] * loci[i].wrapping
            if free:
                rows.append({j: 1})
        snf = smith_normal_form(IntegerMatrix(tuple(
            tuple(row.get(j, 0) for j in range(len(regions)))
            for row in rows if any(row.values()))))
        r2 += snf.rank
        factors += snf.invariant_factors
    betti = (len(parts), (n1 - r1) - r2, n2 - r2)
    return HomologyProfile(betti=betti, torsion=((), _divisibility_chain(factors), ()))


@_frozen
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
