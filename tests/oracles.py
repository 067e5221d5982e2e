"""Independent brute-force oracles used to cross-check the main algebra path.

The Smith normal form oracle computes invariant factors from determinantal
divisors (gcd of all k x k minors), a completely different route from the
row/column reduction in the library.  Ranks are computed over the rationals
with exact fractions, and determinants with fraction-free Bareiss
elimination.

The chain complex oracle is the library's earlier three-pass builder: it
lists the cells first, then reads each tether's ends back from its label,
and builds both boundary matrices as column lists that it transposes
through the checked ``IntegerMatrix.from_rows``.  The library's one-pass
builder must reproduce its labels and entries exactly.

The Smith normal form reference is the library's reduction before its pivot
search returned early on a unit, and the homology reference is the library's
earlier single reduction of the whole ``d2``; the library must reproduce
the decompositions of the first and the profiles of the second exactly.

The canonical labelling oracle is a plain backtracker: it finds the
connected components by its own breadth-first search, and in each component
it expands every candidate (locus, direction, rotation, locus potential)
among the remaining loci of least (wrapping, slot count), pruning only
against the best complete code found so far.  The surface's code is the
validity-mode flag followed by the sorted component codes.  The library's
labeller must reproduce its labelling exactly: code, locus order, region
numbering and potentials.

The symmetry search oracle is the library's labeller before it pruned by
the symmetries it finds, kept verbatim: it expands every least child that
the prefix and gauge cuts leave, and keeps a generator for each tied leaf it
meets.  The library must reproduce its labelling exactly, and its
generators must give orbits of the moves that are equal or coarser.

The chain inversion oracle is the search's earlier neighbour scan: from a
surface in the class of each y-side surface it takes the first neighbour,
in move order, that lands in the class of the surface before it.  It reads
no move of the chain, so it checks the inversion that reads each inverse
off its move and carries it through a certificate.

The orbit oracle is the library's earlier one-move-per-orbit pruning, kept
verbatim: it indexes every move, unions each move with its image under
each generator of the rotational labelling in a union-find whose roots are
the first moves of their orbits, and keeps the roots.  The library's
breadth-first orbit walk must keep the same moves in the same order.

The minor search oracle is the library's earlier ``is_minor`` loop, kept
verbatim: its own frontier and seen set, each state carrying its chain, and
the state budget tested before every reduction it tries.  That test fires
once the seen set holds ``max_states`` states, even when no reduction is
left that would add a new one, so a downward set of exactly ``max_states``
states reads incomplete here.  The library must find the same chains, and
may differ only by answering completely at that boundary.

The search oracle is the library's earlier bidirectional loop of
``search_equivalence``, kept verbatim: it sorts a side's frontier before
growing it by one level with its own level loop (the earlier
``_Side.level``), and names the budget that ran out in its own words.  It
builds the first move of every orbit, so unlike the library it also builds
the undo of the move that made each state, and its start test and
closing check label in the requested mode.  The library grows each level
in discovery order, so where neither run ends on the state budget it must
reach the same outcome and reason by a record of the same length; where
one does, the other may find a record.

The isomorphism oracle is VF2 (``networkx``'s ``DiGraphMatcher``) on an
incidence digraph that drops the signs, so it decides isomorphism of
surfaces whose signs are all +1.  A region node is labelled by its topology
and free-circle count, a locus node by its wrapping and slot count, and a
slot node by its locus's wrapping and slot count and its region's topology;
each slot has a ``next`` edge to the following slot of its cycle, an ``in``
edge to its region and an ``on`` edge to its locus.  A directed cycle maps
onto a directed cycle only by a rotation, so a match is a ROTATIONAL
isomorphism; MIRROR also tries the mirror image of y.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from helpers import mirror_image
from mbs.algebra import (
    ChainComplex,
    HomologyProfile,
    IntegerMatrix,
    SmithDecomposition,
    homology_profile,
)
from mbs.errors import MbsError, TheoremViolationError, UnknownIdError
from mbs.isomorphism import (
    SymmetryMode,
    _canonical,
    _check_clock,
    _Labeling,
    _time_limit,
    are_isomorphic,
    canonical_form,
)
from mbs.minors import MinorOutcome, _require_minor, apply_reduction, enumerate_reductions
from mbs.model import MultibranchedSurface, connected_components, euler_characteristic
from mbs.moves import (
    IXSite,
    MoveRecord,
    _image,
    _moves,
    _orbit_moves,
    _record,
    _Side,
    _successors,
    replay,
)
from mbs.search import (
    ExhaustedWithinBudget,
    Found,
    InvariantMismatch,
    SearchBudget,
    SearchOutcome,
    _invert_backward_chain,
    neighbors,
)


def det_bareiss(rows) -> int:
    """Exact integer determinant (fraction-free Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors_by_minors(rows) -> list[int]:
    """Nonzero invariant factors d_k = D_k / D_{k-1} with D_k the gcd of all
    k x k minors.  Exponential; intended for small matrices only."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(det_bareiss(sub)))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]


def rank_over_rationals(rows) -> int:
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(m):
            if i != rank and a[i][col]:
                f = a[i][col] / a[rank][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def homology_from_matrices(d1_rows, d2_rows, n_zero, n_one, n_two):
    """Betti numbers and H1 torsion straight from the boundary matrices,
    using only the oracle primitives above."""
    r1 = rank_over_rationals(d1_rows) if d1_rows else 0
    r2 = rank_over_rationals(d2_rows) if d2_rows else 0
    torsion1 = tuple(d for d in invariant_factors_by_minors(d2_rows) if d > 1) \
        if d2_rows else ()
    betti = (n_zero - r1, (n_one - r1) - r2, n_two - r2)
    return betti, torsion1


def reference_chain_complex(surface: MultibranchedSurface) -> ChainComplex:
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
        IntegerMatrix(((),) * len(zero_cells))
    d2 = IntegerMatrix.from_rows(list(zip(*d2_cols))) if d2_cols else \
        IntegerMatrix(((),) * len(one_cells))
    return ChainComplex(d1, d2, tuple(zero_cells), tuple(one_cells), tuple(two_cells))


def reference_smith_normal_form(matrix: IntegerMatrix) -> SmithDecomposition:
    """The library's Smith normal form before ``pick_pivot`` returned early
    on an entry of absolute value 1, kept verbatim: the library must give
    the same ``S``, ``U`` and ``V``."""
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
        S=IntegerMatrix(tuple(map(tuple, a))),
        U=IntegerMatrix(tuple(map(tuple, u))),
        V=IntegerMatrix(tuple(map(tuple, v))),
    )


def reference_homology_profile(surface: MultibranchedSurface) -> HomologyProfile:
    """The library's earlier homology: one Smith normal form over every
    non-zero row of the whole ``d2``, with ``rank d1`` read off the component
    count.  The library's per-component reduction must give the same
    profile."""
    cx = reference_chain_complex(surface)
    n0, n1, n2 = len(cx.zero_cells), len(cx.one_cells), len(cx.two_cells)
    r1 = n0 - connected_components(surface)
    snf2 = reference_smith_normal_form(
        IntegerMatrix(tuple(row for row in cx.d2.entries if any(row))))
    r2 = snf2.rank
    torsion1 = tuple(d for d in snf2.invariant_factors if d > 1)
    betti = (n0 - r1, (n1 - r1) - r2, n2 - r2)
    return HomologyProfile(betti=betti, torsion=((), torsion1, ()))


def _components(surface: MultibranchedSurface):
    """Connected components by breadth-first search from each region not yet
    reached, in order of their first region: (region ids, loci)."""
    region_loci = {r.id: [] for r in surface.regions}
    for l in surface.loci:
        for c in l.slots:
            region_loci[surface.circle_to_region[c]].append(l)
    seen, out = set(), []
    for r in surface.regions:
        if r.id in seen:
            continue
        seen.add(r.id)
        queue, regions, loci = [r.id], [], []
        while queue:
            rid = queue.pop(0)
            regions.append(rid)
            for l in region_loci[rid]:
                if l in loci:
                    continue
                loci.append(l)
                for c in l.slots:
                    other = surface.circle_to_region[c]
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        out.append((regions, loci))
    return out


def reference_canonical_labelling(surface: MultibranchedSurface, mode: SymmetryMode) -> _Labeling:
    for l in surface.loci:
        for c in l.slots:
            if c not in surface.circle_to_region:
                raise UnknownIdError(f"locus {l.id} has a slot for unknown circle {c!r}")
    orientable = {r.id: r.topology.orientable for r in surface.regions}

    def table_row(rid):
        r = surface.region_by_id[rid]
        t = r.topology
        n_att = sum(1 for c in r.boundary_circles if c in surface.circle_to_slot)
        return [int(t.orientable), t.genus, t.boundary_count, n_att]

    def label_component(regions, loci, global_dir):
        if not loci:
            (rid,) = regions
            return tuple([0, 1] + table_row(rid)), (), {rid: 0}, {}
        best: dict = {"part": None}

        def finish(code, chosen, region_number, p_region):
            table = []
            for rid in sorted(region_number, key=region_number.get):
                table += table_row(rid)
            full = tuple(code + table)
            if best["part"] is None or full < best["part"][0]:
                best["part"] = (full, tuple(chosen), region_number, dict(p_region))

        def rec(remaining, code, chosen, region_number, p_region):
            if not remaining:
                finish(code, chosen, region_number, p_region)
                return
            kind = min((l.wrapping, len(l.slots)) for l in remaining)
            candidates = [l for l in remaining if (l.wrapping, len(l.slots)) == kind]
            if mode is SymmetryMode.DIHEDRAL_PER_LOCUS:
                directions = (1, -1)
            else:
                directions = (global_dir,)
            # candidates that emit an already-explored block with the same
            # region-id sequence and the same new gauge potentials lead to
            # isomorphic subtrees: skip them (the encoding never distinguishes
            # circles beyond their region, so the consumed loci are then
            # interchangeable)
            tried = set()
            for locus in candidates:
                k = len(locus.slots)
                rest = [l for l in remaining if l.id != locus.id]
                for direction in directions:
                    for rot in range(k):
                        for p_locus in (1, -1):
                            block = [locus.wrapping, k]
                            ids = []
                            deltas = []
                            new_numbers = dict(region_number)
                            new_p = dict(p_region)
                            for step in range(k):
                                idx = (rot + direction * step) % k
                                c = locus.slots[idx]
                                eta = locus.signs[idx]
                                rid = surface.circle_to_region[c]
                                if rid not in new_numbers:
                                    new_numbers[rid] = len(new_numbers)
                                    if orientable[rid]:
                                        new_p[rid] = p_locus * eta
                                        deltas.append(p_locus * eta)
                                    sign_bit = 0
                                elif orientable[rid]:
                                    sign_bit = 0 if p_locus * eta * new_p[rid] == 1 else 1
                                else:
                                    sign_bit = 0
                                block += [new_numbers[rid], sign_bit]
                                ids.append(rid)
                            key = (tuple(block), tuple(ids), tuple(deltas))
                            if key in tried:
                                continue
                            tried.add(key)
                            new_code = code + block
                            ref = best["part"]
                            if ref is not None and tuple(new_code) > ref[0][:len(new_code)]:
                                continue
                            rec(rest, new_code, chosen + [(locus.id, rot, direction, p_locus)],
                                new_numbers, new_p)

        ordered = sorted(loci, key=lambda l: (l.wrapping, len(l.slots), l.id))
        rec(ordered, [len(loci), len(regions)], [], {}, {})
        return best["part"]

    best = None
    for global_dir in ((1, -1) if mode is SymmetryMode.MIRROR else (1,)):
        parts = sorted((label_component(regions, loci, global_dir)
                        for regions, loci in _components(surface)),
                       key=lambda part: part[0])
        code = [0 if surface.mode.value == "strict" else 1]
        locus_seq, region_number, p_region = [], {}, {}
        for part_code, chosen, numbers, potentials in parts:
            code += part_code
            locus_seq += chosen
            offset = len(region_number)
            for rid, n in numbers.items():
                region_number[rid] = offset + n
            p_region.update(potentials)
        if best is None or tuple(code) < best.code:
            best = _Labeling(tuple(code), tuple(locus_seq), region_number, p_region)
    return best


def reference_symmetry_search(surface: MultibranchedSurface,
                              directions: tuple[int, ...] = (1,)) -> _Labeling:
    """One pass of the labeller as it was before it pruned by the symmetries
    it finds: the least labeling, every locus read in one of ``directions``,
    and a generator for each tied leaf that it meets."""
    for l in surface.loci:
        if not l.slots:
            raise MbsError(f"locus {l.id} has no slots")
        for c in l.slots:
            if c not in surface.circle_to_region:
                raise UnknownIdError(f"locus {l.id} has a slot for unknown circle {c!r}")
    orientable = {r.id: r.topology.orientable for r in surface.regions}
    circle_region = surface.circle_to_region
    attached = surface.circle_to_slot
    table_row = {}
    for r in surface.regions:
        t = r.topology
        n_att = sum(1 for c in r.boundary_circles if c in attached)
        table_row[r.id] = (int(t.orientable), t.genus, t.boundary_count, n_att)
    automorphisms = {}

    def pair_leaves(seq_a, numbers_a, seq_b, numbers_b):
        """Keep the symmetry that pairs two leaves with equal codes position
        by position, unless it is the identity or reverses a locus."""
        locus_map, alignment = {}, {}
        for (a, rot_a, dir_a, _), (b, rot_b, dir_b, _) in zip(seq_a, seq_b):
            if dir_a != dir_b:
                return
            offset = (rot_a - rot_b) % len(surface.locus_by_id[a].slots)
            if a != b or offset:
                locus_map[a], alignment[a] = b, (offset, False)
        region_of = {n: rid for rid, n in numbers_b.items()}
        region_map = {r: region_of[n] for r, n in numbers_a.items() if region_of[n] != r}
        if alignment or region_map:
            generator = (region_map, locus_map, alignment)
            automorphisms.setdefault(tuple(tuple(m.items()) for m in generator), generator)

    def block_of(locus, rot, direction, region_number, p_region):
        """The block of ``locus`` read from ``rot`` in ``direction``, the
        locus potentials that can emit it, and the regions it numbers."""
        k = len(locus.slots)
        block = [locus.wrapping, k]
        fresh = {}          # region -> (number, sign at its first slot)
        p_forced = 0
        for step in range(k):
            idx = (rot + direction * step) % k
            rid = circle_region[locus.slots[idx]]
            eta = locus.signs[idx]
            sign_bit = 0
            if rid in region_number:
                number = region_number[rid]
                if orientable[rid]:
                    # the bit is p_locus * eta * p_region; the first such
                    # bit decides p_locus, since the least block has it 0
                    rel = eta * p_region[rid]
                    if not p_forced:
                        p_forced = rel
                    elif rel != p_forced:
                        sign_bit = 1
            elif rid in fresh:
                # p_locus cancels: the bit is eta times the first sign
                number, first = fresh[rid]
                if orientable[rid] and eta != first:
                    sign_bit = 1
            else:
                number = len(region_number) + len(fresh)
                fresh[rid] = (number, eta)
            block += (number, sign_bit)
        if p_forced:
            potentials = (p_forced,)
        elif not p_region:
            # no potential is fixed yet (as at the root): -1 is the image
            # of +1 under the global gauge flip and reaches the same codes
            potentials = (1,)
        else:
            potentials = (1, -1)
        return tuple(block), potentials, fresh

    def label_component(regions, loci):
        """The least code of one connected component, with the locus
        sequence, region numbers and potentials that realise it."""
        if not loci:
            (region,) = regions
            return (0, 1) + table_row[region.id], (), {region.id: 0}, {}
        best = None

        def rec(remaining, code, chosen, region_number, p_region):
            nonlocal best
            _check_clock()
            if not remaining:
                full = code + tuple(x for rid in sorted(region_number, key=region_number.get)
                                    for x in table_row[rid])
                if best is None or full < best[0]:
                    best = (full, tuple(chosen), region_number, p_region)
                elif full == best[0]:
                    pair_leaves(best[1], best[2], chosen, region_number)
                return
            # remaining keeps the (wrapping, k, id) order, so every
            # candidate has one (wrapping, k) and every child block the
            # same length; a child whose block exceeds a sibling's cannot
            # lead to the least code: expand only the least blocks
            head = remaining[0]
            candidates = [l for l in remaining
                          if l.wrapping == head.wrapping and len(l.slots) == len(head.slots)]
            least, children = None, []
            for locus in candidates:
                for direction in directions:
                    for rot in range(len(locus.slots)):
                        block, potentials, fresh = block_of(
                            locus, rot, direction, region_number, p_region)
                        if least is None or block < least:
                            least, children = block, []
                        if block == least:
                            children.append((locus, rot, direction, potentials, fresh))
            new_code = code + least
            # children that number the same regions with the same new
            # potentials lead to isomorphic subtrees: the encoding never
            # distinguishes circles beyond their region, so the consumed loci
            # are then interchangeable
            tried = set()
            for locus, rot, direction, potentials, fresh in children:
                ids = tuple(fresh)
                for p_locus in potentials:
                    deltas = tuple(p_locus * eta for rid, (_, eta) in fresh.items()
                                   if orientable[rid])
                    if (ids, deltas) in tried:
                        continue
                    tried.add((ids, deltas))
                    if not p_region:
                        # the gauge image with p_locus = -1 is not expanded,
                        # and neither are its twins
                        tried.add((ids, tuple(-d for d in deltas)))
                    if best is not None and new_code > best[0][:len(new_code)]:
                        return
                    new_numbers = dict(region_number)
                    new_p = dict(p_region)
                    for rid, (number, eta) in fresh.items():
                        new_numbers[rid] = number
                        if orientable[rid]:
                            new_p[rid] = p_locus * eta
                    rec([l for l in remaining if l is not locus], new_code,
                        chosen + [(locus.id, rot, direction, p_locus)],
                        new_numbers, new_p)

        rec(sorted(loci, key=lambda l: (l.wrapping, len(l.slots), l.id)),
            (len(loci), len(regions)), [], {}, {})
        return best

    parts = sorted((label_component(regions, loci)
                    for regions, loci in surface.components),
                   key=lambda part: part[0])
    code = (0 if surface.mode.value == "strict" else 1,) + \
        tuple(x for part in parts for x in part[0])
    locus_seq, region_number, p_region = [], {}, {}
    for _, chosen, numbers, potentials in parts:
        locus_seq += chosen
        offset = len(region_number)
        region_number.update((rid, offset + n) for rid, n in numbers.items())
        p_region.update(potentials)
    return _Labeling(code, tuple(locus_seq), region_number, p_region,
                     tuple(automorphisms.values()))


def reference_invert_backward_chain(meet_surface, side, key):
    """The search's chain inversion by neighbour scan, from state ``key`` of
    y's tree ``side`` to its root; the undos the tree stores are not read.
    Returns the surfaces after ``meet_surface`` and the moves, as two
    tuples."""
    surfaces, moves = [], []
    current = meet_surface
    _, parent, _, _ = side.tree[key]
    while parent is not None:
        backward_surface, next_parent, _, _ = side.tree[parent]
        want = canonical_form(backward_surface, SymmetryMode.ROTATIONAL).data
        for move, after in neighbors(current):
            _check_clock()
            if canonical_form(after, SymmetryMode.ROTATIONAL).data == want:
                surfaces.append(after)
                moves.append(move)
                current = after
                break
        else:
            raise TheoremViolationError("backward chain step has no reverse move")
        parent = next_parent
    return tuple(surfaces), tuple(moves)


def reference_orbit_moves(surface: MultibranchedSurface) -> list:
    """The first move, in ``_moves`` order, of each orbit of the moves of
    ``surface`` under the generators of its rotational labelling, by
    union-find over the indexed moves."""
    moves = list(_moves(surface))
    automorphisms = _canonical(surface, SymmetryMode.ROTATIONAL).automorphisms
    if not automorphisms:
        return moves
    roots = orbit_roots(surface, moves, automorphisms)
    return [move for i, move in enumerate(moves) if roots[i] == i]


def orbit_roots(surface: MultibranchedSurface, moves, automorphisms) -> list[int]:
    """Per move of ``moves``, all moves of ``surface``, the index of the first
    move of its orbit under ``automorphisms``."""
    index = {move: i for i, move in enumerate(moves)}
    root = list(range(len(moves)))  # union-find; each orbit's root is its first move

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for region_map, locus_map, alignment in automorphisms:
        for i, move in enumerate(moves):
            fixed = move.region_id not in region_map if isinstance(move, IXSite) \
                else move.locus_id not in locus_map
            if fixed:
                continue
            j = index.get(_image(move, surface, region_map, locus_map, alignment))
            if j is None:
                raise TheoremViolationError(f"a symmetry of the surface does not keep {move}")
            a, b = find(i), find(j)
            root[max(a, b)] = min(a, b)
    return [find(i) for i in range(len(moves))]


def reference_less_than(x: MultibranchedSurface, y: MultibranchedSurface,
                        budget: SearchBudget = SearchBudget(),
                        mode: SymmetryMode = SymmetryMode.MIRROR):
    """Single-step relation by a loop over the reductions of y: the first
    one isomorphic to x, or None, also when the time limit passes first."""
    _require_minor(x)
    _require_minor(y)
    with _time_limit(budget.time_limit):
        target = canonical_form(x, mode).data
        for step in enumerate_reductions(y):
            _check_clock()
            if canonical_form(apply_reduction(y, step), mode).data == target:
                return (step,)
    return None


def reference_is_minor(x: MultibranchedSurface, y: MultibranchedSurface,
                       budget: SearchBudget = SearchBudget(),
                       mode: SymmetryMode = SymmetryMode.MIRROR) -> MinorOutcome:
    """Breadth-first search down the reduction order from y for a surface
    isomorphic to x.  Reflexive via the empty chain."""
    _require_minor(x)
    _require_minor(y)
    target_size = len(x.regions) + len(x.loci)

    with _time_limit(budget.time_limit):
        target = canonical_form(x, mode).data
        start_key = canonical_form(y, mode).data
        if start_key == target:
            return MinorOutcome((), True)
        seen = {start_key}
        frontier = [(y, ())]
        while frontier:
            next_frontier = []
            for surface, steps in frontier:
                for step in enumerate_reductions(surface):
                    _check_clock()
                    if len(seen) >= budget.max_states:
                        return MinorOutcome(None, False)
                    after = apply_reduction(surface, step)
                    if len(after.regions) + len(after.loci) < target_size:
                        continue
                    key = canonical_form(after, mode).data
                    if key in seen:
                        continue
                    seen.add(key)
                    chain = steps + (step,)
                    if key == target:
                        return MinorOutcome(chain, True)
                    next_frontier.append((after, chain))
            frontier = next_frontier
        return MinorOutcome(None, True)
    return MinorOutcome(None, False)


def _level(side, successors):
    """Advance the frontier one level, yielding each new state key as it
    is recorded; ``successors(surface)`` gives ``(move, after, undo)``
    triples, and the deadline is read after each."""
    parents, side.frontier = side.frontier, []
    side.depth += 1
    for parent in parents:
        for move, after, undo in successors(side.tree[parent][0]):
            _check_clock()
            key = canonical_form(after, side.mode).data
            if key not in side.tree:
                side.tree[key] = (after, parent, move, undo)
                side.frontier.append(key)
                yield key


def reference_search_equivalence(x: MultibranchedSurface, y: MultibranchedSurface,
                                 budget: SearchBudget = SearchBudget(),
                                 mode: SymmetryMode = SymmetryMode.MIRROR) -> SearchOutcome:
    """Look for an IX/XI sequence carrying x to a surface isomorphic to y,
    growing the side with the smaller sorted frontier level by level."""
    exhausted = ExhaustedWithinBudget("state or time budget exhausted")
    with _time_limit(budget.time_limit):
        if euler_characteristic(x) != euler_characteristic(y):
            return InvariantMismatch("euler_characteristic")
        if connected_components(x) != connected_components(y):
            return InvariantMismatch("connected_components")
        if homology_profile(x) != homology_profile(y):
            return InvariantMismatch("homology_profile")
        if canonical_form(x, mode).data == canonical_form(y, mode).data:
            return Found(MoveRecord(()))
        side_x, side_y = _Side(x), _Side(y)

        def successors(surface):
            # one move per orbit of the symmetries that the parent's labeling
            # found: the others give a class that an earlier successor has
            return ((move, after, undo) for move, after, undo in
                    _successors(surface, _orbit_moves(surface))
                    if after.cell_count <= budget.max_cell_count)

        meet = None
        while meet is None:
            live = [s for s in (side_x, side_y)
                    if s.frontier and s.depth < budget.max_depth]
            if not live:
                return ExhaustedWithinBudget(
                    "depth budget exhausted" if side_x.frontier or side_y.frontier
                    else "state space exhausted within budget")
            # advance the smaller frontier by one BFS level
            side = min(live, key=lambda s: (len(s.frontier), s is side_y))
            other = side_y if side is side_x else side_x
            side.frontier.sort()
            for key in _level(side, successors):
                if len(side_x.tree) + len(side_y.tree) > budget.max_states:
                    return exhausted
                if key in other.tree:
                    meet = key
                    break

        fwd_surfaces, fwd_moves = side_x.chain(meet)
        surfaces, moves = _invert_backward_chain(fwd_surfaces[-1], side_y, meet)
        record = _record(fwd_surfaces + surfaces, fwd_moves + moves)
        endpoint = replay(x, record)
        if are_isomorphic(endpoint, y, mode) is None:  # pragma: no cover
            raise TheoremViolationError("replayed endpoint is not isomorphic to target")
        return Found(record)
    return exhausted


def _incidence_digraph(surface: MultibranchedSurface):
    from networkx import DiGraph

    graph = DiGraph()
    for r in surface.regions:
        free = sum(c not in surface.circle_to_slot for c in r.boundary_circles)
        graph.add_node(("region", r.id), label=(r.topology, free))
    for l in surface.loci:
        k = len(l.slots)
        graph.add_node(("locus", l.id), label=(l.wrapping, k))
        for i, c in enumerate(l.slots):
            region = surface.region_by_id[surface.circle_to_region[c]]
            graph.add_node(("slot", c), label=(l.wrapping, k, region.topology))
            graph.add_edge(("slot", c), ("slot", l.slots[(i + 1) % k]), kind="next")
            graph.add_edge(("slot", c), ("region", region.id), kind="in")
            graph.add_edge(("slot", c), ("locus", l.id), kind="on")
    return graph


def vf2_isomorphic(x: MultibranchedSurface, y: MultibranchedSurface,
                   mode: SymmetryMode) -> bool:
    """Whether x and y, whose signs are all +1, are isomorphic in ``mode``
    (ROTATIONAL or MIRROR), by VF2 on their incidence digraphs."""
    from networkx.algorithms.isomorphism import DiGraphMatcher

    assert mode in (SymmetryMode.ROTATIONAL, SymmetryMode.MIRROR)
    graph = _incidence_digraph(x)
    ys = [y, mirror_image(y)] if mode is SymmetryMode.MIRROR else [y]
    return any(DiGraphMatcher(graph, _incidence_digraph(z),
                              node_match=lambda a, b: a["label"] == b["label"],
                              edge_match=lambda a, b: a["kind"] == b["kind"]).is_isomorphic()
               for z in ys)
