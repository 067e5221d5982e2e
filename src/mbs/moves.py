"""The IX / XI / IH move calculus and maximal-spreading normalization.

Conventions used throughout:

* Slot positions of a locus are indexed ``0..k-1`` in stored cyclic order.
* Gap ``g`` sits between ``slots[g]`` and ``slots[(g+1) % k]``.
* Every cut and split reads its slots with ``_arc(locus, start, length,
  sign)``: ``length`` consecutive slots from ``start`` onwards (cyclically),
  their signs multiplied by ``sign``.  Cutting at slot ``p`` keeps the
  ``k-1`` slots from ``p+1`` on; cutting at gap ``g`` reads all ``k`` slots
  from ``g+1`` on.  Signs transported through a collapse or reversed onto
  a fresh locus enter as ``sign``.

An IX-move contracts an eligible region onto its core circle and splices
the affected slot cycles; orientation signs are transported through the
collapse so that homology is preserved.  An XI-move is one of the finitely
many reversals of an IX-move at a spreadable locus.  The contraction
engine ``_splice`` also names the XI choice that reverses it: the cut of
the merged locus where the arcs were spliced.  Applied right after the IX,
it reproduces the input up to rotation of the stored cycles and fresh
identifiers; an IH-move applies the other choice instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IneligibleMoveError, ModeError, ReplayError, TheoremViolationError
from .isomorphism import SymmetryMode, canonical_form, canonical_hash
from .model import (
    ANNULUS,
    MOEBIUS,
    BranchLocus,
    MultibranchedSurface,
    Region,
    RegionClass,
    ValidityMode,
    classify_region,
    locus_profile,
)

IX_ELIGIBLE = (
    RegionClass.NORMAL_ANNULUS,
    RegionClass.QUASI_NORMAL_ANNULUS,
    RegionClass.NORMAL_MOEBIUS,
)


@dataclass(frozen=True)
class IXSite:
    region_id: str
    kind: RegionClass


@dataclass(frozen=True)
class NormalSplit:
    """Split a normal locus at two gaps; each arc keeps at least two slots."""

    locus_id: str
    gap_a: int
    gap_b: int


@dataclass(frozen=True)
class QuasiSplit:
    """Pull a consecutive arc of ``length`` slots starting at ``start`` off an
    unnormal locus onto a fresh normal locus.  When ``length`` equals the
    cycle length the arc is the whole cycle and the cut sits at the gap
    before ``start``, so distinct starts are distinct choices."""

    locus_id: str
    start: int
    length: int


@dataclass(frozen=True)
class MoebiusSplit:
    """Reverse a Moebius contraction at a wrapping-2 locus, cutting at ``cut_gap``."""

    locus_id: str
    cut_gap: int


XIChoice = NormalSplit | QuasiSplit | MoebiusSplit
MoveDescriptor = IXSite | NormalSplit | QuasiSplit | MoebiusSplit


@dataclass(frozen=True)
class MoveStep:
    move: MoveDescriptor
    hash_before: int
    hash_after: int

    @staticmethod
    def of(move: MoveDescriptor, before: MultibranchedSurface,
           after: MultibranchedSurface) -> "MoveStep":
        """The step ``move`` from ``before`` to ``after``, with both
        rotational canonical hashes."""
        return MoveStep(move, canonical_hash(before, SymmetryMode.ROTATIONAL),
                        canonical_hash(after, SymmetryMode.ROTATIONAL))


@dataclass(frozen=True)
class MoveRecord:
    steps: tuple[MoveStep, ...]

    def __len__(self):
        return len(self.steps)


def _fresh_ids(prefix: str, taken, count: int) -> list[str]:
    """``count`` ids ``prefix<n>`` numbered on from the largest numeric
    suffix among the ``taken`` ids with that prefix."""
    best = 0
    for t in taken:
        if t.startswith(prefix) and t[len(prefix):].isdecimal():
            best = max(best, int(t[len(prefix):]))
    return [f"{prefix}{best + i}" for i in range(1, count + 1)]


def _arc(locus: BranchLocus, start: int, length: int,
         sign: int = 1) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """``length`` consecutive slots of ``locus`` read cyclically from
    ``start``, and their signs times ``sign``."""
    k = len(locus.slots)
    order = [(start + i) % k for i in range(length)]
    return (tuple(locus.slots[i] for i in order),
            tuple(sign * locus.signs[i] for i in order))


def _replace(surface: MultibranchedSurface, *, drop_regions=(), drop_loci=(),
             new_regions=(), new_loci=()) -> MultibranchedSurface:
    regions = tuple(r for r in surface.regions if r.id not in drop_regions)
    loci = tuple(l for l in surface.loci if l.id not in drop_loci)
    return MultibranchedSurface(regions + tuple(new_regions),
                                loci + tuple(new_loci), surface.mode)


def _require_strict(surface: MultibranchedSurface) -> None:
    """The one statement of the rule that IX- and XI-moves, and so listing
    them and spreading, need a strict surface."""
    if surface.mode is not ValidityMode.STRICT:
        raise ModeError("IX- and XI-moves are defined on strict surfaces")


def enumerate_ix(surface: MultibranchedSurface) -> list[IXSite]:
    """All regions along which an IX-move is defined: normal and quasi-normal
    annulus regions and normal Moebius regions, ordered by region id."""
    _require_strict(surface)
    sites = []
    for r in sorted(surface.regions, key=lambda r: r.id):
        kind = classify_region(surface, r.id)
        if kind in IX_ELIGIBLE:
            sites.append(IXSite(r.id, kind))
    return sites


def _leaves_a_slot(surface: MultibranchedSurface, region: Region) -> bool:
    """Contracting ``region`` leaves the merged locus a slot: the loci its
    circles attach to hold more slots than it has boundary circles."""
    loci = {surface.circle_to_slot[c][0] for c in region.boundary_circles}
    return sum(len(surface.locus(l).slots) for l in loci) > len(region.boundary_circles)


def _splice(surface, region, kind):
    """Shared contraction engine for apply_ix and minor-mode contraction.

    Returns the contracted surface and the XI choice that cuts the merged
    locus where the arcs were spliced, which on a strict surface reverses
    the contraction."""
    if not _leaves_a_slot(surface, region):
        loci = "+".join(dict.fromkeys(surface.circle_to_slot[c][0]
                                      for c in region.boundary_circles))
        raise IneligibleMoveError(f"contracting {region.id} would leave locus {loci} bare")
    (new_id,) = _fresh_ids("b", surface.locus_by_id, 1)
    ends = [(surface.locus(l), p) for l, p in
            (surface.circle_to_slot[c] for c in region.boundary_circles)]
    if kind is RegionClass.NORMAL_MOEBIUS:
        ((l, p),) = ends
        slots, signs = _arc(l, p + 1, len(l.slots) - 1, -l.signs[p])
        merged = BranchLocus(new_id, 2, slots, signs)
        reversal = MoebiusSplit(new_id, len(slots) - 1)
    elif kind is RegionClass.NORMAL_ANNULUS:
        (l0, p0), (l1, p1) = ends
        s0, g0 = _arc(l0, p0 + 1, len(l0.slots) - 1)
        s1, g1 = _arc(l1, p1 + 1, len(l1.slots) - 1, -l0.signs[p0] * l1.signs[p1])
        merged = BranchLocus(new_id, 1, s0 + s1, g0 + g1)
        reversal = NormalSplit(new_id, len(s0) - 1, len(s0) + len(s1) - 1)
    else:  # quasi-normal: splice the normal side into the unnormal cycle in place
        (ln, pn), (lu, pu) = ends if ends[0][0].wrapping == 1 else ends[::-1]
        arc, arc_signs = _arc(ln, pn + 1, len(ln.slots) - 1,
                              -ln.signs[pn] * lu.signs[pu])
        merged = BranchLocus(new_id, lu.wrapping, lu.slots[:pu] + arc + lu.slots[pu + 1:],
                             lu.signs[:pu] + arc_signs + lu.signs[pu + 1:])
        reversal = QuasiSplit(new_id, pu, len(arc))
    return _replace(surface, drop_regions=(region.id,),
                    drop_loci=[l.id for l, _ in ends], new_loci=(merged,)), reversal


def _ix(surface: MultibranchedSurface, site: IXSite):
    """:func:`apply_ix`'s checks and contraction, with the reversing XI
    choice :func:`_splice` returns."""
    _require_strict(surface)
    kind = classify_region(surface, site.region_id)
    if kind is not site.kind or kind not in IX_ELIGIBLE:
        raise IneligibleMoveError(
            f"region {site.region_id} is {kind.value}, not an IX site of kind "
            f"{site.kind.value}")
    return _splice(surface, surface.region(site.region_id), kind)


def apply_ix(surface: MultibranchedSurface, site: IXSite) -> MultibranchedSurface:
    """Contract the region of ``site`` onto its core circle.

    A normal annulus merges its two normal loci into one wrapping-1 locus of
    degree ``k1 + k2 - 2``; a quasi-normal annulus splices the normal cycle
    into the unnormal one (degree ``d2 + (d1-2) w``); a normal Moebius band
    turns its locus into a wrapping-2 locus of degree ``2 (d1-1)``.  The
    merged locus is always spreadable.
    """
    return _ix(surface, site)[0]


def enumerate_xi(surface: MultibranchedSurface, locus_id: str) -> list[XIChoice]:
    """All XI-moves at one locus.

    Normal locus of cycle length k: every unordered gap pair whose two arcs
    both keep at least two slots.  Unnormal non-pure locus: every consecutive
    arc of length ``2 <= a < k`` (the locus left behind keeps degree >= 4),
    the whole cycle ``a == k`` when the wrapping is at least 3 (each cut gap
    is a distinct choice), plus one Moebius reversal per cut gap when the
    wrapping is exactly 2.  Pure and normal-tribranched loci admit none.
    Choices come in ``(start, length)`` order, Moebius reversals last.
    """
    _require_strict(surface)
    l = surface.locus(locus_id)
    k = len(l.slots)
    w = l.wrapping
    if w == 1:
        # both arcs keep at least two slots
        return [NormalSplit(locus_id, ga, gb) for ga in range(k)
                for gb in range(ga + 2, k) if gb - ga <= k - 2]
    if k < 2:
        return []
    longest = k if w >= 3 else k - 1  # the whole cycle needs wrapping >= 3
    choices: list[XIChoice] = [QuasiSplit(locus_id, start, length)
                               for start in range(k)
                               for length in range(2, longest + 1)]
    if w == 2:
        choices += [MoebiusSplit(locus_id, g) for g in range(k)]
    return choices


def apply_xi(surface: MultibranchedSurface, choice: XIChoice) -> MultibranchedSurface:
    """Perform the chosen reversal, creating a fresh normal or quasi-normal
    annulus region or a fresh normal Moebius region."""
    _require_strict(surface)
    if choice not in enumerate_xi(surface, choice.locus_id):
        raise IneligibleMoveError(f"{choice} is not available")
    l = surface.locus(choice.locus_id)
    k = len(l.slots)
    c_a, c_b = _fresh_ids("c", surface.circle_to_region, 2)
    id_a, id_b = _fresh_ids("b", surface.locus_by_id, 2)
    (region_id,) = _fresh_ids("r", surface.region_by_id, 1)

    if isinstance(choice, NormalSplit):
        ga, gb = choice.gap_a, choice.gap_b
        high, high_signs = _arc(l, gb + 1, k - (gb - ga))
        low, low_signs = _arc(l, ga + 1, gb - ga, -1)
        region = Region(region_id, ANNULUS, (c_a, c_b))
        new_loci = (BranchLocus(id_a, 1, high + (c_a,), high_signs + (1,)),
                    BranchLocus(id_b, 1, low + (c_b,), low_signs + (1,)))
    elif isinstance(choice, QuasiSplit):
        start, length = choice.start, choice.length
        arc, arc_signs = _arc(l, start, length, -1)
        rest, rest_signs = _arc(l, start + length, k - length)
        region = Region(region_id, ANNULUS, (c_a, c_b))
        new_loci = (BranchLocus(id_a, 1, arc + (c_a,), arc_signs + (1,)),
                    BranchLocus(id_b, l.wrapping, (c_b,) + rest, (1,) + rest_signs))
    else:  # MoebiusSplit: one new circle and one new locus
        slots, signs = _arc(l, choice.cut_gap + 1, k, -1)
        region = Region(region_id, MOEBIUS, (c_a,))
        new_loci = (BranchLocus(id_a, 1, slots + (c_a,), signs + (1,)),)
    return _replace(surface, drop_loci=(l.id,), new_regions=(region,),
                    new_loci=new_loci)


def apply_move(surface: MultibranchedSurface, move: MoveDescriptor) -> MultibranchedSurface:
    if isinstance(move, IXSite):
        return apply_ix(surface, move)
    return apply_xi(surface, move)


def is_maximally_spread_region(surface: MultibranchedSurface, region_id: str) -> bool:
    """Every locus touched by the region is non-spreadable."""
    r = surface.region(region_id)
    for c in r.boundary_circles:
        slot = surface.circle_to_slot.get(c)
        if slot is not None and locus_profile(surface, slot[0]).is_spreadable:
            return False
    return True


def is_maximally_spread_surface(surface: MultibranchedSurface) -> bool:
    return all(not locus_profile(surface, l.id).is_spreadable for l in surface.loci)


def spread_potential(surface: MultibranchedSurface) -> int:
    """Termination measure for maximal spreading.

    phi(normal, k) = k - 3, phi(pure) = 0, phi(unnormal non-pure, k) = 2k - 3.
    Zero exactly on maximally spread surfaces; every XI-move strictly
    decreases it and every IX-move strictly increases it.
    """
    total = 0
    for l in surface.loci:
        k = len(l.slots)
        if l.wrapping == 1:
            total += k - 3
        elif k > 1:
            total += 2 * k - 3
    return total


def _xi_choices(surface: MultibranchedSurface, loci):
    """The XI choices of ``loci``, locus by locus: spreading goes on
    exactly where this offers one."""
    for l in loci:
        yield from enumerate_xi(surface, l.id)


def maximally_spread(surface: MultibranchedSurface, policy: str = "first"):
    """Apply XI-moves until every locus is non-spreadable.

    ``first`` takes the lexicographically least choice (locus id, then
    enumeration order) at each step.  ``exhaustive`` explores all maximal
    spreading sequences and returns the endpoint with the least canonical
    form; :func:`all_maximal_spreadings` exposes the full set.
    Returns ``(surface, MoveRecord)``.  XI-moves are strict-only, so a
    minor-mode surface raises :class:`ModeError`.
    """
    _require_strict(surface)
    if policy == "exhaustive":
        results = all_maximal_spreadings(surface)
        key = lambda pair: canonical_form(pair[0], SymmetryMode.ROTATIONAL).data
        return min(results, key=key)
    if policy != "first":
        raise ValueError(f"unknown policy {policy!r}")

    budget = spread_potential(surface)
    current = surface
    steps = []
    while True:
        by_id = sorted(current.loci, key=lambda l: l.id)
        choice = next(_xi_choices(current, by_id), None)
        if choice is None:
            break
        after = apply_xi(current, choice)
        steps.append(MoveStep.of(choice, current, after))
        current = after
        if len(steps) > budget:  # pragma: no cover - potential argument
            raise TheoremViolationError("spreading exceeded its potential bound")
    return current, MoveRecord(tuple(steps))


def all_maximal_spreadings(surface: MultibranchedSurface):
    """All maximally spread endpoints reachable by XI-moves, one per
    isomorphism class (rotational), each with a witnessing record."""
    _require_strict(surface)
    out = {}
    seen = set()
    stack = [(surface, ())]
    while stack:
        current, steps = stack.pop()
        key = canonical_form(current, SymmetryMode.ROTATIONAL).data
        choices = list(_xi_choices(current, current.loci))
        if not choices:
            if key not in out:
                out[key] = (current, MoveRecord(steps))
            continue
        if key in seen:
            continue
        seen.add(key)
        for choice in choices:
            after = apply_xi(current, choice)
            stack.append((after, steps + (MoveStep.of(choice, current, after),)))
    return list(out.values())


def apply_ih(surface: MultibranchedSurface, site: IXSite) -> MultibranchedSurface:
    """IX along a maximally spread region followed by the XI that does not
    reverse it.

    The merged locus must admit exactly two XI-moves, one of them the
    reversal that the contraction names (the cut where its arcs were
    spliced); failing that aborts loudly since it contradicts an invariant
    of the calculus.  The other choice is applied, so no canonical form is
    computed.
    """
    if not is_maximally_spread_region(surface, site.region_id):
        raise IneligibleMoveError(
            f"region {site.region_id} is not maximally spread")
    merged, reversal = _ix(surface, site)
    choices = enumerate_xi(merged, reversal.locus_id)
    if len(choices) != 2 or reversal not in choices:
        raise TheoremViolationError(
            f"merged locus {reversal.locus_id} admits the XI-moves {choices}, "
            f"expected two, one of them the reversal {reversal}")
    return apply_xi(merged, choices[1 - choices.index(reversal)])


def replay(surface: MultibranchedSurface, record: MoveRecord) -> MultibranchedSurface:
    """Re-apply a recorded move sequence, verifying the surface hash at each step."""
    current = surface
    for i, step in enumerate(record.steps):
        if canonical_hash(current, SymmetryMode.ROTATIONAL) != step.hash_before:
            raise ReplayError(f"hash mismatch before step {i}")
        current = apply_move(current, step.move)
        if canonical_hash(current, SymmetryMode.ROTATIONAL) != step.hash_after:
            raise ReplayError(f"hash mismatch after step {i}")
    return current
