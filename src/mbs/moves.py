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
many reversals of an IX-move at a spreadable locus.  Every move has an
inverse that can be read off the move itself:

* The inverse of an IX-move is the XI choice that the contraction engine
  ``_splice`` names: the cut of the merged locus where the arcs were
  spliced.  Applied right after the IX, it reproduces the input up to
  rotation of the stored cycles and fresh identifiers; an IH-move applies
  the other choice instead.
* The inverse of an XI-move is the IX-move along the region it creates,
  which takes the id of ``_xi_ids``: a ``NormalSplit`` creates a normal
  annulus, a ``QuasiSplit`` a quasi-normal annulus and a ``MoebiusSplit``
  a normal Moebius band.

One engine applies moves: ``_apply(surface, move)`` applies a move that
the move layer has just offered for that same surface, without checks, and
returns the result with the move that undoes it.  A move derived any other
way (read from a record or a file, or carried through a certificate by
``_image``) goes through the one checked gate, ``_checked``.  ``_record``
alone turns a chain of surfaces and moves into a ``MoveRecord``.

``_image`` is the one statement of how a move changes under a rotational
isomorphism, given as an ``IsoCertificate``'s maps: a certificate's, or
those of a symmetry that the labeling found.  ``_orbit_moves`` walks the
moves of a surface in order, keeps each one not yet seen and closes its
orbit under those symmetries, and drops the orbit of the undo of the move
that made the surface.  ``_grow`` is the one walk over classes, and
the one rule for when it stops: it grows ``_Side`` trees from successors
that ``_successors`` builds lazily, for both searches and both spreading
policies (greedy spreading offers each state its first XI choice only, so
its tree is one chain), and keeps each state's undo beside its move.  Nothing here reads the
deadline: ``canonical_form`` does, for every state that the walk keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import IneligibleMoveError, ModeError, ReplayError, TheoremViolationError
from .isomorphism import SymmetryMode, _canonical, canonical_form, canonical_hash
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


@dataclass(frozen=True)
class MoveRecord:
    steps: tuple[MoveStep, ...]

    def __len__(self):
        return len(self.steps)


def _fresh_ids(prefix: str, taken, count: int) -> list[str]:
    """``count`` ids ``prefix<n>`` numbered on from the largest numeric
    suffix among the ``taken`` ids with that prefix, or from ``10 ** width``,
    above every suffix, where ``int()`` cannot read or write such numbers."""
    n = len(prefix)
    suffixes = [t[n:] for t in taken if t.startswith(prefix) and t[n:].isdecimal()]
    try:
        best = max(map(int, suffixes), default=0)
        return [f"{prefix}{best + i}" for i in range(1, count + 1)]
    except ValueError:  # beyond sys.get_int_max_str_digits()
        width = max(map(len, suffixes))
        return [f"{prefix}1{i:0{width}d}" for i in range(1, count + 1)]


def _arc(locus: BranchLocus, start: int, length: int,
         sign: int = 1) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """``length`` (at most ``k``) consecutive slots of a locus of k slots
    read cyclically from ``start``, and their signs times ``sign``."""
    start %= len(locus.slots)
    slots = (locus.slots[start:] + locus.slots[:start])[:length]
    signs = (locus.signs[start:] + locus.signs[:start])[:length]
    return slots, signs if sign == 1 else tuple(sign * s for s in signs)


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
    """The contraction engine: the IX half of :func:`_apply`, and minor-mode
    contraction.

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


def _xi_ids(surface: MultibranchedSurface) -> tuple[str, ...]:
    """The fresh ids every XI-move of ``surface`` takes: two circles, two
    loci and the region, in that order."""
    return (*_fresh_ids("c", surface.circle_to_region, 2),
            *_fresh_ids("b", surface.locus_by_id, 2),
            *_fresh_ids("r", surface.region_by_id, 1))


def _xi(surface: MultibranchedSurface, choice: XIChoice, ids):
    """:func:`apply_move` without its check, for an XI choice that
    :func:`enumerate_xi` has offered, with the ids of :func:`_xi_ids`.

    Returns the spread surface and the IX site of the region it creates,
    which reverses the move."""
    c_a, c_b, id_a, id_b, region_id = ids
    l = surface.locus(choice.locus_id)
    k = len(l.slots)
    if isinstance(choice, NormalSplit):
        ga, gb = choice.gap_a, choice.gap_b
        high, high_signs = _arc(l, gb + 1, k - (gb - ga))
        low, low_signs = _arc(l, ga + 1, gb - ga, -1)
        region = Region(region_id, ANNULUS, (c_a, c_b))
        kind = RegionClass.NORMAL_ANNULUS
        new_loci = (BranchLocus(id_a, 1, high + (c_a,), high_signs + (1,)),
                    BranchLocus(id_b, 1, low + (c_b,), low_signs + (1,)))
    elif isinstance(choice, QuasiSplit):
        start, length = choice.start, choice.length
        arc, arc_signs = _arc(l, start, length, -1)
        rest, rest_signs = _arc(l, start + length, k - length)
        region = Region(region_id, ANNULUS, (c_a, c_b))
        kind = RegionClass.QUASI_NORMAL_ANNULUS
        new_loci = (BranchLocus(id_a, 1, arc + (c_a,), arc_signs + (1,)),
                    BranchLocus(id_b, l.wrapping, (c_b,) + rest, (1,) + rest_signs))
    else:  # MoebiusSplit: one new circle and one new locus
        slots, signs = _arc(l, choice.cut_gap + 1, k, -1)
        region = Region(region_id, MOEBIUS, (c_a,))
        kind = RegionClass.NORMAL_MOEBIUS
        new_loci = (BranchLocus(id_a, 1, slots + (c_a,), signs + (1,)),)
    return _replace(surface, drop_loci=(l.id,), new_regions=(region,),
                    new_loci=new_loci), IXSite(region_id, kind)


def _apply(surface: MultibranchedSurface, move: MoveDescriptor, ids=None):
    """The move engine: apply ``move``, which the move layer has just offered
    for ``surface``, without checks.  Returns ``(after, undo)``, ``undo``
    being the move of ``after`` that reverses ``move``.  An XI choice takes
    ``ids``, the :func:`_xi_ids` of ``surface``, found here if not given."""
    if isinstance(move, IXSite):
        return _splice(surface, surface.region(move.region_id), move.kind)
    return _xi(surface, move, ids or _xi_ids(surface))


def _checked(surface: MultibranchedSurface, move: MoveDescriptor):
    """:func:`_apply` for a move from outside, once the move layer offers it:
    an IX site whose region is of the site's own eligible kind, or an XI
    choice that :func:`enumerate_xi` lists."""
    _require_strict(surface)
    if isinstance(move, IXSite):
        kind = classify_region(surface, move.region_id)
        if kind is not move.kind or kind not in IX_ELIGIBLE:
            raise IneligibleMoveError(
                f"region {move.region_id} is {kind.value}, not an IX site of kind "
                f"{move.kind.value}")
    elif move not in enumerate_xi(surface, move.locus_id):
        raise IneligibleMoveError(f"{move} is not available")
    return _apply(surface, move)


def apply_move(surface: MultibranchedSurface, move: MoveDescriptor) -> MultibranchedSurface:
    """Apply ``move``, an IX site or an XI choice, if the move layer offers it.

    An IX-move contracts the site's region onto its core circle.  A normal
    annulus merges its two normal loci into one wrapping-1 locus of degree
    ``k1 + k2 - 2``; a quasi-normal annulus splices the normal cycle into
    the unnormal one (degree ``d2 + (d1-2) w``); a normal Moebius band turns
    its locus into a wrapping-2 locus of degree ``2 (d1-1)``.  The merged
    locus is always spreadable.  An XI-move performs the chosen reversal,
    creating a fresh normal annulus (``NormalSplit``), quasi-normal annulus
    (``QuasiSplit``) or normal Moebius region (``MoebiusSplit``).
    ``apply_ix`` and ``apply_xi`` are this function under the names of the
    two move kinds.
    """
    return _checked(surface, move)[0]


apply_ix = apply_xi = apply_move


def _image(move, surface: MultibranchedSurface, region_map, locus_map, alignment):
    """``move`` of ``surface`` under a rotational isomorphism given as the
    maps of an :class:`IsoCertificate` from ``surface``: the image of a
    locus shows slot ``(offset + j) % k`` at slot ``j``, so a slot or gap
    index ``i`` goes to ``(i - offset) % k``, and a gap pair is re-sorted."""
    if isinstance(move, IXSite):
        return IXSite(region_map[move.region_id], move.kind)
    k = len(surface.locus(move.locus_id).slots)
    locus_id, (offset, _) = locus_map[move.locus_id], alignment[move.locus_id]
    if isinstance(move, NormalSplit):
        return NormalSplit(locus_id, *sorted(((move.gap_a - offset) % k,
                                              (move.gap_b - offset) % k)))
    if isinstance(move, QuasiSplit):
        return QuasiSplit(locus_id, (move.start - offset) % k, move.length)
    return MoebiusSplit(locus_id, (move.cut_gap - offset) % k)


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


def _xi_choices(surface: MultibranchedSurface):
    """The XI choices by locus id and enumeration order, in any order of
    ``loci``: spreading goes on exactly where this offers one."""
    for l in sorted(surface.loci, key=lambda l: l.id):
        yield from enumerate_xi(surface, l.id)


def _moves(surface: MultibranchedSurface):
    """Every move of a strict surface in the one order that the search,
    random walks, ``mbs moves list`` and spreading share: IX sites by region
    id, then the XI choices of :func:`_xi_choices`."""
    yield from enumerate_ix(surface)
    yield from _xi_choices(surface)


def _orbit_moves(surface: MultibranchedSurface, undo=None) -> list:
    """The first move, in :func:`_moves` order, of each orbit of the moves
    of ``surface`` under the generators of its cached rotational labeling
    (which fix what they do not list): each move not yet seen is kept and
    its orbit closed breadth-first through :func:`_image`.  Moves of one
    orbit give isomorphic surfaces, so one per orbit reaches every class
    that all moves reach.  The orbit of ``undo``, the undo of the move that
    made ``surface``, is closed first and none of it kept: it reaches only
    the class that move started from (canonical augmentation: McKay,
    "Isomorph-free exhaustive generation", 1998)."""
    moves = list(_moves(surface))
    automorphisms = _canonical(surface, SymmetryMode.ROTATIONAL).automorphisms
    offered, seen, kept = set(moves), set(), []
    firsts = [undo] + moves if undo in offered else moves
    for first in (move for move in firsts if move not in seen):  # reads seen as it grows
        if first != undo:
            kept.append(first)
        seen.add(first)
        orbit = [first]  # read while it grows: breadth-first
        for move in orbit:
            for region_map, locus_map, alignment in automorphisms:
                if (move.region_id not in region_map if isinstance(move, IXSite)
                        else move.locus_id not in locus_map):
                    continue
                image = _image(move, surface, region_map, locus_map, alignment)
                if image not in offered:  # pragma: no cover - an automorphism keeps the moves
                    raise TheoremViolationError(f"a symmetry of the surface does not keep {move}")
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return kept


def _successors(surface: MultibranchedSurface, moves):
    """``(move, after, undo)`` for each of ``moves``, moves of ``surface``,
    built one at a time as they are taken; ``undo`` is the move of
    ``after`` that :func:`_apply` names."""
    ids = None  # every XI successor takes the same fresh ids
    for move in moves:
        if ids is None and not isinstance(move, IXSite):
            ids = _xi_ids(surface)
        yield move, *_apply(surface, move, ids)


class _Side:
    """One tree of the class walk :func:`_grow`: states keyed by canonical
    form in ``mode``, and the frontier, ``depth`` levels below the start."""

    def __init__(self, start: MultibranchedSurface,
                 mode: SymmetryMode = SymmetryMode.ROTATIONAL):
        key = canonical_form(start, mode).data
        self.mode = mode
        # state key -> (surface, parent key, move from parent, its undo)
        self.tree: dict[bytes, tuple] = {key: (start, None, None, None)}
        self.frontier: list[bytes] = [key]
        self.depth = 0

    def chain(self, key: bytes):
        """Surfaces and moves from the start to ``key``, as two tuples."""
        steps = []
        while key is not None:
            surface, key, move, _ = self.tree[key]
            steps.append((surface, move))
        surfaces, moves = zip(*reversed(steps))
        return surfaces, moves[1:]  # the start has no move


def _grow(sides, successors, max_states=math.inf, max_depth=math.inf, goal=None):
    """Grow the live side with the fewest frontier states (the first on a
    tie) by one level, in frontier order, until the walk stops.
    ``successors(surface, undo)``, ``undo`` being that of the move that made
    ``surface`` (None at a start), gives ``(move, after, undo)`` triples,
    and labelling each ``after`` reads the deadline.  Returns ``(key,
    None)`` at a start or new state that is ``goal``, or a new state in
    another side's tree; else ``(None, why)``: ``"states"`` when the trees
    hold more than ``max_states`` states, ``"depth"`` when every frontier
    left is ``max_depth`` levels deep, and ``"space"`` when every frontier
    is empty."""
    if any(goal in side.tree for side in sides):
        return goal, None
    while True:
        live = [s for s in sides if s.frontier and s.depth < max_depth]
        if not live:
            return None, "depth" if any(s.frontier for s in sides) else "space"
        side = min(live, key=lambda s: len(s.frontier))
        parents, side.frontier = side.frontier, []
        side.depth += 1
        for parent in parents:
            surface, _, _, undo = side.tree[parent]
            for move, after, back in successors(surface, undo):
                key = canonical_form(after, side.mode).data
                if key in side.tree:
                    continue
                side.tree[key] = (after, parent, move, back)
                side.frontier.append(key)
                if sum(len(s.tree) for s in sides) > max_states:
                    return None, "states"
                if key == goal or any(key in s.tree for s in sides if s is not side):
                    return key, None


def maximally_spread(surface: MultibranchedSurface, policy: str = "first"):
    """Apply XI-moves until every locus is non-spreadable.

    The policy picks the successor rule of one walk, :func:`_spreadings`.
    ``first`` offers only the lexicographically least choice (locus id,
    then enumeration order), so its walk is one chain.  ``exhaustive``
    offers every choice and returns the endpoint with the least canonical
    form, the first of :func:`all_maximal_spreadings`.
    Returns ``(surface, MoveRecord)``; a maximally spread input comes back
    with an empty record and unlabelled.  XI-moves are strict-only, so a
    minor-mode surface raises :class:`ModeError`.
    """
    _require_strict(surface)
    rules = {"first": lambda s: itertools.islice(_xi_choices(s), 1),
             "exhaustive": _xi_choices}
    if policy not in rules:
        raise ValueError(f"unknown policy {policy!r}")
    if is_maximally_spread_surface(surface):
        return surface, MoveRecord(())
    surfaces, moves = _spreadings(surface, rules[policy])[0]
    if len(moves) > spread_potential(surface):  # pragma: no cover - potential argument
        raise TheoremViolationError("spreading exceeded its potential bound")
    return surfaces[-1], _record(surfaces, moves)


def _spreadings(surface: MultibranchedSurface, choices):
    """The chains ``(surfaces, moves)`` from ``surface`` to each maximally
    spread class that the XI choices ``choices(s)`` of each state ``s``
    reach, one chain per rotational class, in ascending canonical order:
    the walk of a :class:`_Side` until its frontier empties.  The caller
    checks the mode."""
    side = _Side(surface)
    # an XI-move's undo is an IX-move, which spreading never offers
    _grow((side,), lambda s, _: _successors(s, choices(s)))
    return [side.chain(key) for key in sorted(side.tree)
            if is_maximally_spread_surface(side.tree[key][0])]


def all_maximal_spreadings(surface: MultibranchedSurface):
    """All maximally spread endpoints reachable by XI-moves, one per
    rotational class in ascending canonical order, each with its record."""
    _require_strict(surface)
    return [(surfaces[-1], _record(surfaces, moves))
            for surfaces, moves in _spreadings(surface, _xi_choices)]


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
    merged, reversal = _checked(surface, site)
    choices = enumerate_xi(merged, reversal.locus_id)
    if len(choices) != 2 or reversal not in choices:
        raise TheoremViolationError(
            f"merged locus {reversal.locus_id} admits the XI-moves {choices}, "
            f"expected two, one of them the reversal {reversal}")
    return _apply(merged, choices[1 - choices.index(reversal)])[0]


def _record(surfaces, moves) -> MoveRecord:
    """The record of ``moves[i]`` carrying ``surfaces[i]`` to ``surfaces[i + 1]``;
    each surface is hashed once, and none for an empty chain."""
    hashes = [canonical_hash(s, SymmetryMode.ROTATIONAL) for s in surfaces] if moves else []
    return MoveRecord(tuple(map(MoveStep, moves, hashes, hashes[1:])))


def replay(surface: MultibranchedSurface, record: MoveRecord) -> MultibranchedSurface:
    """Re-apply a recorded move sequence, verifying the surface hash at each step."""
    current = surface
    hashed = canonical_hash(surface, SymmetryMode.ROTATIONAL) if record.steps else None
    for i, step in enumerate(record.steps):
        if hashed != step.hash_before:
            raise ReplayError(f"hash mismatch before step {i}")
        current = apply_move(current, step.move)
        hashed = canonical_hash(current, SymmetryMode.ROTATIONAL)
        if hashed != step.hash_after:
            raise ReplayError(f"hash mismatch after step {i}")
    return current
