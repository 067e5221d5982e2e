"""Bounded exploration of the move graph.

States are identified by their rotational canonical form (the finest mode
that is stable under the move rules).  The start test reads the rotational
codes of x and y, which the two sides are keyed by.  In MIRROR and
DIHEDRAL_PER_LOCUS mode, when those two codes differ, it compares the codes
of that mode as well, but only when x and y have one shape
(``isomorphism._shape``: the loci's wrappings and slot counts and the
region topologies): every symmetry of either mode keeps the shape, so
surfaces of unequal shapes have unequal codes.  The MIRROR codes add one
reversed pass to the rotational ones, so they are equal exactly when x is
rotationally isomorphic to y or to y's mirror image.

Past the start test, one walk-and-verify path (:func:`_walk_to`) runs once
per target: a class walk from fresh sides of x and the target, whose found
connection is replayed and its endpoint verified to be rotationally
isomorphic to the target, which is stronger than any requested mode, before
it is returned.  y is the first target.  In MIRROR mode only, when the walk
toward y ends without a meet and y's mirror image lies in another rotational
class, a second walk runs toward the mirror image, so that x's side can meet
either rotational class of y's MIRROR class.  DIHEDRAL_PER_LOCUS searches
walk toward y only, so they meet rotational classes of y only.  Running out
of budget is an outcome, never a non-equivalence verdict.  When every walk
fails, the search ran out of states or time if any walk did, and exhausted
the state space only if every walk's trees closed; otherwise it ran out of
depth.

A walk's two sides are the trees of one ``moves._grow``, which says why it
stopped.  A state's successors are built for one move per orbit of
the symmetries that its cached rotational labeling found, the first move
of each orbit in the move order of the move layer (canonical augmentation
in the sense of McKay's isomorph-free generation).  Any other move of an
orbit gives a surface isomorphic to that of an earlier kept move, whose
key the frontier already holds, so the trees, meets and records are those
of applying every move, as :func:`neighbors` does.  Nor is the orbit of a
state's undo (the move that :func:`moves._apply` names as reversing the
move that made the state) built: it gives the parent's class, which the
tree already holds, and the chain inversion reads it there.  Nothing here
reads the deadline: ``canonical_form`` and ``are_isomorphic`` do.
:func:`random_walk` records the steps of the move layer's ``_walk``, which
``mbs rand --length`` runs without this module.
"""

from __future__ import annotations

from .algebra import homology_profile
from .errors import TheoremViolationError
from .isomorphism import (
    SymmetryMode,
    _mirror_image,
    _shape,
    _time_limit,
    are_isomorphic,
    canonical_form,
)
from .model import (
    MultibranchedSurface,
    _frozen,
    connected_components,
    euler_characteristic,
)
from .moves import (
    MoveRecord,
    SearchBudget,
    _grow,
    _image,
    _moves,
    _orbit_moves,
    _record,
    _Side,
    _successors,
    _walk,
    apply_move,
    replay,
)


@_frozen
class Found:
    record: MoveRecord


@_frozen
class ExhaustedWithinBudget:
    reason: str = "budget"


@_frozen
class InvariantMismatch:
    which: str


SearchOutcome = Found | ExhaustedWithinBudget | InvariantMismatch

# why a walk failed, in rising precedence: a search whose walks all fail
# gives the reason of the highest
_REASONS = {"space": "state space exhausted within budget",
            "depth": "depth budget exhausted",
            "states": "state or time budget exhausted"}


def neighbors(surface: MultibranchedSurface):
    """All one-move successors, in the move order of the move layer (IX
    sites first).  Deterministic.  The moves are defined on strict
    surfaces, so a minor-mode surface raises :class:`ModeError`."""
    return [(move, after) for move, after, _ in _successors(surface, _moves(surface))]


def random_walk(surface: MultibranchedSurface, seed: int, length: int):
    """Uniform random move walk of at most ``length`` steps, deterministic in
    the seed.  A surface without successors ends the walk early.  Returns
    ``(surface, MoveRecord)``; the record replays.  A walk of length at
    least 1 needs a strict surface (see :func:`neighbors`)."""
    steps = list(_walk(surface, seed, length))
    surfaces = [surface, *(after for _, after in steps)]
    return surfaces[-1], _record(surfaces, [move for move, _ in steps])


def _invert_backward_chain(meet_surface, side: _Side, key: bytes):
    """Forward moves from ``meet_surface``, a surface in the class of state
    ``key`` of the target's tree ``side``, down to the class of the tree's
    root.

    The tree is walked to its root by parent keys.  Each state's stored undo
    is a move of its target-side surface; ``_image`` carries it through one
    ROTATIONAL certificate from that surface to the current one, and the
    carried move goes through the checked ``apply_move``.  Returns the
    surfaces after ``meet_surface`` and the moves, as two tuples.
    """
    surfaces, moves = [meet_surface], []
    surface, parent, _, undo = side.tree[key]
    while parent is not None:
        cert = are_isomorphic(surface, surfaces[-1], SymmetryMode.ROTATIONAL)
        if cert is None:  # pragma: no cover - each step keeps the class
            raise TheoremViolationError("backward chain left the class of its surface")
        moves.append(_image(undo, surface, cert.region_map, cert.locus_map,
                            cert.locus_alignment))
        surfaces.append(apply_move(surfaces[-1], moves[-1]))
        surface, parent, _, undo = side.tree[parent]
    return tuple(surfaces[1:]), tuple(moves)


def _walk_to(x: MultibranchedSurface, target: MultibranchedSurface,
             budget: SearchBudget):
    """One class walk from fresh sides of x and ``target``.  Returns
    ``(record, None)`` when they meet, the record's endpoint verified by
    replay to be rotationally isomorphic to ``target``; else ``(None,
    why)``, why :func:`moves._grow` stopped.  Both trees are dropped on
    return."""
    side_x, side_target = _Side(x), _Side(target)

    def successors(surface, undo):
        # one move per orbit of the symmetries that the parent's labeling
        # found, but none of the undo's: the others give a class that an
        # earlier successor has, and the undo's that of the parent
        return ((move, after, back) for move, after, back in
                _successors(surface, _orbit_moves(surface, undo))
                if after.cell_count <= budget.max_cell_count)

    meet, why = _grow((side_x, side_target), successors, budget.max_states, budget.max_depth)
    if meet is None:
        return None, why
    fwd_surfaces, fwd_moves = side_x.chain(meet)
    surfaces, moves = _invert_backward_chain(fwd_surfaces[-1], side_target, meet)
    record = _record(fwd_surfaces + surfaces, fwd_moves + moves)
    # the target's side keys its rotational class, so the endpoint lies in it
    if are_isomorphic(replay(x, record), target, SymmetryMode.ROTATIONAL) is None:  # pragma: no cover
        raise TheoremViolationError("replayed endpoint is not isomorphic to target")
    return record, None


def _targets(y: MultibranchedSurface, mode: SymmetryMode):
    """The surfaces that a search walks toward, in order: y, then in MIRROR
    mode y's mirror image if its rotational class is not y's.  Lazy, so the
    mirror image is built and labelled only after the walk toward y fails."""
    yield y
    if mode is SymmetryMode.MIRROR:
        image, rotational = _mirror_image(y), SymmetryMode.ROTATIONAL
        if canonical_form(image, rotational) != canonical_form(y, rotational):
            yield image


def search_equivalence(x: MultibranchedSurface, y: MultibranchedSurface,
                       budget: SearchBudget = SearchBudget(),
                       mode: SymmetryMode = SymmetryMode.MIRROR) -> SearchOutcome:
    """Look for an IX/XI sequence carrying x to a surface isomorphic to y.

    Quick-rejects on Euler characteristic, component count and homology.
    The empty sequence is found when x and y are isomorphic in ``mode``:
    rotationally, or by the canonical forms of ``mode`` when x and y have
    one shape.  Otherwise the search meets in the middle over rotational
    canonical-form bytes, walking toward y and, in MIRROR mode when that
    walk fails, toward y's mirror image from fresh sides; the endpoint of a
    found sequence is verified by replay to be rotationally isomorphic to
    the target of its walk.  ``budget.time_limit`` covers every walk, and
    ``budget.max_states`` bounds each.  Minor-mode surfaces that pass the
    quick checks and are isomorphic at the start return the empty record;
    any other such pair raises :class:`ModeError`.
    """
    with _time_limit(budget.time_limit):
        # the quick rejects: (which, invariant) rows in the order checked,
        # built at call time from the module's names
        for which, invariant in (("euler_characteristic", euler_characteristic),
                                 ("connected_components", connected_components),
                                 ("homology_profile", homology_profile)):
            if invariant(x) != invariant(y):
                return InvariantMismatch(which)
        rotational = SymmetryMode.ROTATIONAL
        if canonical_form(x, rotational) == canonical_form(y, rotational) or (
                mode is not rotational and _shape(x) == _shape(y)
                and canonical_form(x, mode) == canonical_form(y, mode)):
            return Found(MoveRecord(()))
        whys = []
        for target in _targets(y, mode):
            record, why = _walk_to(x, target, budget)
            if record is not None:
                return Found(record)
            whys.append(why)
        return ExhaustedWithinBudget(_REASONS[max(whys, key=list(_REASONS).index)])
    return ExhaustedWithinBudget(_REASONS["states"])  # out of time
