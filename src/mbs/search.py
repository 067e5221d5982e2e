"""Bounded exploration of the move graph.

States are identified by their rotational canonical form (the finest mode
that is stable under the move rules).  The start test reads the rotational
codes of x and y, which the two sides are keyed by.  In MIRROR mode, when
those two codes differ, it reads that of y's mirror image as well, but only
when x and y have one shape (``isomorphism._shape``: the loci's wrappings
and slot counts and the region topologies): the mirror image keeps y's
shape, and a code of another shape cannot equal x's.  A found connection
is replayed, and its endpoint is verified to be rotationally isomorphic to
y, which is stronger than any requested mode, before it is returned.
Running out of budget is an outcome, never a non-equivalence verdict.

Both sides are the trees of one class walk (``moves._grow``), which says
why it stopped.  A state's successors are built for one move per orbit of
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

_REASONS = {"states": "state or time budget exhausted",
            "depth": "depth budget exhausted",
            "space": "state space exhausted within budget"}


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
    ``key`` of y's tree ``side``, down to the class of the tree's root.

    The tree is walked to its root by parent keys.  Each state's stored undo
    is a move of its y-side surface; ``_image`` carries it through one
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


def search_equivalence(x: MultibranchedSurface, y: MultibranchedSurface,
                       budget: SearchBudget = SearchBudget(),
                       mode: SymmetryMode = SymmetryMode.MIRROR) -> SearchOutcome:
    """Look for an IX/XI sequence carrying x to a surface isomorphic to y.

    Quick-rejects on Euler characteristic, component count and homology.
    The empty sequence is found when x and y are isomorphic in ``mode``:
    rotationally, or in MIRROR mode x rotationally isomorphic to the
    mirror image of y, or in DIHEDRAL_PER_LOCUS mode by that mode's
    canonical form.  Otherwise the search meets in the middle over
    rotational canonical-form bytes, and the endpoint of a found sequence
    is verified by replay to be rotationally isomorphic to y.  Minor-mode
    surfaces that pass the quick checks and are isomorphic at the start
    return the empty record; any other such pair raises :class:`ModeError`.
    """
    with _time_limit(budget.time_limit):
        if euler_characteristic(x) != euler_characteristic(y):
            return InvariantMismatch("euler_characteristic")
        if connected_components(x) != connected_components(y):
            return InvariantMismatch("connected_components")
        if homology_profile(x) != homology_profile(y):
            return InvariantMismatch("homology_profile")
        form_x = canonical_form(x, SymmetryMode.ROTATIONAL)
        if form_x == canonical_form(y, SymmetryMode.ROTATIONAL) or (
                mode is SymmetryMode.MIRROR and _shape(x) == _shape(y)
                and form_x == canonical_form(_mirror_image(y), SymmetryMode.ROTATIONAL)) or (
                mode is SymmetryMode.DIHEDRAL_PER_LOCUS
                and canonical_form(x, mode) == canonical_form(y, mode)):
            return Found(MoveRecord(()))
        side_x, side_y = _Side(x), _Side(y)

        def successors(surface, undo):
            # one move per orbit of the symmetries that the parent's labeling
            # found, but none of the undo's: the others give a class that an
            # earlier successor has, and the undo's that of the parent
            return ((move, after, back) for move, after, back in
                    _successors(surface, _orbit_moves(surface, undo))
                    if after.cell_count <= budget.max_cell_count)

        meet, why = _grow((side_x, side_y), successors, budget.max_states, budget.max_depth)
        if meet is None:
            return ExhaustedWithinBudget(_REASONS[why])

        fwd_surfaces, fwd_moves = side_x.chain(meet)
        surfaces, moves = _invert_backward_chain(fwd_surfaces[-1], side_y, meet)
        record = _record(fwd_surfaces + surfaces, fwd_moves + moves)
        endpoint = replay(x, record)
        # y's side keys the rotational class of y, so the endpoint lies in it
        if are_isomorphic(endpoint, y, SymmetryMode.ROTATIONAL) is None:  # pragma: no cover
            raise TheoremViolationError("replayed endpoint is not isomorphic to target")
        return Found(record)
    return ExhaustedWithinBudget(_REASONS["states"])  # out of time
