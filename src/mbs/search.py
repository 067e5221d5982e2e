"""Bounded exploration of the move graph.

States are identified by their rotational canonical form (the finest mode
that is stable under the move rules); a found connection is re-verified in
the caller's requested mode before it is returned.  Running out of budget is
an outcome, never a non-equivalence verdict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .algebra import homology_profile
from .errors import TheoremViolationError
from .isomorphism import SymmetryMode, are_isomorphic, canonical_form
from .model import (
    MultibranchedSurface,
    connected_components,
    euler_characteristic,
)
from .moves import (
    MoveDescriptor,
    MoveRecord,
    MoveStep,
    apply_move,
    enumerate_ix,
    enumerate_xi,
    replay,
)


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 4          # moves per search side
    max_states: int = 5000      # distinct states across both sides
    max_cell_count: int = 80    # surfaces larger than this are pruned
    time_limit: float = 10.0    # seconds

    def __post_init__(self):
        if min(self.max_depth, self.max_states, self.max_cell_count) < 1 \
                or not self.time_limit > 0:  # NaN never times out
            raise ValueError("all budget components must be positive")


@dataclass(frozen=True)
class Found:
    record: MoveRecord


@dataclass(frozen=True)
class ExhaustedWithinBudget:
    reason: str = "budget"


@dataclass(frozen=True)
class InvariantMismatch:
    which: str


SearchOutcome = Found | ExhaustedWithinBudget | InvariantMismatch


def neighbors(surface: MultibranchedSurface):
    """All one-move successors: IX results by region id, then XI results by
    (locus id, enumeration order).  Deterministic.  The moves are defined
    on strict surfaces, so a minor-mode surface raises :class:`ModeError`."""
    out: list[tuple[MoveDescriptor, MultibranchedSurface]] = []
    for site in enumerate_ix(surface):
        out.append((site, apply_move(surface, site)))
    for locus in sorted(surface.loci, key=lambda l: l.id):
        for choice in enumerate_xi(surface, locus.id):
            out.append((choice, apply_move(surface, choice)))
    return out


def random_walk(surface: MultibranchedSurface, seed: int, length: int):
    """Uniform random move walk of at most ``length`` steps, deterministic in
    the seed.  A surface without successors ends the walk early.  Returns
    ``(surface, MoveRecord)``; the record replays.  A walk of length at
    least 1 needs a strict surface (see :func:`neighbors`)."""
    rng = random.Random(f"walk/{seed}")
    current = surface
    steps = []
    for _ in range(length):
        options = neighbors(current)
        if not options:
            break
        move, after = options[rng.randrange(len(options))]
        steps.append(MoveStep.of(move, current, after))
        current = after
    return current, MoveRecord(tuple(steps))


class _Side:
    """One frontier of the bidirectional search."""

    def __init__(self, start: MultibranchedSurface):
        key = canonical_form(start, SymmetryMode.ROTATIONAL).data
        self.start = start
        # state key -> (surface, parent key, move from parent)
        self.tree: dict[bytes, tuple] = {key: (start, None, None)}
        self.frontier: list[bytes] = [key]
        self.depth = 0

    def chain(self, key: bytes):
        """Surfaces and moves from the start to ``key``."""
        moves = []
        surfaces = []
        while key is not None:
            surface, parent, move = self.tree[key]
            surfaces.append(surface)
            if move is not None:
                moves.append(move)
            key = parent
        return list(reversed(surfaces)), list(reversed(moves))


def _invert_backward_chain(meet_surface, backward_surfaces, deadline: float):
    """Turn the backward chain (target ... meet) into forward moves from a
    representative of the meet class down to the target class, or None when
    the deadline passes first.

    Every move has a reverse move, so from any surface in the class of
    ``backward_surfaces[i]`` some neighbor lands in the class of
    ``backward_surfaces[i-1]``; the first match in deterministic order is
    taken.
    """
    moves = []
    current = meet_surface
    for i in range(len(backward_surfaces) - 2, -1, -1):
        want = canonical_form(backward_surfaces[i], SymmetryMode.ROTATIONAL).data
        for move, after in neighbors(current):
            if time.monotonic() > deadline:
                return None
            if canonical_form(after, SymmetryMode.ROTATIONAL).data == want:
                moves.append((move, current, after))
                current = after
                break
        else:  # pragma: no cover - move reversibility guarantees a match
            raise TheoremViolationError("backward chain step has no reverse move")
    return moves


def search_equivalence(x: MultibranchedSurface, y: MultibranchedSurface,
                       budget: SearchBudget = SearchBudget(),
                       mode: SymmetryMode = SymmetryMode.MIRROR) -> SearchOutcome:
    """Look for an IX/XI sequence carrying x to a surface isomorphic to y.

    Quick-rejects on Euler characteristic, component count and homology;
    otherwise meets in the middle over rotational canonical hashes.  A found
    sequence is verified by replay before it is returned.  Minor-mode
    surfaces that pass the quick checks raise :class:`ModeError`.
    """
    deadline = time.monotonic() + budget.time_limit
    if euler_characteristic(x) != euler_characteristic(y):
        return InvariantMismatch("euler_characteristic")
    if connected_components(x) != connected_components(y):
        return InvariantMismatch("connected_components")
    if homology_profile(x) != homology_profile(y):
        return InvariantMismatch("homology_profile")
    if canonical_form(x, mode).data == canonical_form(y, mode).data:
        return Found(MoveRecord(()))

    side_x, side_y = _Side(x), _Side(y)
    states = 2
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
        parents, side.frontier = sorted(side.frontier), []
        side.depth += 1
        level = ((parent, move, after) for parent in parents
                 for move, after in neighbors(side.tree[parent][0]))
        for parent, move, after in level:
            if time.monotonic() > deadline:
                return ExhaustedWithinBudget("state or time budget exhausted")
            if after.cell_count > budget.max_cell_count:
                continue
            key = canonical_form(after, SymmetryMode.ROTATIONAL).data
            if key in side.tree:
                continue
            if states >= budget.max_states:
                return ExhaustedWithinBudget("state or time budget exhausted")
            side.tree[key] = (after, parent, move)
            states += 1
            side.frontier.append(key)
            if key in other.tree:
                meet = key
                break

    fwd_surfaces, fwd_moves = side_x.chain(meet)
    bwd_surfaces, _ = side_y.chain(meet)

    inverted = _invert_backward_chain(fwd_surfaces[-1], bwd_surfaces, deadline)
    if inverted is None:
        return ExhaustedWithinBudget("state or time budget exhausted")
    forward = zip(fwd_moves, fwd_surfaces, fwd_surfaces[1:])
    record = MoveRecord(tuple(MoveStep.of(move, before, after)
                              for move, before, after in [*forward, *inverted]))
    endpoint = replay(x, record)
    if are_isomorphic(endpoint, y, mode) is None:  # pragma: no cover
        raise TheoremViolationError("replayed endpoint is not isomorphic to target")
    return Found(record)
