"""Region removal, region contraction, and the bounded minor order.

Reductions act on minor-mode surfaces.  ``X < Y`` holds when one removal or
one eligible contraction of Y gives X; a minor is the endpoint of a finite
reduction chain up to isomorphism.  Both reductions strictly decrease
``regions + loci``, so the downward reachable set of a surface is finite:
absence of a chain is definitive when that set fits into the budget and a
budget truncation otherwise.

A contraction is the IX-move's splice evaluated with minor-mode degree
rules, and :mod:`mbs.moves` also decides which regions are contractible:
the IX-eligible ones whose contraction leaves the merged locus a slot.

:func:`less_than` (one level) and :func:`is_minor` are one class walk,
``_descend``, whose deadline ``canonical_form`` reads at every reduct.

The obstruction screen computes the two cheap necessary conditions aligned
with the known non-embeddable families (a non-orientable closed region, and
the gcd of the wrapping numbers); it is not a decision procedure for sphere
or 3-sphere embeddability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IneligibleMoveError, ModeError
from .isomorphism import SymmetryMode, _time_limit, canonical_form
from .model import (
    BranchLocus,
    MultibranchedSurface,
    ValidityMode,
    classify_region,
)
from .moves import IX_ELIGIBLE, _grow, _leaves_a_slot, _Side, _splice
from .search import SearchBudget


@dataclass(frozen=True)
class RemoveRegion:
    region_id: str


@dataclass(frozen=True)
class ContractRegion:
    region_id: str


ReductionStep = RemoveRegion | ContractRegion


@dataclass(frozen=True)
class ObstructionFlags:
    has_nonorientable_closed_region: bool
    locus_wrapping_gcd: int


@dataclass(frozen=True)
class MinorOutcome:
    """``sequence`` is the reduction chain when found.  ``complete`` tells
    whether the whole downward set was explored, which makes a missing
    sequence a definitive negative."""

    sequence: tuple[ReductionStep, ...] | None
    complete: bool

    @property
    def found(self) -> bool:
        return self.sequence is not None


def _require_minor(surface: MultibranchedSurface):
    if surface.mode is not ValidityMode.MINOR:
        raise ModeError("reductions are defined on minor-mode surfaces")


def enumerate_reductions(surface: MultibranchedSurface) -> list[ReductionStep]:
    """Every region as a removal plus every contractible region as a
    contraction."""
    _require_minor(surface)
    regions = sorted(surface.regions, key=lambda r: r.id)
    steps: list[ReductionStep] = [RemoveRegion(r.id) for r in regions]
    steps += [ContractRegion(r.id) for r in regions
              if classify_region(surface, r.id) in IX_ELIGIBLE
              and _leaves_a_slot(surface, r)]
    return steps


def remove_region(surface: MultibranchedSurface, region_id: str) -> MultibranchedSurface:
    """Delete a region; its slots are excised from the slot cycles keeping
    the survivors' cyclic order, and loci left without slots disappear."""
    _require_minor(surface)
    r = surface.region(region_id)
    gone = set(r.boundary_circles)
    loci = []
    for l in surface.loci:
        kept = [(c, s) for c, s in zip(l.slots, l.signs) if c not in gone]
        if not kept:
            continue
        slots, signs = zip(*kept)
        loci.append(BranchLocus(l.id, l.wrapping, slots, signs))
    regions = tuple(x for x in surface.regions if x.id != region_id)
    return MultibranchedSurface(regions, tuple(loci), surface.mode)


def contract_region(surface: MultibranchedSurface, region_id: str) -> MultibranchedSurface:
    """Contract a normal annulus, quasi-normal annulus or normal Moebius
    region onto its core circle; identical splice semantics to the IX-move
    evaluated with minor-mode degree rules."""
    _require_minor(surface)
    kind = classify_region(surface, region_id)
    if kind not in IX_ELIGIBLE:
        raise IneligibleMoveError(
            f"region {region_id} is {kind.value}; not contractible")
    return _splice(surface, surface.region(region_id), kind)[0]


def apply_reduction(surface: MultibranchedSurface, step: ReductionStep):
    if isinstance(step, RemoveRegion):
        return remove_region(surface, step.region_id)
    return contract_region(surface, step.region_id)


def _descend(x, y, budget: SearchBudget, mode: SymmetryMode, **limits):
    """The walk of :func:`is_minor` and :func:`less_than` (``moves._grow``):
    the chain or None, and whether neither the state limit nor
    ``budget.time_limit`` cut the walk short."""
    _require_minor(x)
    _require_minor(y)
    size = len(x.regions) + len(x.loci)

    def successors(surface, _):  # a reduction has no undo
        for step in enumerate_reductions(surface):
            after = apply_reduction(surface, step)
            if len(after.regions) + len(after.loci) >= size:  # none grows back
                yield step, after, None

    with _time_limit(budget.time_limit):
        target = canonical_form(x, mode).data
        side = _Side(y, mode)
        key, why = _grow((side,), successors, goal=target, **limits)
        return side.chain(key)[1] if key else None, why != "states"
    return None, False


def less_than(x: MultibranchedSurface, y: MultibranchedSurface,
              budget: SearchBudget = SearchBudget(),
              mode: SymmetryMode = SymmetryMode.MIRROR):
    """Single-step relation: the first reduction of y isomorphic to x, by
    one level of the walk of :func:`is_minor`, or None: also when x and y
    are isomorphic, as the empty chain is no step, and when
    ``budget.time_limit``, the only component read, passes first."""
    return _descend(x, y, budget, mode, max_depth=1)[0] or None


def tilde_equivalent(x: MultibranchedSurface, y: MultibranchedSurface,
                     budget: SearchBudget = SearchBudget(),
                     mode: SymmetryMode = SymmetryMode.MIRROR) -> bool:
    """Equivalence through single steps in both directions.

    Every reduction strictly shrinks ``regions + loci``, so mutually related
    non-isomorphic surfaces cannot exist and the relation is isomorphism of
    minor-mode surfaces.  ``budget`` is accepted for symmetry with
    :func:`less_than` and is not needed.
    """
    _require_minor(x)
    _require_minor(y)
    return canonical_form(x, mode).data == canonical_form(y, mode).data


def is_minor(x: MultibranchedSurface, y: MultibranchedSurface,
             budget: SearchBudget = SearchBudget(),
             mode: SymmetryMode = SymmetryMode.MIRROR) -> MinorOutcome:
    """The class walk down the reduction order from y to a surface
    isomorphic to x.  Reflexive via the empty chain.  Reads
    ``max_states``, the distinct states kept, and ``time_limit`` of
    ``budget``: a negative is complete when the downward set fits."""
    return MinorOutcome(*_descend(x, y, budget, mode, max_states=budget.max_states))


def obstruction_screen(surface: MultibranchedSurface) -> ObstructionFlags:
    """Cheap necessary-condition flags; membership in an embeddable class is
    not decided here."""
    closed_nonor = any(
        (not r.topology.orientable) and r.topology.boundary_count == 0
        for r in surface.regions)
    gcd = 0
    for l in surface.loci:
        gcd = math.gcd(gcd, l.wrapping)
    return ObstructionFlags(closed_nonor, gcd if gcd else 1)
