"""Combinatorial data model of multibranched surfaces.

A multibranched surface is stored as a collection of compact surface pieces
("regions") whose boundary circles are attached to circles with branching
("loci").  Each locus carries a wrapping number ``w`` and a cyclically
ordered tuple of slots; the slot order records how the attached sheets sit
around the locus.  The degree of a locus is ``w * len(slots)`` and is never
stored separately.

Each slot additionally carries an orientation sign (+1 or -1): the
longitudinal direction in which the attached boundary circle runs around the
locus, relative to a chosen orientation of the locus.  Freshly built
surfaces use +1 everywhere; the move calculus transports signs so that the
homology of the complex is preserved.  Signs are gauge data: flipping all
signs at one locus, or all signs of one orientable region, describes the
same object (see :mod:`mbs.isomorphism`).

Two validity modes exist.  ``STRICT`` requires every locus to have degree at
least 3 and every region to have boundary; ``MINOR`` relaxes both so that
the reduction calculus can produce degree-1/2 loci and closed regions.
Disk regions are excluded in both modes.

The obstruction screen lives here because it reads only the regions and
loci: a non-orientable closed region, and the gcd of the wrapping numbers,
are the two cheap necessary conditions aligned with the known
non-embeddable families.  It is not a decision procedure for sphere or
3-sphere embeddability.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property

from .errors import UnknownIdError


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _frozen(cls=None, *, uncompared=()):
    """Make ``cls`` an immutable value type over the fields its own body
    annotates, in annotation order; a field's class attribute, if any, is
    its default.

    The class gets ``__init__`` taking the fields positionally or by name
    (and calling ``__post_init__`` last, if the class has one), a
    ``__repr__`` naming each field, ``__eq__`` between instances of the
    same class and ``__hash__`` over the fields, both skipping the names in
    ``uncompared``, ``__match_args__``, and assignment and deletion that
    raise :class:`AttributeError`.  A method the class body defines itself
    is kept.  ``__init__``, ``__eq__`` and ``__hash__`` are compiled from
    one source per class, so each reads its fields directly; an instance
    keeps its fields in ``__dict__``, where ``cached_property`` works too.
    """
    if cls is None:
        return lambda cls: _frozen(cls, uncompared=uncompared)
    names = tuple(cls.__annotations__)
    defaults = [n for n in names if n in cls.__dict__]
    params = ", ".join(f"{n}=_default_{n}" if n in defaults else n for n in names)
    keys = "".join(f"self.{n}, " for n in names if n not in uncompared)
    other = keys.replace("self.", "other.")
    source = (
        f"def __init__(self, {params}):\n"
        f"    self.__dict__.update({', '.join(f'{n}={n}' for n in names)})\n"
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        "        return NotImplemented\n"
        f"    return self is other or ({keys}) == ({other})\n"
        "def __hash__(self):\n"
        f"    return hash(({keys}))\n"
    )
    methods = {f"_default_{n}": cls.__dict__[n] for n in defaults}
    exec(source, methods)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    methods["__repr__"] = __repr__
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name not in cls.__dict__:
            methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, methods[name])
    cls.__match_args__ = names
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


class ValidityMode(Enum):
    STRICT = "strict"
    MINOR = "minor"


class RegionClass(Enum):
    NORMAL_ANNULUS = "normal_annulus"
    QUASI_NORMAL_ANNULUS = "quasi_normal_annulus"
    UNNORMAL_ANNULUS = "unnormal_annulus"
    CLOSING_ANNULUS = "closing_annulus"
    NORMAL_MOEBIUS = "normal_moebius"
    UNNORMAL_MOEBIUS = "unnormal_moebius"
    OTHER = "other"


@_frozen
class RegionTopology:
    """Homeomorphism type of a compact surface piece.

    ``genus`` is the orientable genus when ``orientable`` and the crosscap
    number otherwise (then ``genus >= 1``).
    """

    orientable: bool
    genus: int
    boundary_count: int

    @property
    def euler(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus - self.boundary_count
        return 2 - self.genus - self.boundary_count

    @property
    def is_disk(self) -> bool:
        return self.orientable and self.genus == 0 and self.boundary_count == 1

    @property
    def is_annulus(self) -> bool:
        return self.orientable and self.genus == 0 and self.boundary_count == 2

    @property
    def is_moebius(self) -> bool:
        return (not self.orientable) and self.genus == 1 and self.boundary_count == 1


ANNULUS = RegionTopology(orientable=True, genus=0, boundary_count=2)
MOEBIUS = RegionTopology(orientable=False, genus=1, boundary_count=1)


@_frozen
class Region:
    id: str
    topology: RegionTopology
    boundary_circles: tuple[str, ...]


@_frozen
class BranchLocus:
    """A branch circle with wrapping number and cyclic slot order.

    ``slots[i]`` holds the boundary circle attached at cyclic position
    ``i``; the first entry is an arbitrary basepoint.  ``signs[i]`` is the
    orientation sign of that attachment.  An empty ``signs`` argument means
    all +1.
    """

    id: str
    wrapping: int
    slots: tuple[str, ...]
    signs: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.signs:
            object.__setattr__(self, "signs", (1,) * len(self.slots))

    @property
    def degree(self) -> int:
        return self.wrapping * len(self.slots)

    @property
    def component_count(self) -> int:
        return len(self.slots)


@_frozen
class LocusProfile:
    degree: int
    wrapping: int
    component_count: int
    is_normal: bool
    is_pure: bool
    is_tribranched: bool
    is_spreadable: bool


@_frozen
class MultibranchedSurface:
    """The central immutable value: regions plus loci plus a validity mode.

    Attachment is implicit: a boundary circle occupies the slot that names
    it.  All derived lookups are cached; instances are safe to share.
    """

    regions: tuple[Region, ...]
    loci: tuple[BranchLocus, ...]
    mode: ValidityMode = ValidityMode.STRICT

    @cached_property
    def _hash(self) -> int:
        # the value the field hash would give, computed once per instance
        return hash((self.regions, self.loci, self.mode))

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        # string hashes differ between processes: recompute after unpickling
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @cached_property
    def region_by_id(self) -> dict[str, Region]:
        return {r.id: r for r in self.regions}

    @cached_property
    def locus_by_id(self) -> dict[str, BranchLocus]:
        return {l.id: l for l in self.loci}

    @cached_property
    def circle_to_region(self) -> dict[str, str]:
        out = {}
        for r in self.regions:
            for c in r.boundary_circles:
                out[c] = r.id
        return out

    @cached_property
    def circle_to_slot(self) -> dict[str, tuple[str, int]]:
        """circle id -> (locus id, slot index) for attached circles."""
        out = {}
        for l in self.loci:
            for i, c in enumerate(l.slots):
                out[c] = (l.id, i)
        return out

    @cached_property
    def components(self) -> tuple[tuple[tuple[Region, ...], tuple[BranchLocus, ...]], ...]:
        """The connected components of the region-locus incidence graph.

        Each component is its regions and its loci in presentation order.
        Components come in order of their first region; a locus none of
        whose slots names a region's circle is a component of its own, and
        these follow in presentation order.  Computed once per surface.
        """
        parent = {r.id: r.id for r in self.regions}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        anchors = []  # per locus: the region of its first known circle
        for l in self.loci:
            owners = [self.circle_to_region[c] for c in l.slots
                      if c in self.circle_to_region]
            for other in owners[1:]:
                parent[find(other)] = find(owners[0])
            anchors.append(owners[0] if owners else None)
        parts: dict = {}  # keyed by root region id, or by the lone locus
        for r in self.regions:
            parts.setdefault(find(r.id), ([], []))[0].append(r)
        for l, anchor in zip(self.loci, anchors):
            parts.setdefault(l if anchor is None else find(anchor), ([], []))[1].append(l)
        return tuple((tuple(rs), tuple(ls)) for rs, ls in parts.values())

    @property
    def cell_count(self) -> int:
        """Size measure: regions + loci + total slots."""
        return len(self.regions) + len(self.loci) + sum(len(l.slots) for l in self.loci)

    def region(self, region_id: str) -> Region:
        try:
            return self.region_by_id[region_id]
        except KeyError:
            raise UnknownIdError(f"unknown region {region_id!r}") from None

    def locus(self, locus_id: str) -> BranchLocus:
        try:
            return self.locus_by_id[locus_id]
        except KeyError:
            raise UnknownIdError(f"unknown locus {locus_id!r}") from None

    def in_mode(self, mode: ValidityMode) -> "MultibranchedSurface":
        """Reinterpret the same data under another validity mode."""
        return MultibranchedSurface(self.regions, self.loci, mode)


@_frozen
class ValidationIssue:
    rule: str
    subject: str
    detail: str

    def __str__(self):
        return f"[{self.rule}] {self.subject}: {self.detail}"


def validate(surface: MultibranchedSurface) -> list[ValidationIssue]:
    """Check every model invariant; an empty report means the surface is valid.

    Violations are reported as data rather than raised, including malformed
    references such as dangling circle ids in slots.
    """
    issues = []
    add = lambda rule, subject, detail: issues.append(ValidationIssue(rule, subject, detail))
    strict = surface.mode is ValidityMode.STRICT

    seen_regions = set()
    seen_circles = set()
    for r in surface.regions:
        if r.id in seen_regions:
            add("duplicate-region-id", r.id, "region id used twice")
        seen_regions.add(r.id)
        t = r.topology
        if t.genus < 0:
            add("negative-genus", r.id, f"genus {t.genus}")
        if t.boundary_count < 0:
            add("negative-boundary-count", r.id, f"boundary_count {t.boundary_count}")
        if not t.orientable and t.genus < 1:
            add("nonorientable-genus", r.id, "non-orientable region needs genus >= 1")
        if t.is_disk:
            add("disk-region", r.id, "disk regions are not allowed")
        if t.boundary_count != len(r.boundary_circles):
            add("boundary-count-mismatch", r.id,
                f"boundary_count {t.boundary_count} but {len(r.boundary_circles)} circles listed")
        if strict and t.boundary_count == 0:
            add("closed-region", r.id, "closed regions are only allowed in minor mode")
        for c in r.boundary_circles:
            if c in seen_circles:
                add("duplicate-circle-id", c, "circle id used twice")
            seen_circles.add(c)

    seen_loci = set()
    slot_owner: dict[str, str] = {}
    for l in surface.loci:
        if l.id in seen_loci:
            add("duplicate-locus-id", l.id, "locus id used twice")
        seen_loci.add(l.id)
        if l.wrapping < 1:
            add("wrapping-positive", l.id, f"wrapping {l.wrapping}")
        if len(l.slots) < 1:
            add("empty-locus", l.id, "locus has no slots")
        if len(l.signs) != len(l.slots):
            add("sign-length", l.id, f"{len(l.signs)} signs for {len(l.slots)} slots")
        if any(type(s) is not int or s not in (1, -1) for s in l.signs):
            add("sign-value", l.id, "signs must be +1 or -1")
        if strict and l.degree < 3:
            add("degree-too-small", l.id, f"locus degree {l.degree} < 3")
        local = set()
        for c in l.slots:
            if c in local:
                add("slot-repeat", l.id, f"circle {c} occupies two slots of one locus")
            local.add(c)
            if c in slot_owner:
                add("slot-conflict", c, f"circle attached at both {slot_owner[c]} and {l.id}")
            slot_owner[c] = l.id
            if c not in seen_circles:
                add("dangling-slot", l.id, f"slot references unknown circle {c}")

    if strict:
        for r in surface.regions:
            for c in r.boundary_circles:
                if c not in slot_owner:
                    add("unattached-circle", r.id, f"boundary circle {c} fills no slot")

    return issues


def locus_profile(surface: MultibranchedSurface, locus_id: str) -> LocusProfile:
    """Degree/wrapping arithmetic and the classification predicates of a locus.

    A locus is normal when ``w == 1``, pure when it has a single attached
    component, tribranched when its degree is 3 and spreadable exactly when
    it is neither normal-tribranched nor pure.
    """
    l = surface.locus(locus_id)
    k = l.component_count
    is_normal = l.wrapping == 1
    is_pure = k == 1
    is_tribranched = l.degree == 3
    is_spreadable = not (is_normal and is_tribranched) and not is_pure
    return LocusProfile(
        degree=l.degree,
        wrapping=l.wrapping,
        component_count=k,
        is_normal=is_normal,
        is_pure=is_pure,
        is_tribranched=is_tribranched,
        is_spreadable=is_spreadable,
    )


def classify_region(surface: MultibranchedSurface, region_id: str) -> RegionClass:
    """Classify annulus and Moebius regions by the normality and coincidence
    of the loci their boundary circles attach to.  Everything else is OTHER;
    a closed region is OTHER as well."""
    r = surface.region(region_id)
    t = r.topology
    loci_hit = []
    for c in r.boundary_circles:
        slot = surface.circle_to_slot.get(c)
        if slot is None:
            return RegionClass.OTHER
        loci_hit.append(slot[0])

    if t.is_annulus:
        a, b = loci_hit
        if a == b:
            return RegionClass.CLOSING_ANNULUS
        na = surface.locus(a).wrapping == 1
        nb = surface.locus(b).wrapping == 1
        if na and nb:
            return RegionClass.NORMAL_ANNULUS
        if na or nb:
            return RegionClass.QUASI_NORMAL_ANNULUS
        return RegionClass.UNNORMAL_ANNULUS

    if t.is_moebius:
        (a,) = loci_hit
        if surface.locus(a).wrapping == 1:
            return RegionClass.NORMAL_MOEBIUS
        return RegionClass.UNNORMAL_MOEBIUS

    return RegionClass.OTHER


def euler_characteristic(surface: MultibranchedSurface) -> int:
    """Sum of the regions' Euler characteristics (branch circles contribute 0)."""
    return sum(r.topology.euler for r in surface.regions)


def connected_components(surface: MultibranchedSurface) -> int:
    """Number of connected components of the region-locus incidence graph."""
    return len(surface.components)


@_frozen
class ObstructionFlags:
    has_nonorientable_closed_region: bool
    locus_wrapping_gcd: int


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
