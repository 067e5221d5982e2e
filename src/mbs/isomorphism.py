"""Canonical forms and isomorphism testing under configurable symmetry modes.

Two surfaces are isomorphic when regions, loci and circles can be matched so
that topologies, wrapping numbers and the cyclic slot structure agree.  The
mode controls the cycle symmetries:

* ROTATIONAL: per-locus rotations of the slot cycles only.
* MIRROR: rotations plus one global simultaneous reversal of all cycles.
* DIHEDRAL_PER_LOCUS: independent per-locus reversals (diagnostic).

Orientation signs are compared up to gauge: flipping all signs at one locus,
all signs of one orientable region, or the sign of any single boundary
circle of a non-orientable region describes the same object.  Only the
gauge class (the holonomy around incidence cycles) is structural, and the
canonical encoding fixes the gauge deterministically while encoding.

Each connected component is labelled on its own.  A component's code is
its locus and region counts, one block per locus and a region table, and it
is the lexicographically least such encoding over locus orderings,
rotations, permitted reversals and gauge choices; loci are taken in order of
(wrapping, slot count), so all sibling blocks at one search level have the
same length, and the search expands only the children whose block is least
(prefix pruning in the sense of McKay and Piperno's canonical labelling).
A block's first step always has sign bit 0, so a child whose first region
number exceeds that of the least block so far is dropped before its block
is read; the others stop reading at the first step that exceeds it.  A
locus's sign potential is forced by the first orientable region of its
block that is already numbered, and at a component's root the gauge flip of
the component makes one potential enough.  These cuts are exact: they give
the same labeling as expanding every child.  A component without loci is a
single region, and its code is (0, 1) and that region's table row.  The
surface's code is the validity-mode flag followed by the sorted component
codes, so equal bytes in one mode hold exactly for isomorphic surfaces, and
identical components never multiply the search.  The MIRROR labeling is
the lesser of the rotational labeling and one reversed pass, in which every
component reads backwards: the reversal is global, never chosen per
component.  The reversed pass reads the code of the rotational pass of the
mirror image (``_mirror_image``), so a surface is MIRROR-isomorphic to y
exactly when it is rotationally isomorphic to y or to y's mirror image.

The labeling that realises the least encoding records, per locus, where the
encoding starts reading its cycle, in which direction, and the sign
potential it gave the locus, and per orientable region its sign potential.
An isomorphism certificate is one labeling composed with the inverse of the
other (as in nauty-style canonical labeling): two labelings with equal codes
are paired entry by entry, which gives the locus and circle bijections and
the cycle alignments, and the flips are where the two potentials (or, for a
circle of a non-orientable region, the two literal signs) differ.

The same pairing of two leaves of one search with equal codes is a symmetry
of the surface (McKay and Piperno find automorphisms the same way), and
the labeling keeps it in the certificate's shape: a region map, a locus map
and a cycle alignment, each locus aligned by the difference of the two
starts.  It keeps these as generators when they move something and reverse
no locus.  The search prunes by them as it goes (automorphism pruning in
the sense of McKay and Piperno, "Practical graph isomorphism, II", 2014): a
symmetry found so far that fixes a node's chosen loci and numbered regions,
and their potentials up to the component's gauge flip, maps each child
``(locus, rotation)`` to ``(image locus, rotation - offset)`` and the
child's subtree onto the image's, leaf code for leaf code, so a child in
the orbit of an expanded sibling is not expanded.  The first least leaf
never lies in such a subtree, so the labeling is the one that expanding
every child gives.  The generators generate a subgroup of the rotational
automorphisms, since the pruned subtrees hold leaves that are never met;
the search uses them to apply one move per orbit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from enum import Enum
from functools import cached_property, lru_cache

from .errors import MbsError, UnknownIdError
from .model import BranchLocus, MultibranchedSurface, Region, _frozen

FORMAT_PREFIX = b"mbscf2"

# the deadline of the bounded search running in this context, so that a
# search in one thread never interrupts a labelling in another
_DEADLINE: ContextVar[float] = ContextVar("mbs_deadline", default=float("inf"))


class _OutOfTime(Exception):
    """The time limit of the enclosing bounded search has passed."""


def _check_clock():
    if time.monotonic() > _DEADLINE.get():
        raise _OutOfTime


@contextmanager
def _time_limit(seconds: float):
    """Bound the block by ``seconds``: a clock check past the deadline ends
    the block.  :func:`canonical_form` and :func:`are_isomorphic` check on
    entry, also for a cached labelling, as do each node of a labelling's
    search and each block of ``homology_profile``; no caller checks itself.
    lru_cache does not cache a raised call, so no partial labelling is kept."""
    token = _DEADLINE.set(time.monotonic() + seconds)
    try:
        yield
    except _OutOfTime:
        pass
    finally:
        _DEADLINE.reset(token)


class SymmetryMode(Enum):
    ROTATIONAL = "rotational"
    MIRROR = "mirror"
    DIHEDRAL_PER_LOCUS = "dihedral"


@_frozen
class CanonicalForm:
    mode: SymmetryMode
    data: bytes


@_frozen(uncompared=("automorphisms",))
class _Labeling:
    """The labeling that realises the canonical code.

    ``locus_seq`` lists the loci in code order, each with the slot its block
    starts at, the direction the block reads in and the locus potential.
    ``region_number`` numbers every region, a component's regions after
    those of the components before it in code order (the code itself numbers
    regions within their component); ``p_region`` holds the potential
    of each orientable region with an attached circle.  The emitted slot of
    step ``s`` of a locus is ``(rotation + direction * s) % k``; its code
    sign bit is 0 exactly when ``p_locus * sign * p_region`` is 1.

    ``automorphisms`` holds the symmetries that tied leaves gave (see the
    module docstring), which take no part in comparing labelings; the
    search that found them also pruned by them, so it meets fewer ties
    than expanding every child would.  A
    generator ``(region_map, locus_map, locus_alignment)`` reads as the
    maps of a ROTATIONAL :class:`IsoCertificate` from the surface to
    itself, but lists only the regions and loci it moves; every other one
    stays fixed.
    """

    code: tuple[int, ...]
    locus_seq: tuple[tuple[str, int, int, int], ...]  # (id, rotation, direction, p_locus)
    region_number: dict
    p_region: dict
    automorphisms: tuple[tuple[dict, dict, dict], ...] = ()

    @cached_property
    def body(self) -> bytes:
        """The code as canonical-form bytes, built once per labeling."""
        return " ".join(map(str, self.code)).encode("ascii")


def _search_canonical(surface: MultibranchedSurface, directions: tuple[int, ...]) -> _Labeling:
    """The least labeling of one pass: every locus reads in one of
    ``directions`` (1 forward, -1 reversed)."""
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
    automorphisms = {}  # key -> (region_map, locus_map, alignment)

    def pair_leaves(leaf_a, leaf_b):
        """The symmetry that pairs two leaves ``(chosen, region_number,
        p_region)`` with equal codes position by position, and the
        orientable regions whose potentials it flips; None when it is the
        identity, reverses a locus or is already known."""
        (seq_a, numbers_a, p_a), (seq_b, numbers_b, p_b) = leaf_a, leaf_b
        locus_map, alignment = {}, {}
        for (a, rot_a, dir_a, _), (b, rot_b, dir_b, _) in zip(seq_a, seq_b):
            if dir_a != dir_b:
                return None
            offset = (rot_a - rot_b) % len(surface.locus_by_id[a].slots)
            if a != b or offset:
                locus_map[a], alignment[a] = b, (offset, False)
        region_of = {n: rid for rid, n in numbers_b.items()}
        region_map = {r: region_of[n] for r, n in numbers_a.items() if region_of[n] != r}
        generator = (region_map, locus_map, alignment)
        key = tuple(tuple(m.items()) for m in generator)
        if not (alignment or region_map) or key in automorphisms:
            return None
        automorphisms[key] = generator
        return generator, frozenset(r for r, p in p_a.items()
                                    if p != p_b[region_of[numbers_a[r]]])

    # per locus and direction, its slots' regions, signs and whether the
    # region is orientable, in reading order and twice round, so that a
    # block's steps are one slice
    rings = {}
    for l in surface.loci:
        ring = [(circle_region[c], eta, orientable[circle_region[c]])
                for c, eta in zip(l.slots, l.signs)]
        rings[l.id, 1], rings[l.id, -1] = ring * 2, ring[::-1] * 2

    def block_of(wrapping, steps, region_number, p_region, least):
        """The block of a locus of ``wrapping`` read in ``steps``, the locus
        potentials that can emit it, and the regions it numbers; None as
        soon as the block exceeds ``least``, the least sibling block."""
        block = [wrapping, len(steps)]
        at = 2  # the position of the next step in the block
        fresh = {}          # region -> (number, sign at its first slot)
        numbered = len(region_number)
        p_forced = 0
        for rid, eta, is_orientable in steps:
            sign_bit = 0
            number = region_number.get(rid)
            if number is not None:
                if is_orientable:
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
                if is_orientable and eta != first:
                    sign_bit = 1
            else:
                number = numbered + len(fresh)
                fresh[rid] = (number, eta)
            if least is not None:
                # compare with the least block as far as they agree
                if number != least[at]:
                    if number > least[at]:
                        return None, None, None
                    least = None
                elif sign_bit != least[at + 1]:
                    if sign_bit:
                        return None, None, None
                    least = None
            block += (number, sign_bit)
            at += 2
        return tuple(block), (p_forced,) if p_forced else (1, -1), fresh

    def label_component(regions, loci):
        """The least code of one connected component, with the locus
        sequence, region numbers and potentials that realise it."""
        if not loci:
            (region,) = regions
            return (0, 1) + table_row[region.id], (), {region.id: 0}, {}
        best = None
        symmetries = []  # (generator, flipped regions) found in this component

        def fixes(symmetry, chosen, region_number, p_region):
            """The symmetry fixes the node: its chosen loci, the numbered
            regions and, up to the component's gauge flip, their potentials
            (one that flips some of them and not others maps the node to
            another node)."""
            (region_map, locus_map, _), flipped = symmetry
            return (region_map.keys().isdisjoint(region_number)
                    and not any(locus_id in locus_map for locus_id, *_ in chosen)
                    and len(flipped.intersection(p_region)) in (0, len(p_region)))

        def close(covered, stabilizer, k):
            """Add to ``covered`` the images of its children, (locus id,
            rotation, direction), under ``stabilizer`` until none is new."""
            orbit = list(covered)  # read while it grows
            for locus_id, rot, direction in orbit:
                for (_, locus_map, alignment), _ in stabilizer:
                    if locus_id in locus_map:
                        image = (locus_map[locus_id],
                                 (rot - alignment[locus_id][0]) % k, direction)
                        if image not in covered:
                            covered.add(image)
                            orbit.append(image)

        def rec(remaining, code, chosen, region_number, p_region):
            nonlocal best
            _check_clock()
            if not remaining:
                # region_number lists the regions in number order
                full = code + tuple(x for rid in region_number for x in table_row[rid])
                leaf = (tuple(chosen), region_number, p_region)
                if best is None or full < best[0]:
                    best = (full, *leaf)
                elif full == best[0]:
                    symmetry = pair_leaves(best[1:], leaf)
                    if symmetry:
                        symmetries.append(symmetry)
                return
            # remaining keeps the (wrapping, k, id) order, so every
            # candidate has one (wrapping, k) and every child block the
            # same length; a child whose block exceeds a sibling's cannot
            # lead to the least code: expand only the least blocks
            head = remaining[0]
            k = len(head.slots)
            candidates = [l for l in remaining if l.wrapping == head.wrapping and len(l.slots) == k]
            least, children = None, []
            if best is not None and code == best[0][:len(code)]:
                # a block above the best code's next one cannot lead to it
                least = best[0][len(code):len(code) + 2 + 2 * k]
            numbered = len(region_number)
            for locus in candidates:
                for direction in directions:
                    ring = rings[locus.id, direction]
                    for rot in range(k):
                        # the step that reads slot rot, in the ring's order
                        start = rot if direction == 1 else k - 1 - rot
                        # the first step's sign bit is 0, so its region
                        # number alone can exceed the least block
                        if least is not None and \
                                region_number.get(ring[start][0], numbered) > least[2]:
                            continue
                        block, potentials, fresh = block_of(
                            locus.wrapping, ring[start:start + k], region_number, p_region, least)
                        if block is None:
                            continue
                        if least is None or block < least:
                            least, children = block, []
                        children.append((locus, rot, direction, potentials, fresh))
            if not children:
                return
            # no child needs the best code's bound again: least is at most
            # its next block, and a better leaf found below shares new_code
            new_code = code + least
            # a symmetry found so far that fixes this node maps the subtree
            # of an expanded child onto that of the child's image, leaf code
            # for leaf code, so the image is not expanded: the first least
            # leaf never lies in its subtree, as its preimage comes first
            # (automorphism pruning: McKay and Piperno, 2014)
            several = len(children) > 1
            stabilizer, read, covered = [], 0, set()
            # children that number the same regions with the same new
            # potentials lead to isomorphic subtrees: the encoding never
            # distinguishes circles beyond their region, so the consumed loci
            # are then interchangeable
            tried = set()
            for locus, rot, direction, potentials, fresh in children:
                child = (locus.id, rot, direction)
                if child in covered:
                    continue
                ids = tuple(fresh)
                for p_locus in potentials:
                    deltas = tuple(p_locus * eta for rid, (_, eta) in fresh.items()
                                   if orientable[rid])
                    if (ids, deltas) in tried:
                        continue
                    tried.add((ids, deltas))
                    if not p_region:
                        # no potential is fixed yet (as at the root): the
                        # image of p_locus under the component's gauge flip
                        # reaches the same codes, so neither it nor its
                        # twins are expanded
                        tried.add((ids, tuple(-d for d in deltas)))
                    new_numbers = dict(region_number)
                    new_p = dict(p_region)
                    for rid, (number, eta) in fresh.items():
                        new_numbers[rid] = number
                        if orientable[rid]:
                            new_p[rid] = p_locus * eta
                    rec([l for l in remaining if l is not locus], new_code,
                        chosen + [(locus.id, rot, direction, p_locus)],
                        new_numbers, new_p)
                if several:  # symmetries turn up below expanded children only
                    stabilizer += [symmetry for symmetry in symmetries[read:]
                                   if fixes(symmetry, chosen, region_number, p_region)]
                    read = len(symmetries)
                    covered.add(child)
                    close(covered, stabilizer, k)

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


@lru_cache(maxsize=8192)
def _canonical(surface: MultibranchedSurface, mode: SymmetryMode) -> _Labeling:
    if mode is SymmetryMode.ROTATIONAL:
        return _search_canonical(surface, (1,))
    if mode is SymmetryMode.DIHEDRAL_PER_LOCUS:
        return _search_canonical(surface, (1, -1))
    # one reversal for the whole surface: every component of the reversed
    # pass reads backwards, and a tie keeps the rotational labeling
    return min(_canonical(surface, SymmetryMode.ROTATIONAL),
               _search_canonical(surface, (-1,)), key=lambda labeling: labeling.code)


def _mirror_image(surface: MultibranchedSurface) -> MultibranchedSurface:
    """``surface`` with every slot cycle, and its signs, read backwards."""
    loci = tuple(BranchLocus(l.id, l.wrapping, l.slots[::-1], l.signs[::-1])
                 for l in surface.loci)
    return MultibranchedSurface(surface.regions, loci, surface.mode)


def _shape(surface: MultibranchedSurface):
    """The sorted (wrapping, slot count) pairs of the loci and the sorted
    region topologies.  Every rotational isomorphism keeps them, and so
    does the mirror image, so surfaces of unequal shapes have unequal
    rotational codes."""
    return (sorted((l.wrapping, len(l.slots)) for l in surface.loci),
            sorted((r.topology.orientable, r.topology.genus, r.topology.boundary_count)
                   for r in surface.regions))


def canonical_form(surface: MultibranchedSurface, mode: SymmetryMode) -> CanonicalForm:
    """Deterministic, symmetry-invariant byte encoding; equal bytes in one
    mode hold exactly for isomorphic surfaces."""
    _check_clock()
    body = _canonical(surface, mode).body
    return CanonicalForm(mode, FORMAT_PREFIX + b"/" + mode.value.encode() + b":" + body)


def canonical_hash(surface: MultibranchedSurface, mode: SymmetryMode) -> int:
    """64-bit hash of the canonical form bytes.  Collisions are possible;
    equality of surfaces is decided on the bytes."""
    # hashlib.blake2b is CPython's own _blake2.blake2b, but importing
    # hashlib also loads OpenSSL; here, only hashing commands load _blake2
    from _blake2 import blake2b

    digest = blake2b(canonical_form(surface, mode).data, digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@_frozen
class IsoCertificate:
    """An explicit isomorphism: id bijections, per-locus cycle alignment
    ``(offset, reversed)`` meaning ``Y.slots[j] = circles[X.slots[(offset +/- j) % k]]``,
    and the sign gauge relating the two surfaces."""

    mode: SymmetryMode
    region_map: dict
    locus_map: dict
    circle_map: dict
    locus_alignment: dict  # X locus id -> (offset, reversed: bool)
    region_flips: frozenset
    locus_flips: frozenset
    circle_flips: frozenset  # circles of non-orientable regions flipped individually

    def apply(self, surface: MultibranchedSurface) -> MultibranchedSurface:
        """Image of ``surface`` under the certificate.  Slot cycles come out
        aligned with the target's stored basepoints; region boundary lists
        keep the source order (the order is not structural)."""
        regions = tuple(
            Region(self.region_map[r.id], r.topology,
                   tuple(self.circle_map[c] for c in r.boundary_circles))
            for r in surface.regions
        )
        loci = []
        for l in surface.loci:
            k = len(l.slots)
            offset, rev = self.locus_alignment[l.id]
            step = -1 if rev else 1
            p_l = -1 if l.id in self.locus_flips else 1
            slots = []
            signs = []
            for j in range(k):
                i = (offset + step * j) % k
                c = l.slots[i]
                rid = surface.circle_to_region[c]
                if surface.region_by_id[rid].topology.orientable:
                    p = p_l * (-1 if rid in self.region_flips else 1)
                else:
                    p = -1 if c in self.circle_flips else 1
                slots.append(self.circle_map[c])
                signs.append(l.signs[i] * p)
            loci.append(BranchLocus(self.locus_map[l.id], l.wrapping,
                                    tuple(slots), tuple(signs)))
        return MultibranchedSurface(regions, tuple(loci), surface.mode)

    def verify(self, x: MultibranchedSurface, y: MultibranchedSurface) -> bool:
        """Check that applying the certificate to x yields y (regions up to
        boundary-list order, loci literally)."""
        try:
            image = self.apply(x)
        except KeyError:
            return False
        if image.mode is not y.mode:
            return False
        want_regions = {(r.id, r.topology, frozenset(r.boundary_circles))
                        for r in y.regions}
        got_regions = {(r.id, r.topology, frozenset(r.boundary_circles))
                       for r in image.regions}
        if want_regions != got_regions or len(image.regions) != len(y.regions):
            return False
        want_loci = {(l.id, l.wrapping, l.slots, l.signs) for l in y.loci}
        got_loci = {(l.id, l.wrapping, l.slots, l.signs) for l in image.loci}
        if want_loci != got_loci or len(image.loci) != len(y.loci):
            return False
        if self.mode is SymmetryMode.ROTATIONAL:
            if any(rev for _, rev in self.locus_alignment.values()):
                return False
        if self.mode is SymmetryMode.MIRROR:
            revs = {rev for _, rev in self.locus_alignment.values()}
            if len(revs) > 1:
                return False
        return True


def are_isomorphic(x: MultibranchedSurface, y: MultibranchedSurface,
                   mode: SymmetryMode = SymmetryMode.MIRROR):
    """Return a verified IsoCertificate, or None when the canonical forms differ.

    The certificate pairs the two canonical labellings entry by entry: a
    locus of x read from slot ``rx`` in direction ``dx`` matches the locus
    of y read from ``ry`` in direction ``dy``, step for step.
    """
    _check_clock()
    lx = _canonical(x, mode)
    ly = _canonical(y, mode)
    if lx.code != ly.code:
        return None

    inv_y = {n: rid for rid, n in ly.region_number.items()}
    region_map = {rid: inv_y[n] for rid, n in lx.region_number.items()}
    region_flips = frozenset(rid for rid, p in lx.p_region.items()
                             if p != ly.p_region[region_map[rid]])

    locus_map, alignment, circle_map = {}, {}, {}
    locus_flips, circle_flips = set(), set()
    for (xl, rx, dx, px), (yl, ry, dy, py) in zip(lx.locus_seq, ly.locus_seq):
        xs, ys = x.locus(xl), y.locus(yl)
        k = len(xs.slots)
        locus_map[xl] = yl
        # y slot j shows x slot (offset +/- j) % k
        alignment[xl] = ((rx - dx * dy * ry) % k, dx != dy)
        if px != py:
            locus_flips.add(xl)
        for step in range(k):
            i, j = (rx + dx * step) % k, (ry + dy * step) % k
            c = xs.slots[i]
            circle_map[c] = ys.slots[j]
            region = x.region_by_id[x.circle_to_region[c]]
            if not region.topology.orientable and xs.signs[i] != ys.signs[j]:
                circle_flips.add(c)

    for rid, target in region_map.items():
        xr = x.region_by_id[rid]
        yr = y.region_by_id[target]
        x_rest = sorted(c for c in xr.boundary_circles if c not in circle_map)
        y_rest = sorted(set(yr.boundary_circles)
                        - {circle_map[c] for c in xr.boundary_circles
                           if c in circle_map})
        for cx, cy in zip(x_rest, y_rest):
            circle_map[cx] = cy

    cert = IsoCertificate(
        mode=mode,
        region_map=region_map,
        locus_map=locus_map,
        circle_map=circle_map,
        locus_alignment=alignment,
        region_flips=region_flips,
        locus_flips=frozenset(locus_flips),
        circle_flips=frozenset(circle_flips),
    )
    if not cert.verify(x, y):  # pragma: no cover - construction should verify
        raise AssertionError("constructed certificate failed verification")
    return cert
