"""Shared test utilities."""

import random

from mbs import BranchLocus, MultibranchedSurface, Region


def scramble(surface: MultibranchedSurface, seed: int,
             rotate=True, gauge=True) -> MultibranchedSurface:
    """A presentation-level symmetry: relabel everything, permute list
    orders, rotate slot basepoints and (optionally) apply sign gauge moves.
    The result is always isomorphic to the input in rotational mode."""
    rng = random.Random(f"scramble/{seed}")
    regions = list(surface.regions)
    rng.shuffle(regions)
    rmap = {r.id: f"R{i}" for i, r in enumerate(regions)}
    circles = sorted(surface.circle_to_region)
    shuffled = list(circles)
    rng.shuffle(shuffled)
    cmap = dict(zip(circles, shuffled))

    region_flip = {r.id: gauge and r.topology.orientable and rng.random() < 0.5
                   for r in surface.regions}
    locus_flip = {l.id: gauge and rng.random() < 0.5 for l in surface.loci}

    new_regions = []
    for r in regions:
        boundary = list(r.boundary_circles)
        rng.shuffle(boundary)
        new_regions.append(Region(rmap[r.id], r.topology,
                                  tuple(cmap[c] for c in boundary)))

    loci = list(surface.loci)
    rng.shuffle(loci)
    new_loci = []
    for i, l in enumerate(loci):
        k = len(l.slots)
        rot = rng.randrange(k) if rotate else 0
        order = [(rot + j) % k for j in range(k)]
        slots = []
        signs = []
        for j in order:
            c = l.slots[j]
            s = l.signs[j]
            rid = surface.circle_to_region[c]
            if surface.region_by_id[rid].topology.orientable:
                if region_flip[rid]:
                    s = -s
            elif gauge and rng.random() < 0.5:
                s = -s
            if locus_flip[l.id]:
                s = -s
            slots.append(cmap[c])
            signs.append(s)
        new_loci.append(BranchLocus(f"L{i}", l.wrapping, tuple(slots), tuple(signs)))
    return MultibranchedSurface(tuple(new_regions), tuple(new_loci), surface.mode)


def mirror_image(surface: MultibranchedSurface) -> MultibranchedSurface:
    """Reverse every slot cycle simultaneously, each sign moving with its
    slot (no sign changes value)."""
    loci = tuple(BranchLocus(l.id, l.wrapping, l.slots[::-1], l.signs[::-1])
                 for l in surface.loci)
    return MultibranchedSurface(surface.regions, loci, surface.mode)


def join(x: MultibranchedSurface, y: MultibranchedSurface,
         prefix: str) -> MultibranchedSurface:
    """The disjoint union of ``x``, its ids kept, and ``y``, its ids
    prefixed by ``prefix``."""
    regions = tuple(Region(prefix + r.id, r.topology,
                           tuple(prefix + c for c in r.boundary_circles))
                    for r in y.regions)
    loci = tuple(BranchLocus(prefix + l.id, l.wrapping,
                             tuple(prefix + c for c in l.slots), l.signs)
                 for l in y.loci)
    return MultibranchedSurface(x.regions + regions, x.loci + loci, x.mode)


def is_automorphism(surface: MultibranchedSurface, generator) -> bool:
    """Whether a generator ``(region_map, locus_map, alignment)`` of a
    labelling, which lists only what it moves, is a rotational symmetry of
    ``surface`` up to sign gauge: slot ``j`` of a locus's image shows the
    image of slot ``offset + j``, regions keep their topology, and the sign
    ratios of the matched slots are a gauge (a flip per locus times a flip
    per orientable region; any sign at a non-orientable region)."""
    region_map, locus_map, alignment = generator
    regions = {r.id: region_map.get(r.id, r.id) for r in surface.regions}
    if sorted(regions.values()) != sorted(regions) or any(
            surface.region_by_id[rid].topology != surface.region_by_id[image].topology
            for rid, image in regions.items()):
        return False
    loci = {l.id: locus_map.get(l.id, l.id) for l in surface.loci}
    if sorted(loci.values()) != sorted(loci):
        return False
    parity = {}  # union-find with parity over ("l", id) and ("r", id)

    def find(node):
        flip = 1
        while parity.get(node, (node, 1))[0] != node:
            node, step = parity[node]
            flip *= step
        return node, flip

    for locus in surface.loci:
        target = surface.locus(loci[locus.id])
        offset, reversed_ = alignment.get(locus.id, (0, False))
        k = len(locus.slots)
        if reversed_ or target.wrapping != locus.wrapping or len(target.slots) != k:
            return False
        for j, image in enumerate(target.slots):
            i = (offset + j) % k
            rid = surface.circle_to_region[locus.slots[i]]
            if regions[rid] != surface.circle_to_region[image]:
                return False
            if not surface.region_by_id[rid].topology.orientable:
                continue
            # the flips of the locus and of the region multiply to the ratio
            (a, fa), (b, fb) = find(("l", locus.id)), find(("r", rid))
            ratio = locus.signs[i] * target.signs[j] * fa * fb
            if a != b:
                parity[a] = (b, ratio)
            elif ratio != 1:
                return False
    return True
