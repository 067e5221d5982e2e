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
    """Reverse every slot cycle simultaneously (signs untouched)."""
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
