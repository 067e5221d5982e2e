"""Helpers shared by the benchmark's processes: locating the checkout's
``mbs`` sources, gauges of the machine's speed, presentation scrambles,
and disjoint unions.

The benchmark drives ``mbs`` from the checkout it sits in (``<root>/src``)
and refuses to run against any other copy of the package.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class SetupError(Exception):
    """The checkout cannot run the benchmark (for example, no sources)."""


def import_mbs():
    """Import ``mbs`` from ``<root>/src``; raise SetupError if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "mbs", "__init__.py")):
        raise SetupError(f"no mbs sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mbs

    if not os.path.abspath(mbs.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported mbs from {mbs.__file__}, not from {SRC}")
    return mbs


def reference_kernel():
    """A fixed pure-Python workload that does not touch mbs: integer row
    reduction and tuple-keyed dict updates, the kinds of work the library's
    hot paths do.  Its fastest time gauges the machine's speed in a run."""
    n = 48
    m = [[(i * 7 + j * 13) % 5 - 2 for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        pivot = m[c]
        for r in range(c + 1, n):
            f = m[r][c]
            if f:
                m[r] = [(pivot[c] * a - f * b) % 1000003 for a, b in zip(m[r], pivot)]
    counts = {}
    for i in range(5000):
        key = (i % 97, i % 89, i % 53)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def kernel_sample() -> float:
    """Seconds of one reference_kernel run, without garbage collection (so
    the size of the library's heap does not change it)."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def interpreter_sample() -> float:
    """Seconds to start and stop a bare interpreter, the part of a CLI
    command that does not depend on mbs.  The output is captured as for a
    CLI op: then a timeout waits on the pipes, not in sleeps of up to 50 ms
    that would round the time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True,
                   timeout=60)
    return time.perf_counter() - start


# The speed of a shared machine drifts by a quarter to a half over seconds
# to minutes, and a whole run can fall in a slow stretch.  So each pass
# samples a gauge that does not depend on mbs, and an op's latency is its
# time as a multiple of the gauge's fastest sample near it, times REF_S:
# about the gauge's fastest time on the machine the baseline was measured
# on (1.46 ms and 38 ms were the fastest samples seen there).
# The latencies so read as times at that machine's full speed.  A gauge
# tracks only the slowdowns of work like its own: the kernel tracks the
# library's pure-Python work, a bare interpreter start tracks a CLI
# command, whose time is mostly process start and imports.
# name -> (sample function, seconds of op time between samples, REF_S)
GAUGES = {"kernel": (kernel_sample, 0.1, 0.0015),
          "interpreter": (interpreter_sample, 0.25, 0.040)}


def scramble(surface, seed):
    """An isomorphic copy in every symmetry mode: fresh ids, shuffled region
    and locus order, rotated slot basepoints, shuffled boundary lists and
    random sign gauge (whole-locus flips, whole-orientable-region flips and
    single-circle flips on non-orientable regions).  No cycle is reversed."""
    from mbs import BranchLocus, MultibranchedSurface, Region

    rng = random.Random(f"bench-scramble/{seed}")
    regions = list(surface.regions)
    rng.shuffle(regions)
    region_name = {r.id: f"R{i}" for i, r in enumerate(regions)}
    circles = sorted(surface.circle_to_region)
    names = [f"c{i}" for i in range(len(circles))]
    rng.shuffle(names)
    circle_name = dict(zip(circles, names))
    region_flip = {r.id: r.topology.orientable and rng.random() < 0.5
                   for r in surface.regions}

    new_regions = []
    for r in regions:
        boundary = [circle_name[c] for c in r.boundary_circles]
        rng.shuffle(boundary)
        new_regions.append(Region(region_name[r.id], r.topology, tuple(boundary)))

    loci = list(surface.loci)
    rng.shuffle(loci)
    new_loci = []
    for i, locus in enumerate(loci):
        k = len(locus.slots)
        rot = rng.randrange(k)
        flip = rng.random() < 0.5
        slots, signs = [], []
        for j in range(k):
            idx = (rot + j) % k
            c = locus.slots[idx]
            s = locus.signs[idx]
            rid = surface.circle_to_region[c]
            if surface.region_by_id[rid].topology.orientable:
                s = -s if region_flip[rid] else s
            elif rng.random() < 0.5:
                s = -s
            slots.append(circle_name[c])
            signs.append(-s if flip else s)
        new_loci.append(BranchLocus(f"L{i}", locus.wrapping, tuple(slots), tuple(signs)))
    return MultibranchedSurface(tuple(new_regions), tuple(new_loci), surface.mode)


def union(pieces):
    """Disjoint union with ids prefixed ``p<i>.`` by piece position."""
    from mbs import BranchLocus, MultibranchedSurface, Region

    regions, loci = [], []
    for i, piece in enumerate(pieces):
        p = f"p{i}."
        regions += [Region(p + r.id, r.topology, tuple(p + c for c in r.boundary_circles))
                    for r in piece.regions]
        loci += [BranchLocus(p + l.id, l.wrapping, tuple(p + c for c in l.slots), l.signs)
                 for l in piece.loci]
    return MultibranchedSurface(tuple(regions), tuple(loci), pieces[0].mode)
