"""Generate one workload's inputs and their expected answers.

Run as ``python3 bench/inputs.py WORKLOAD SEED OUTDIR``; it writes
``OUTDIR/cases.json`` (and, for cli_session, the input files).  The benchmark
runs this in its own process, so no canonical labelling done while
generating can reach the process that times the operations.  Every input
is handed over as ``mbs/1`` text and every expected answer comes from the
construction (a walk, a scramble, a removed region) or from an independent
computation (``sympy`` invariant factors, closed-form Euler characteristic),
never from the operation being timed.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys

from shared import import_mbs, scramble, union

mbs = import_mbs()

from mbs import (  # noqa: E402  (import after the source path is set)
    SymmetryMode,
    ValidityMode,
    io,
    moebius_annulus,
    quasi_pure,
    random_surface,
    theta,
)

# Per-op time caps in seconds.  Each sits at least 4x above the slowest op
# of its workload measured at baseline (cli_session: a labelling of one
# seed's random surface took 1.5 s, over 80 seeds scanned).
CAPS = {"homology_large": 15.0, "equiv_walks": 10.0, "cli_session": 10.0}
# The gauge of the machine's speed (shared.GAUGES) that tracks the work
# of the workload's ops.
GAUGE = {"homology_large": "kernel", "equiv_walks": "kernel", "cli_session": "interpreter"}

GOLDEN = (math.sqrt(5) - 1) / 2


def doc(surface) -> str:
    return io.serialize(surface).decode("utf-8")


def spread_out(values, count):
    """``count`` values from ``values`` in golden-ratio order, so that every
    prefix of the result covers the range about evenly."""
    lo, hi = values
    return [round(lo + (hi - lo) * ((i * GOLDEN) % 1.0)) for i in range(count)]


# -- independent invariants -------------------------------------------------

def region_euler(t) -> int:
    return 2 - (2 if t.orientable else 1) * t.genus - t.boundary_count


def components(surface) -> int:
    """Connected components of the region/locus incidence graph."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for r in surface.regions:
        find(("r", r.id))
    for l in surface.loci:
        find(("l", l.id))
        for c in l.slots:
            a, b = find(("l", l.id)), find(("r", surface.circle_to_region[c]))
            parent[a] = b
    return len({find(x) for x in parent})


def sympy_homology(surface):
    """Betti numbers and torsion order from sympy's invariant factors of the
    boundary matrices (``d1`` is unimodular, so H1 torsion comes from ``d2``)."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    cx = mbs.build_chain_complex(surface)

    def factors(m):
        if not m.entries or not m.entries[0]:
            return []
        return [int(f) for f in invariant_factors(Matrix(m.entries), domain=ZZ) if f != 0]

    f1, f2 = factors(cx.d1), factors(cx.d2)
    n0, n1, n2 = len(cx.zero_cells), len(cx.one_cells), len(cx.two_cells)
    r1, r2 = len(f1), len(f2)
    betti = [n0 - r1, n1 - r1 - r2, n2 - r2]
    return betti, math.prod(abs(f) for f in f2)


def invariants(surface) -> dict:
    betti, torsion = sympy_homology(surface)
    return {"chi": sum(region_euler(r.topology) for r in surface.regions),
            "components": components(surface), "betti": betti,
            "torsion_order": torsion}


# -- homology_large ---------------------------------------------------------

def complex_size(surface):
    """Cells of the chain complex in each degree, from the topology alone:
    a vertex per locus and region; a loop per locus, two (or one) per unit
    of genus and one per boundary circle; a 2-cell per region."""
    n1 = len(surface.loci) + sum(
        (2 if r.topology.orientable else 1) * r.topology.genus + r.topology.boundary_count
        for r in surface.regions)
    return len(surface.loci) + len(surface.regions), n1, len(surface.regions)


def homology_large(seed: int):
    """Disjoint unions of random pieces built to fixed sizes of the boundary
    matrices (entries of d1 plus d2): 84 small ops (600 to 13k entries,
    about 30-150 cells, each run twice in a row) and 16 large ones (23k to
    130k entries, about 170-420 cells), so p90 falls among the large.  The
    seed picks the pieces; the size schedule is the same for every seed.  Sizing by matrix entries rather than by cells
    keeps the Smith normal form work of an op within about 7% across seeds
    (35% by cells)."""
    rng = random.Random(f"homology_large/{seed}")
    pool = []
    for _ in range(48):
        piece = random_surface(rng.randrange(10**9), rng.randint(20, 40))
        pool.append((piece, complex_size(piece), invariants(piece)))
    count, n_large = 100, 16
    small = iter(spread_out((600, 13000), count - n_large))
    large = iter(spread_out((23000, 130000), n_large))
    cases = []
    for i in range(count):
        is_large = (i * n_large) // count != ((i + 1) * n_large) // count  # evenly spaced
        target = next(large) if is_large else next(small)
        chosen, size, rejected = [], (0, 0, 0), 0
        while size[0] * size[1] + size[1] * size[2] < target:
            piece, piece_size, inv = pool[rng.randrange(len(pool))]
            grown = tuple(a + b for a, b in zip(size, piece_size))
            if chosen and grown[0] * grown[1] + grown[1] * grown[2] > 1.03 * target \
                    and rejected < 200:
                rejected += 1
                continue
            chosen.append((piece, inv))
            size = grown
        rng.shuffle(chosen)
        surface = union([p for p, _ in chosen])
        expect = {
            "chi": sum(inv["chi"] for _, inv in chosen),
            "components": sum(inv["components"] for _, inv in chosen),
            "betti": [sum(inv["betti"][q] for _, inv in chosen) for q in range(3)],
            "torsion_order": math.prod(inv["torsion_order"] for _, inv in chosen),
            "loci": len(surface.loci),
        }
        cases.append({"id": f"h{i}", "op": "homology", "doc": doc(surface),
                      "cells": surface.cell_count, "reps": 1 if is_large else 2,
                      "expect": expect})
    return cases


# -- equiv_walks ------------------------------------------------------------

def equiv_walks(seed: int):
    """Move-equivalence queries on walk pairs.  The structures (start surface,
    walk) come from a fixed base so that every seed does the same search
    work; the seed picks each surface's presentation and the op order.

    Each of the five groups holds the same strata: cheap queries on mb and
    qn plus invariant-mismatch negatives (about 28%), theta(4) walks (41%),
    and theta(5) and random-surface walks (31%), so the median falls inside
    the theta(4) stratum and p90 inside the expensive one.  The cheap and
    theta(4) queries run three times in a row (``reps``).  Random surfaces
    take walks of 1-3 moves: a four-move walk took 1.6-2.4 s and six-move
    walks can take minutes, beyond any per-op cap."""
    groups = 5
    base = random.Random("equiv_walks/base")
    pairs = []  # (name, start surface, walk length)
    for _ in range(groups):
        pairs += [("mb", moebius_annulus(), n) for n in (1, 3, 5)]
        pairs += [("qn", quasi_pure(), n) for n in (2, 4, 6)]
        pairs += [("theta4", theta(4), n) for n in range(1, 7) for _ in range(2)]
        pairs += [("theta5", theta(5), n) for n in range(1, 7)]
        pairs += [("random", random_surface(base.randrange(10**9), base.randint(20, 40)), n)
                  for n in range(1, 4)]
    walked = []  # (name, x, y, walk length, largest cell count on the walk)
    for name, x, length in pairs:
        y, record = mbs.random_walk(x, base.randrange(10**9), length)
        cells, current = x.cell_count, x
        for step in record.steps:
            current = mbs.apply_move(current, step.move)
            cells = max(cells, current.cell_count)
        walked.append((name, x, y, len(record), cells))

    # negatives: a start surface against another pair's walk endpoint whose
    # independent invariants differ
    negatives = []
    while len(negatives) < 2 * groups:
        x = walked[base.randrange(len(walked))][1]
        y = walked[base.randrange(len(walked))][2]
        if invariants(x) != invariants(y):
            negatives.append((x, y))

    rng = random.Random(f"equiv_walks/{seed}")
    per_group = len(walked) // groups
    ordered = []
    for g in range(groups):
        group = []
        for i in range(g * per_group, (g + 1) * per_group):
            name, x, y, length, cells = walked[i]
            budget = {"max_depth": max(length, 1), "max_states": 50000,
                      "max_cell_count": cells, "time_limit": 1000.0}
            group.append({"id": f"e{i}", "op": "equiv", "kind": name,
                          "x": doc(scramble(x, f"{seed}/x{i}")),
                          "y": doc(scramble(y, f"{seed}/y{i}")),
                          "reps": 1 if name in ("theta5", "random") else 3,
                          "budget": budget, "expect": {"outcome": "Found"}})
        for j in (2 * g, 2 * g + 1):
            x, y = negatives[j]
            group.append({"id": f"n{j}", "op": "equiv", "kind": "negative", "reps": 3,
                          "x": doc(scramble(x, f"{seed}/nx{j}")),
                          "y": doc(scramble(y, f"{seed}/ny{j}")),
                          "budget": {"max_depth": 4, "max_states": 50000,
                                     "max_cell_count": 80, "time_limit": 1000.0},
                          "expect": {"outcome": "InvariantMismatch"}})
        rng.shuffle(group)
        ordered += group
    return ordered


# -- cli_session ------------------------------------------------------------

def bump_genus(surface):
    """A non-isomorphic neighbour: the first region gains a handle, so the
    multiset of region topologies differs."""
    from mbs import Region, RegionTopology

    r = surface.regions[0]
    t = r.topology
    bumped = Region(r.id, RegionTopology(t.orientable, t.genus + 1, t.boundary_count),
                    r.boundary_circles)
    return type(surface)((bumped,) + surface.regions[1:], surface.loci, surface.mode)


def cli_session(seed: int, out_dir: str):
    """One ``python -m mbs`` subprocess per op over desk-scale files.  The
    files are written under ``out_dir`` and named relative to it; expected
    payload fields come from the library in this process.  The random
    surfaces have a fixed budget schedule, so the seed changes what they
    are but not how large: with seeded budgets, the median command time
    moved by about 12% from seed to seed."""
    from mbs import (connected_components, euler_characteristic,
                     homology_profile, obstruction_screen)

    rng = random.Random(f"cli_session/{seed}")
    os.makedirs(os.path.join(out_dir, "files"), exist_ok=True)
    counter = iter(range(10**6))

    def write(surface) -> str:
        path = f"files/f{next(counter)}.json"
        with open(os.path.join(out_dir, path), "wb") as handle:
            handle.write(io.serialize(surface))
        return path

    cases = []
    for rep in range(8):
        n = 3 + rep % 3
        fixture = ("mb", "qn")[rep % 2]
        r_seed, r_size = rng.randrange(10**6), (20, 34, 27, 40, 23, 37, 30, 25)[rep]
        rs = random_surface(r_seed, r_size)
        rs_path = write(rs)
        t_path = write(scramble(theta(n), f"{seed}/t{rep}"))
        cases += [
            {"argv": ["gen", "theta", "--n", str(n)], "code": 0,
             "expect": {"document": io.surface_to_document(theta(n))}},
            {"argv": ["gen", fixture], "code": 0,
             "expect": {"document": io.surface_to_document(mbs.build_fixture(fixture))}},
            {"argv": ["rand", "--seed", str(r_seed), "--size", str(r_size)], "code": 0,
             "expect": {"document": io.surface_to_document(rs)}},
            {"argv": ["validate", rs_path], "code": 0, "expect": {"valid": True}},
        ]
        hp = homology_profile(rs)
        cases.append({"argv": ["invariants", rs_path], "code": 0, "expect": {
            "euler_characteristic": euler_characteristic(rs),
            "connected_components": connected_components(rs),
            "betti": list(hp.betti),
            "canonical_hash": mbs.canonical_hash(rs, SymmetryMode.ROTATIONAL)}})
        ix = [io.move_to_document(s) for s in mbs.enumerate_ix(rs)]
        xi = [io.move_to_document(c) for l in sorted(rs.loci, key=lambda l: l.id)
              for c in mbs.enumerate_xi(rs, l.id)]
        cases.append({"argv": ["moves", "list", rs_path], "code": 0,
                      "expect": {"ix": ix, "xi": xi}})
        t = io.load(os.path.join(out_dir, t_path))
        site = mbs.enumerate_ix(t)[0]
        cases.append({"argv": ["moves", "apply", t_path,
                               json.dumps(io.move_to_document(site))], "code": 0,
                      "expect": {"document": io.surface_to_document(mbs.apply_move(t, site))}})
        spread, record = mbs.maximally_spread(rs)
        cases.append({"argv": ["normalize", rs_path], "code": 0,
                      "expect": {"moves": len(record), "surface": io.surface_to_document(spread)}})
        mode = ("rotational", "mirror", "dihedral")[rep % 3]
        other = write(scramble(theta(n), f"{seed}/o{rep}"))
        cases.append({"argv": ["iso", t_path, other, "--symmetry", mode], "code": 0,
                      "expect": {"isomorphic": True}})
        neg = write(bump_genus(theta(n)))
        cases.append({"argv": ["iso", t_path, neg, "--symmetry", mode], "code": 1,
                      "expect": {"isomorphic": False}})
        start = mbs.build_fixture(fixture)
        walked, _ = mbs.random_walk(start, rng.randrange(10**6), 2)
        a, b = write(scramble(start, f"{seed}/ea{rep}")), write(scramble(walked, f"{seed}/eb{rep}"))
        cases.append({"argv": ["equiv", a, b, "--max-depth", "2"], "code": 0,
                      "expect": {"outcome": "found"}})
        small = write(theta(n - 1, ValidityMode.MINOR))
        big = write(scramble(theta(n, ValidityMode.MINOR), f"{seed}/m{rep}"))
        cases.append({"argv": ["minor", small, big], "code": 0,
                      "expect": {"outcome": "found"}})
        flags = obstruction_screen(rs)
        cases.append({"argv": ["screen", rs_path], "code": 0, "expect": {
            "has_nonorientable_closed_region": flags.has_nonorientable_closed_region,
            "locus_wrapping_gcd": flags.locus_wrapping_gcd}})
    for i, case in enumerate(cases):
        case["id"] = f"c{i}"
        case["op"] = "cli"
    return cases


WORKLOADS = {"homology_large": homology_large, "equiv_walks": equiv_walks,
             "cli_session": cli_session}


def main(argv) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    os.makedirs(out_dir, exist_ok=True)
    if workload == "cli_session":
        cases = cli_session(seed, out_dir)
    else:
        cases = WORKLOADS[workload](seed)
    with open(os.path.join(out_dir, "cases.json"), "w") as handle:
        json.dump({"workload": workload, "seed": seed, "cap_s": CAPS[workload],
                   "gauge": GAUGE[workload], "cases": cases}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
