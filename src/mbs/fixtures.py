"""Fixture builders and the deterministic random surface generator."""

from __future__ import annotations

from .errors import FixtureError, ModeError
from .model import (
    ANNULUS,
    MOEBIUS,
    BranchLocus,
    MultibranchedSurface,
    Region,
    RegionTopology,
    ValidityMode,
    validate,
)


def theta(n: int = 3, mode: ValidityMode = ValidityMode.STRICT) -> MultibranchedSurface:
    """Two loci of wrapping 1 joined by n parallel annuli (theta-graph times circle).

    Constructed for any n; valid for n >= 1 in minor mode, n >= 3 in strict.
    """
    regions = tuple(
        Region(f"r{i}", ANNULUS, (f"r{i}.a", f"r{i}.b")) for i in range(1, n + 1)
    )
    b1 = BranchLocus("b1", 1, tuple(f"r{i}.a" for i in range(1, n + 1)))
    b2 = BranchLocus("b2", 1, tuple(f"r{i}.b" for i in range(1, n + 1)))
    return MultibranchedSurface(regions, (b1, b2), mode)


def moebius_annulus(mode: ValidityMode = ValidityMode.STRICT) -> MultibranchedSurface:
    """One normal tribranched locus carrying a Moebius band and a closing annulus."""
    m = Region("M", MOEBIUS, ("m",))
    c = Region("C", ANNULUS, ("c1", "c2"))
    b = BranchLocus("b", 1, ("m", "c1", "c2"))
    return MultibranchedSurface((m, c), (b,), mode)


def quasi_pure(mode: ValidityMode = ValidityMode.STRICT) -> MultibranchedSurface:
    """A normal locus and a pure locus of wrapping 3 joined by an annulus,
    plus a closing annulus on the normal locus."""
    a = Region("A", ANNULUS, ("a", "a2"))
    c = Region("C", ANNULUS, ("c1", "c2"))
    bn = BranchLocus("bn", 1, ("a", "c1", "c2"))
    bp = BranchLocus("bp", 3, ("a2",))
    return MultibranchedSurface((a, c), (bn, bp), mode)


def _validated(name: str, surface: MultibranchedSurface) -> MultibranchedSurface:
    """``surface``, or FixtureError quoting every rule it breaks."""
    issues = validate(surface)
    if issues:
        raise FixtureError(f"{name} is not a valid {surface.mode.value} surface: "
                           + "; ".join(str(v) for v in issues))
    return surface


def closed_surface(orientable: bool, genus: int,
                   mode: ValidityMode = ValidityMode.MINOR) -> MultibranchedSurface:
    """A single closed region and no loci; raises FixtureError unless the
    surface is valid, which needs minor mode."""
    s = Region("s", RegionTopology(orientable, genus, 0), ())
    return _validated("closed_surface", MultibranchedSurface((s,), (), mode))


_BUILDERS = {"theta": theta, "mb": moebius_annulus, "qn": quasi_pure,
             "closed_surface": closed_surface}


def _parameters(builder) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parameter names that ``builder`` accepts, and those of them it
    requires, read from its code object (``inspect`` costs milliseconds to
    import); every builder takes each parameter positionally or by name."""
    code = builder.__code__
    accepted = code.co_varnames[:code.co_argcount]
    return accepted, accepted[:len(accepted) - len(builder.__defaults__ or ())]


def build_fixture(name: str, **params) -> MultibranchedSurface:
    """Build the named fixture from its builder's parameters; raises
    FixtureError on unknown names, unexpected or missing parameters, and
    surfaces that :func:`~mbs.model.validate` rejects in the requested mode."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise FixtureError(f"unknown fixture {name!r}") from None
    accepted, required = _parameters(builder)
    wrong = [f"missing a required argument: {p!r}" for p in required if p not in params]
    wrong += [f"got an unexpected keyword argument {p!r}" for p in params
              if p not in accepted]
    if wrong:
        raise FixtureError(f"{name}: {'; '.join(wrong)}")
    return _validated(name, builder(**params))


def disjoint_union(x: MultibranchedSurface, y: MultibranchedSurface) -> MultibranchedSurface:
    """Disjoint union; the ids of ``x`` take the prefix ``X.`` and those of
    ``y`` the prefix ``Y.``.  Both inputs must share a mode."""
    if x.mode is not y.mode:
        raise ModeError(f"cannot join a {x.mode.value} and a {y.mode.value} surface")

    def shift(surface, p):
        regions = tuple(
            Region(p + r.id, r.topology, tuple(p + c for c in r.boundary_circles))
            for r in surface.regions
        )
        loci = tuple(
            BranchLocus(p + l.id, l.wrapping, tuple(p + c for c in l.slots), l.signs)
            for l in surface.loci
        )
        return regions, loci

    rx, lx = shift(x, "X.")
    ry, ly = shift(y, "Y.")
    return MultibranchedSurface(rx + ry, lx + ly, x.mode)


MIN_STRICT_BUDGET = 3  # one pure degree-3 locus plus a once-punctured torus


def random_surface(seed: int, size_budget: int,
                   mode: ValidityMode = ValidityMode.STRICT) -> MultibranchedSurface:
    """Deterministic valid random surface with cell_count <= size_budget.

    Generation: draw loci (wrapping, slot count) under the budget, leaving
    room for at least one region; partition the required boundary circles
    into regions; draw topologies avoiding disks; shuffle circles into slots.
    Minor mode additionally allows small-degree loci and closed regions.
    """
    import random  # here: only random surfaces pay for loading it

    strict = mode is ValidityMode.STRICT
    if strict and size_budget < MIN_STRICT_BUDGET:
        raise FixtureError(
            f"strict budget must be >= {MIN_STRICT_BUDGET} (got {size_budget})")
    if size_budget < 1:
        raise FixtureError("size_budget must be >= 1")
    rng = random.Random(f"mbs/{seed}/{size_budget}/{mode.value}")

    loci_specs: list[tuple[int, int]] = []  # (wrapping, slot count)
    cells = 0

    def propose():
        if not strict:
            return rng.randint(1, 3), rng.randint(1, 4)
        roll = rng.random()
        if roll < 0.40:
            return 1, 3                      # tribranched normal
        if roll < 0.55:
            return rng.randint(3, 5), 1      # pure
        if roll < 0.70:
            return 2, rng.randint(2, 3)
        if roll < 0.90:
            return 1, rng.randint(4, 5)
        return rng.randint(2, 3), rng.randint(2, 3)

    while True:
        w, k = propose()
        if cells + (1 + k) + 1 > size_budget:
            if loci_specs or not strict:
                break
            w, k = 3, 1  # minimal pure locus always fits a strict budget >= 3
            if cells + 2 + 1 > size_budget:
                break
        loci_specs.append((w, k))
        cells += 1 + k
        if rng.random() < 0.35 and (loci_specs or not strict):
            break

    total_circles = sum(k for _, k in loci_specs)

    # Partition circles into regions (at most the remaining budget).
    max_regions = max(1, size_budget - cells) if total_circles else size_budget - cells
    sizes: list[int] = []
    rem = total_circles
    while rem > 0:
        if len(sizes) + 1 >= max_regions:
            sizes.append(rem)
            rem = 0
        else:
            b = min(rem, rng.choice((1, 2, 2, 2, 3)))
            sizes.append(b)
            rem -= b

    regions = []
    circles = [f"c{i}" for i in range(1, total_circles + 1)]
    pos = 0
    for j, b in enumerate(sizes, start=1):
        orientable = rng.random() < 0.7
        if orientable:
            if b == 2 and rng.random() < 0.7:
                genus = 0  # annulus, the move-rich shape
            else:
                genus = rng.randint(1 if b <= 1 else 0, 2)
        else:
            genus = 1 if (b == 1 and rng.random() < 0.7) else rng.randint(1, 2)
        regions.append(Region(f"r{j}", RegionTopology(orientable, genus, b),
                              tuple(circles[pos:pos + b])))
        pos += b
    cells += len(sizes)

    if not strict and cells + 1 <= size_budget and (not regions or rng.random() < 0.3):
        orientable = rng.random() < 0.5
        genus = rng.randint(1, 2) if not orientable else rng.randint(0, 2)
        regions.append(Region(f"r{len(regions) + 1}",
                              RegionTopology(orientable, genus, 0), ()))

    shuffled = list(circles)
    rng.shuffle(shuffled)
    loci = []
    pos = 0
    for i, (w, k) in enumerate(loci_specs, start=1):
        loci.append(BranchLocus(f"b{i}", w, tuple(shuffled[pos:pos + k])))
        pos += k

    surface = MultibranchedSurface(tuple(regions), tuple(loci), mode)
    issues = validate(surface)
    if issues:  # pragma: no cover - generator postcondition
        raise AssertionError(f"random_surface produced invalid output: {issues}")
    return surface
