"""Command-line interface.

Results are printed as JSON on stdout.  Exit codes: 0 success, 1 negative
verdict (invalid surface, not isomorphic, not a minor, invariant mismatch),
2 usage or schema error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io
from .errors import MbsError, SchemaError
from .model import (
    ValidityMode,
    connected_components,
    euler_characteristic,
    validate,
)

# Each command imports the layers it runs, so a command loads only those.

OK, NEGATIVE, USAGE, BUDGET = 0, 1, 2, 3


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _load(path):
    """Parse a surface file; refuse it unless every model check passes."""
    surface = io.load(path)
    issues = validate(surface)
    if issues:
        raise MbsError(f"{path} is not a valid surface: "
                       + "; ".join(str(v) for v in issues))
    return surface


def _budget(**limits):
    """The search budget from the flags given; a non-positive one is a usage error."""
    from .search import SearchBudget

    try:
        return SearchBudget(**{k: v for k, v in limits.items() if v is not None})
    except ValueError as exc:
        raise MbsError(f"invalid search budget: {exc}") from None


def _add_symmetry_flag(parser, default="mirror"):
    parser.add_argument("--symmetry", default=default,
                        choices=("rotational", "mirror", "dihedral"))


def _add_time_limit_flag(parser):
    parser.add_argument("--time-limit", type=float,
                        help="seconds before the search gives up (exit 3)")


def _certificate_payload(cert):
    return {
        "regions": dict(sorted(cert.region_map.items())),
        "loci": dict(sorted(cert.locus_map.items())),
        "circles": dict(sorted(cert.circle_map.items())),
        "alignment": {k: [v[0], v[1]] for k, v in sorted(cert.locus_alignment.items())},
        "region_flips": sorted(cert.region_flips),
        "locus_flips": sorted(cert.locus_flips),
        "circle_flips": sorted(cert.circle_flips),
    }


def _cmd_validate(args) -> int:
    surface = io.load(args.file)
    issues = validate(surface)
    _emit({"command": "validate", "valid": not issues,
           "violations": [{"rule": v.rule, "subject": v.subject,
                           "detail": v.detail} for v in issues]})
    return OK if not issues else NEGATIVE


def _cmd_invariants(args) -> int:
    from .algebra import boundary_euler, decomposition_summary, homology_profile
    from .isomorphism import SymmetryMode, canonical_hash

    surface = _load(args.file)
    profile = homology_profile(surface)
    payload = {
        "command": "invariants",
        "euler_characteristic": euler_characteristic(surface),
        "connected_components": connected_components(surface),
        "cell_count": surface.cell_count,
        "homology": {"betti": list(profile.betti),
                     "torsion": [list(t) for t in profile.torsion]},
        "canonical_hash": canonical_hash(surface, SymmetryMode(args.symmetry)),
    }
    if surface.mode is ValidityMode.STRICT:
        d = decomposition_summary(surface)
        payload["decomposition"] = {
            "solid_tori": d.solid_torus_count,
            "product_bundles": d.product_bundle_count,
            "twisted_bundles": d.twisted_bundle_count,
            "characteristic_annuli": d.characteristic_annuli_count,
        }
        payload["boundary_euler"] = boundary_euler(surface)
    try:  # an invariant can outgrow the int-to-text digit limit
        payload["homology"]["groups"] = [profile.group_text(q) for q in range(3)]
        _emit(payload)
    except ValueError as exc:
        raise MbsError(f"cannot print the invariants of {args.file}: {exc}") from None
    return OK


def _cmd_moves_list(args) -> int:
    from .moves import IXSite, _moves

    surface = _load(args.file)
    ix, xi = [], []
    for move in _moves(surface):
        (ix if isinstance(move, IXSite) else xi).append(io.move_to_document(move))
    _emit({"command": "moves-list", "ix": ix, "xi": xi})
    return OK


def _cmd_moves_apply(args) -> int:
    from .moves import apply_move

    surface = _load(args.file)
    move = io.document_to_move(io._read_json(args.move))
    result = apply_move(surface, move)
    _emit(io.surface_to_document(result))
    return OK


def _cmd_normalize(args) -> int:
    from .moves import maximally_spread

    surface = _load(args.file)
    result, record = maximally_spread(surface, policy=args.policy)
    _emit({"command": "normalize",
           "surface": io.surface_to_document(result),
           "record": io.record_to_document(record),
           "moves": len(record)})
    return OK


def _cmd_iso(args) -> int:
    from .isomorphism import SymmetryMode, are_isomorphic

    x = _load(args.file_a)
    y = _load(args.file_b)
    mode = SymmetryMode(args.symmetry)
    cert = are_isomorphic(x, y, mode)
    _emit({"command": "iso", "symmetry": mode.value,
           "isomorphic": cert is not None,
           "certificate": None if cert is None else _certificate_payload(cert)})
    return OK if cert is not None else NEGATIVE


def _cmd_equiv(args) -> int:
    from .isomorphism import SymmetryMode
    from .search import Found, InvariantMismatch, search_equivalence

    x = _load(args.file_a)
    y = _load(args.file_b)
    budget = _budget(max_depth=args.max_depth, max_states=args.max_states,
                     max_cell_count=args.max_cells, time_limit=args.time_limit)
    outcome = search_equivalence(x, y, budget, SymmetryMode(args.symmetry))
    if isinstance(outcome, Found):
        _emit({"command": "equiv", "outcome": "found",
               "moves": len(outcome.record),
               "record": io.record_to_document(outcome.record)})
        return OK
    if isinstance(outcome, InvariantMismatch):
        _emit({"command": "equiv", "outcome": "invariant_mismatch",
               "which": outcome.which})
        return NEGATIVE
    _emit({"command": "equiv", "outcome": "exhausted", "reason": outcome.reason})
    return BUDGET


def _cmd_minor(args) -> int:
    from .isomorphism import SymmetryMode
    from .minors import is_minor

    x = _load(args.file_a)
    y = _load(args.file_b)
    outcome = is_minor(x, y, _budget(max_states=args.max_states,
                                     time_limit=args.time_limit),
                       SymmetryMode(args.symmetry))
    if outcome.found:
        steps = [{"op": type(s).__name__, "region": s.region_id}
                 for s in outcome.sequence]
        _emit({"command": "minor", "outcome": "found", "sequence": steps})
        return OK
    if outcome.complete:
        _emit({"command": "minor", "outcome": "not_a_minor"})
        return NEGATIVE
    _emit({"command": "minor", "outcome": "exhausted"})
    return BUDGET


def _cmd_screen(args) -> int:
    from .minors import enumerate_reductions, obstruction_screen

    surface = _load(args.file)
    flags = obstruction_screen(surface)
    payload = {
        "command": "screen",
        "has_nonorientable_closed_region": flags.has_nonorientable_closed_region,
        "locus_wrapping_gcd": flags.locus_wrapping_gcd,
    }
    if surface.mode is ValidityMode.MINOR:
        payload["reduction_count"] = len(enumerate_reductions(surface))
    _emit(payload)
    return OK


def _cmd_gen(args) -> int:
    from .fixtures import build_fixture

    # exactly the flags given: build_fixture refuses one that its fixture
    # does not take (exit 2)
    given = {"n": args.n, "genus": args.genus,
             "orientable": False if args.non_orientable else None,
             "mode": ValidityMode(args.mode) if args.mode else None}
    params = {k: v for k, v in given.items() if v is not None}
    if args.name == "closed_surface":  # a torus unless told otherwise
        params = {"orientable": True, "genus": 1, **params}
    surface = build_fixture(args.name, **params)
    _emit(io.surface_to_document(surface))
    return OK


def _cmd_rand(args) -> int:
    from .fixtures import random_surface

    if args.length < 0:
        raise MbsError(f"--length must be non-negative (got {args.length})")
    surface = random_surface(args.seed, args.size, ValidityMode(args.mode))
    if args.length:
        from .search import _walk

        for _, surface in _walk(surface, args.seed, args.length):
            pass  # only the last surface is printed
    _emit(io.surface_to_document(surface))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mbs",
                                     description="multibranched surface calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the model invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="Euler characteristic and homology")
    p.add_argument("file")
    _add_symmetry_flag(p, default="rotational")
    p.set_defaults(func=_cmd_invariants)

    moves = sub.add_parser("moves", help="enumerate or apply moves")
    moves_sub = moves.add_subparsers(dest="moves_command", required=True)
    p = moves_sub.add_parser("list")
    p.add_argument("file")
    p.set_defaults(func=_cmd_moves_list)
    p = moves_sub.add_parser("apply")
    p.add_argument("file")
    p.add_argument("move", help="move descriptor as inline JSON")
    p.set_defaults(func=_cmd_moves_apply)

    p = sub.add_parser("normalize", help="apply XI-moves until maximally spread")
    p.add_argument("file")
    p.add_argument("--policy", default="first", choices=("first", "exhaustive"))
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("iso", help="isomorphism test with certificate")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_symmetry_flag(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("equiv", help="bounded move-equivalence search")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_symmetry_flag(p)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--max-states", type=int)
    p.add_argument("--max-cells", type=int)
    _add_time_limit_flag(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("minor", help="bounded minor search (is A a minor of B?)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_symmetry_flag(p)
    p.add_argument("--max-states", type=int)
    _add_time_limit_flag(p)
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("screen", help="obstruction screening flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("gen", help="build a named fixture")
    p.add_argument("name", choices=("theta", "mb", "qn", "closed_surface"))
    p.add_argument("--n", type=int)
    p.add_argument("--non-orientable", action="store_true")
    p.add_argument("--genus", type=int)
    p.add_argument("--mode", choices=("strict", "minor"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rand", help="deterministic random surface")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--length", type=int, default=0,
                   help="optional random walk length applied after generation "
                        "(needs a strict surface)")
    p.add_argument("--mode", choices=("strict", "minor"), default="strict")
    p.set_defaults(func=_cmd_rand)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return USAGE
    except (MbsError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE


def entry() -> None:  # console script
    raise SystemExit(main())
