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
    obstruction_screen,
    validate,
)

# Each command imports the layers it runs, so a command loads only those:
# screen needs only the model unless it counts a minor-mode file's
# reductions, minor takes SearchBudget from moves and loads no search layer,
# moves list, moves apply and rand --length load the moves without the
# labeller, gen reads a builder's parameters without inspect, and only
# commands that print a canonical hash load _blake2 (never hashlib, which
# loads OpenSSL).  main builds the subparser of the command it runs alone.

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
    from .moves import SearchBudget

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
    from .moves import all_maximal_spreadings, maximally_spread

    surface = _load(args.file)
    if args.policy == "first":
        result, record = maximally_spread(surface)
    else:  # the endpoint with the least canonical form
        result, record = all_maximal_spreadings(surface)[0]
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
    surface = _load(args.file)
    flags = obstruction_screen(surface)
    payload = {
        "command": "screen",
        "has_nonorientable_closed_region": flags.has_nonorientable_closed_region,
        "locus_wrapping_gcd": flags.locus_wrapping_gcd,
    }
    if surface.mode is ValidityMode.MINOR:
        from .minors import enumerate_reductions

        payload["reduction_count"] = len(enumerate_reductions(surface))
    _emit(payload)
    return OK


def _cmd_gen(args) -> int:
    from .fixtures import _BUILDERS, _parameters, build_fixture

    # exactly the flags given, each under the builder parameter it sets; a
    # flag that the fixture's builder does not take is refused by name (exit 2)
    given = {"n": ("--n", args.n), "genus": ("--genus", args.genus),
             "orientable": ("--non-orientable", False if args.non_orientable else None),
             "mode": ("--mode", ValidityMode(args.mode) if args.mode else None)}
    params = {k: v for k, (_, v) in given.items() if v is not None}
    taken = _parameters(_BUILDERS[args.name])
    refused = [given[key][0] for key in params if key not in taken]
    if refused:
        raise MbsError(f"{args.name} does not take {', '.join(refused)}")
    surface = build_fixture(args.name, **params)
    _emit(io.surface_to_document(surface))
    return OK


def _cmd_rand(args) -> int:
    from .fixtures import random_surface

    if args.length < 0:
        raise MbsError(f"--length must be non-negative (got {args.length})")
    surface = random_surface(args.seed, args.size, ValidityMode(args.mode))
    if args.length:
        from .moves import _walk

        for _, surface in _walk(surface, args.seed, args.length):
            pass  # only the last surface is printed
    _emit(io.surface_to_document(surface))
    return OK


def _validate_args(p):
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)


def _invariants_args(p):
    p.add_argument("file")
    _add_symmetry_flag(p, default="rotational")
    p.set_defaults(func=_cmd_invariants)


def _moves_args(p):
    moves_sub = p.add_subparsers(dest="moves_command", required=True)
    q = moves_sub.add_parser("list")
    q.add_argument("file")
    q.set_defaults(func=_cmd_moves_list)
    q = moves_sub.add_parser("apply")
    q.add_argument("file")
    q.add_argument("move", help="move descriptor as inline JSON")
    q.set_defaults(func=_cmd_moves_apply)


def _normalize_args(p):
    p.add_argument("file")
    p.add_argument("--policy", default="first", choices=("first", "exhaustive"))
    p.set_defaults(func=_cmd_normalize)


def _iso_args(p):
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_symmetry_flag(p)
    p.set_defaults(func=_cmd_iso)


def _equiv_args(p):
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_symmetry_flag(p)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--max-states", type=int)
    p.add_argument("--max-cells", type=int)
    _add_time_limit_flag(p)
    p.set_defaults(func=_cmd_equiv)


def _minor_args(p):
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_symmetry_flag(p)
    p.add_argument("--max-states", type=int)
    _add_time_limit_flag(p)
    p.set_defaults(func=_cmd_minor)


def _screen_args(p):
    p.add_argument("file")
    p.set_defaults(func=_cmd_screen)


def _gen_args(p):
    p.add_argument("name", choices=("theta", "mb", "qn", "closed_surface"))
    p.add_argument("--n", type=int)
    p.add_argument("--non-orientable", action="store_true")
    p.add_argument("--genus", type=int)
    p.add_argument("--mode", choices=("strict", "minor"))
    p.set_defaults(func=_cmd_gen)


def _rand_args(p):
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--length", type=int, default=0,
                   help="optional random walk length applied after generation "
                        "(needs a strict surface)")
    p.add_argument("--mode", choices=("strict", "minor"), default="strict")
    p.set_defaults(func=_cmd_rand)


# command -> (help line, the function that adds its arguments), in help order
_COMMANDS = {
    "validate": ("check the model invariants", _validate_args),
    "invariants": ("Euler characteristic and homology", _invariants_args),
    "moves": ("enumerate or apply moves", _moves_args),
    "normalize": ("apply XI-moves until maximally spread", _normalize_args),
    "iso": ("isomorphism test with certificate", _iso_args),
    "equiv": ("bounded move-equivalence search", _equiv_args),
    "minor": ("bounded minor search (is A a minor of B?)", _minor_args),
    "screen": ("obstruction screening flags", _screen_args),
    "gen": ("build a named fixture", _gen_args),
    "rand": ("deterministic random surface", _rand_args),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.  Both print the
    same usage and errors for an argv that starts with ``command``, since
    the one-command parser's usage still names every command."""
    parser = argparse.ArgumentParser(prog="mbs",
                                     description="multibranched surface calculus")
    # the metavar would also rename the argument in the errors that only the
    # parser of every command prints (no command or an unknown one)
    every = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, (summary, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the subparser that argv[0] names; help, an empty argv and an
    # unknown command need every one, to list them
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
