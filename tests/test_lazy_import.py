"""The package loads its layers on first use, and its public names did not
change.  Each load check runs in a fresh interpreter, since this process
has already imported every layer."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbs
from mbs import ValidityMode, moebius_annulus, serialize, theta

SRC = str(Path(mbs.__file__).resolve().parents[1])

# every name the package exported when it imported all its layers eagerly
PUBLIC = {
    "algebra": (
        "ChainComplex", "DecompositionSummary", "HomologyProfile",
        "IntegerMatrix", "SmithDecomposition", "boundary_euler",
        "build_chain_complex", "decomposition_summary", "homology_profile",
        "smith_normal_form",
    ),
    "errors": (
        "FixtureError", "IneligibleMoveError", "MbsError", "ModeError",
        "ReplayError", "SchemaError", "TheoremViolationError", "UnknownIdError",
    ),
    "fixtures": (
        "build_fixture", "closed_surface", "disjoint_union", "moebius_annulus",
        "quasi_pure", "random_surface", "theta",
    ),
    "io": ("load", "parse", "serialize"),
    "isomorphism": (
        "CanonicalForm", "IsoCertificate", "SymmetryMode", "are_isomorphic",
        "canonical_form", "canonical_hash",
    ),
    "minors": (
        "ContractRegion", "MinorOutcome", "ObstructionFlags", "RemoveRegion",
        "contract_region", "enumerate_reductions", "is_minor", "less_than",
        "obstruction_screen", "remove_region", "tilde_equivalent",
    ),
    "model": (
        "ANNULUS", "MOEBIUS", "BranchLocus", "LocusProfile",
        "MultibranchedSurface", "Region", "RegionClass", "RegionTopology",
        "ValidityMode", "classify_region", "connected_components",
        "euler_characteristic", "locus_profile", "validate",
    ),
    "moves": (
        "IXSite", "MoebiusSplit", "MoveRecord", "MoveStep", "NormalSplit",
        "QuasiSplit", "apply_ih", "apply_ix", "apply_move", "apply_xi",
        "enumerate_ix", "enumerate_xi", "is_maximally_spread_region",
        "is_maximally_spread_surface", "maximally_spread", "replay",
        "spread_potential",
    ),
    "search": (
        "ExhaustedWithinBudget", "Found", "InvariantMismatch", "SearchBudget",
        "neighbors", "random_walk", "search_equivalence",
    ),
}
SUBMODULES = sorted(PUBLIC) + ["cli"]
LAYERS = {"algebra", "fixtures", "isomorphism", "minors", "moves", "search"}

# runs the CLI as ``python -m mbs`` does, then reports every module loaded
CLI_PROBE = """
import contextlib, io, json, runpy, sys
sys.argv = ["mbs", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("mbs", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh_python(code, *args, cwd=None):
    """Run ``code`` in a new interpreter that imports this checkout's mbs,
    and return the JSON it prints.  ``-S`` keeps out the modules that the
    installation's ``site`` would load, so every module listed is one that
    ``code`` loaded."""
    done = subprocess.run([sys.executable, "-S", "-c", code, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def run_cli(argv, cwd):
    """The exit status of ``python -m mbs`` on ``argv``, and the set of
    modules it loaded."""
    code, modules = fresh_python(CLI_PROBE, json.dumps(argv), cwd=cwd)
    return code, set(modules)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("lazy")
    (folder / "t.json").write_bytes(serialize(theta(4)))
    (folder / "m.json").write_bytes(serialize(theta(4, ValidityMode.MINOR)))
    (folder / "mb.json").write_bytes(serialize(moebius_annulus()))
    return folder


IX_MOVE = '{"move": "ix", "region": "r1", "kind": "normal_annulus"}'
COMMANDS = [
    # (argv, layers it may load)
    (["gen", "theta", "--n", "4"], {"fixtures"}),
    (["rand", "--seed", "5", "--size", "12"], {"fixtures"}),
    (["rand", "--length", "3", "--seed", "5", "--size", "12"], {"fixtures", "moves"}),
    (["validate", "t.json"], set()),
    (["iso", "t.json", "t.json"], {"isomorphism"}),
    (["invariants", "t.json"], {"isomorphism", "algebra"}),
    (["moves", "list", "t.json"], {"moves"}),
    (["moves", "apply", "t.json", IX_MOVE], {"moves"}),
    (["normalize", "t.json"], {"isomorphism", "moves"}),
    (["equiv", "t.json", "t.json"], {"isomorphism", "moves", "search", "algebra"}),
    (["minor", "m.json", "m.json"], {"isomorphism", "moves", "minors"}),
    (["screen", "m.json"], {"isomorphism", "moves", "minors"}),
    (["screen", "t.json"], set()),
]


@pytest.mark.parametrize("argv, allowed", COMMANDS,
                         ids=[" ".join(argv[:2]) for argv, _ in COMMANDS])
def test_command_loads_only_its_layers(files, argv, allowed):
    code, loaded = run_cli(argv, files)
    assert code == 0
    layers = {m.removeprefix("mbs.") for m in loaded if m.startswith("mbs.")}
    assert {"cli", "errors", "io", "model"} <= layers
    assert layers & LAYERS <= allowed
    # the value types need no dataclasses, gen reads a builder's parameters
    # from its code object, and a canonical hash takes BLAKE2 from _blake2,
    # since hashlib loads OpenSSL; each of the three costs milliseconds to
    # import
    assert not {"dataclasses", "inspect", "hashlib", "_hashlib"} & loaded
    if argv[0] != "rand":  # random surfaces and walks alone draw numbers
        assert "random" not in loaded


@pytest.mark.parametrize("argv, status", [
    (["gen", "theta", "--non-orientable"], 2),  # a usage error
    (["iso", "t.json", "mb.json"], 1),  # a negative verdict
], ids=["usage-error", "negative-verdict"])
def test_exit_status_leaves_the_process(files, argv, status):
    # cli.entry raises SystemExit with the status, which the interpreter
    # that runs ``python -m mbs`` or the console script exits with
    assert run_cli(argv, files)[0] == status


def test_canonical_hash_loads_no_openssl():
    # hashlib.blake2b is _blake2.blake2b, so the hash is the same
    modules = fresh_python("import json, sys\n"
                           "from mbs import SymmetryMode, canonical_hash, theta\n"
                           "canonical_hash(theta(3), SymmetryMode.ROTATIONAL)\n"
                           "print(json.dumps(sorted(sys.modules)))")
    assert "_blake2" in modules
    assert not {"hashlib", "_hashlib"} & set(modules)


def test_bare_import_loads_model_errors_and_io():
    modules = fresh_python("import json, sys, mbs\n"
                           "print(json.dumps(sorted(sys.modules)))")
    assert {m for m in modules if m.startswith("mbs.")} == \
        {"mbs.errors", "mbs.io", "mbs.model"}


def test_screen_names_load_only_the_model():
    # the screen is defined in the model, which a bare import has loaded
    modules = fresh_python("import json, sys\n"
                           "from mbs import ObstructionFlags, obstruction_screen\n"
                           "print(json.dumps(sorted(sys.modules)))")
    assert {m for m in modules if m.startswith("mbs.")} == \
        {"mbs.errors", "mbs.io", "mbs.model"}


def test_search_names_load_the_search_layers():
    # what a caller timing searches imports before its first timed call
    modules = fresh_python("import json, sys, mbs\n"
                           "from mbs import SearchBudget, SymmetryMode\n"
                           "print(json.dumps(sorted(sys.modules)))")
    for name in ("io", "model", "algebra", "search", "isomorphism"):
        assert f"mbs.{name}" in modules


def test_public_names_resolve_to_their_defining_module():
    exported = set(mbs.__all__)
    listed = set(dir(mbs))
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"mbs.{module_name}")
        for name in names:
            assert name in exported and name in listed, name
            assert getattr(mbs, name) is getattr(module, name), name


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from mbs import *", namespace)
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"mbs.{module_name}")
        for name in names:
            assert namespace[name] is getattr(module, name), name


def test_submodules_resolve_after_a_bare_import():
    same = fresh_python(
        "import json, sys, mbs\n"
        f"names = {SUBMODULES!r}\n"
        "print(json.dumps({n: getattr(mbs, n) is sys.modules['mbs.' + n]"
        " for n in names}))")
    assert same == {name: True for name in SUBMODULES}
    assert set(SUBMODULES) <= set(dir(mbs))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mbs.no_such_name
    with pytest.raises(ImportError):
        exec("from mbs import no_such_name", {})


def test_submodule_loads_on_first_access():
    # no name that a bare import binds loads the search layer: the
    # package's __getattr__ imports it when it is first asked for
    loaded_before, same = fresh_python(
        "import json, sys, mbs\n"
        "loaded_before = 'mbs.search' in sys.modules\n"
        "print(json.dumps([loaded_before, mbs.search is sys.modules['mbs.search']]))")
    assert loaded_before is False
    assert same is True
