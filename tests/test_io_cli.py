import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import mbs.cli
import mbs.isomorphism
import mbs.minors
import mbs.search
from mbs import (
    IXSite,
    MoebiusSplit,
    NormalSplit,
    QuasiSplit,
    RegionClass,
    SchemaError,
    SymmetryMode,
    ValidityMode,
    apply_ix,
    build_fixture,
    canonical_form,
    closed_surface,
    contract_region,
    disjoint_union,
    enumerate_ix,
    maximally_spread,
    moebius_annulus,
    parse,
    quasi_pure,
    random_surface,
    random_walk,
    remove_region,
    serialize,
    theta,
    validate,
)
from mbs import io as mbs_io
from mbs.cli import main
from mbs.minors import MinorOutcome
from mbs.moves import all_maximal_spreadings
from mbs.search import ExhaustedWithinBudget, SearchBudget
from test_lazy_import import COMMANDS

SCHEMA_DIR = Path(mbs_io.__file__).parent / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name) as handle:
        return json.load(handle)


def output_validator():
    from referencing import Registry, Resource

    surface_schema = load_schema("surface.schema.json")
    output_schema = load_schema("output.schema.json")
    surface = Resource.from_contents(surface_schema)
    output = Resource.from_contents(output_schema)
    registry = Registry().with_resources([
        (surface_schema["$id"], surface),
        (output_schema["$id"], output),
    ])
    return jsonschema.Draft202012Validator(output_schema, registry=registry)


def test_roundtrip_fixtures(theta3, mb, qn):
    for surface in (theta3, mb, qn):
        assert parse(serialize(surface)) == surface


def test_roundtrip_preserves_basepoint_and_signs(theta3):
    moved = apply_ix(theta3, enumerate_ix(theta3)[0])  # carries -1 signs
    again = parse(serialize(moved))
    assert again == moved
    assert b'"signs"' in serialize(moved)
    assert b'"signs"' not in serialize(theta3)


def test_serialized_documents_match_schema(theta3, mb):
    schema = load_schema("surface.schema.json")
    for surface in (theta3, mb, apply_ix(theta3, enumerate_ix(theta3)[0])):
        jsonschema.validate(json.loads(serialize(surface)), schema)


def _set(path, value):
    """A document edit: put ``value`` at ``path`` (a tuple of keys)."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


# The reader checks the mbs/1 shape only; each of these documents is
# well-formed but breaks one model rule, which validate owns.
MOVED_RULES = {
    "duplicate-region-id": _set(("regions", 1, "id"), "r1"),
    "duplicate-circle-id": _set(("regions", 0, "boundaries", 1), "r1.a"),
    "duplicate-locus-id": _set(("loci", 1, "id"), "b1"),
    "slot-repeat": _set(("loci", 0, "slots", 1), "r1.a"),
    "slot-conflict": _set(("loci", 1, "slots", 0), "r1.a"),
    "negative-genus": _set(("regions", 0, "genus"), -1),
    "wrapping-positive": _set(("loci", 0, "wrapping"), 0),
    "empty-locus": lambda doc: doc["loci"].append(
        {"id": "e", "wrapping": 1, "slots": []}),
    "sign-value": _set(("loci", 0, "signs"), [1, 2, 1]),
}


@pytest.mark.parametrize("rule", MOVED_RULES)
def test_parse_leaves_rule_to_validate(tmp_path, capsys, rule):
    doc = json.loads(serialize(theta(3)))
    MOVED_RULES[rule](doc)
    surface = parse(json.dumps(doc))
    assert rule in {v.rule for v in validate(surface)}

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "validate", str(path))
    assert code == 1 and not payload["valid"]
    assert rule in [v["rule"] for v in payload["violations"]]
    output_validator().validate(payload)
    for argv in (["invariants", str(path)], ["moves", "list", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"[{rule}]" in captured.err


@pytest.mark.parametrize("sign", [True, 1.0])
def test_parse_rejects_non_integer_sign(sign):
    doc = json.loads(serialize(theta(3)))
    doc["loci"][0]["signs"] = [sign, 1, -1]
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(doc))
    assert err.value.path == "$.loci[0].signs[0]"


@pytest.mark.parametrize("move", [
    {"move": "xi", "variant": "normal_split", "locus": "b1", "gap_a": -1, "gap_b": 1},
    {"move": "xi", "variant": "quasi_split", "locus": "b1", "start": 0, "length": 1},
], ids=["negative-gap", "length-1"])
def test_cli_moves_apply_refuses_unavailable_parameters(tmp_path, capsys, move):
    doc = json.loads(serialize(theta(4)))
    if move["variant"] == "quasi_split":
        doc["loci"][0]["wrapping"] = 2  # an unnormal locus admits quasi splits
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code = main(["moves", "apply", str(path), json.dumps(move)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not available" in captured.err and "Traceback" not in captured.err


def test_parse_rejects_unknown_fields():
    doc = json.loads(serialize(theta(3)))
    doc["color"] = "blue"
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(doc))
    assert "unknown fields" in str(err.value)


def test_parse_syntax_error_has_position():
    with pytest.raises(SchemaError) as err:
        parse('{"format": "mbs/1",\n  broken')
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_parse_rejects_bad_format_and_mode():
    with pytest.raises(SchemaError):
        parse(json.dumps({"format": "mbs/2", "mode": "strict",
                          "regions": [], "loci": []}))
    with pytest.raises(SchemaError):
        parse(json.dumps({"format": "mbs/1", "mode": "loose",
                          "regions": [], "loci": []}))


def test_move_document_roundtrip(theta3):
    from mbs.search import neighbors

    moves = [move for move, _ in neighbors(apply_ix(theta3, enumerate_ix(theta3)[0]))]
    # one of every kind, the quasi split included
    moves += [IXSite("r1", RegionClass.NORMAL_ANNULUS), NormalSplit("b1", 0, 2),
              QuasiSplit("b2", 1, 3), MoebiusSplit("b3", 2)]
    for move in moves:
        doc = mbs_io.move_to_document(move)
        assert mbs_io.document_to_move(doc) == move


def test_move_to_document_rejects_a_non_move(theta3):
    with pytest.raises(TypeError, match="not a move descriptor"):
        mbs_io.move_to_document(theta3)


def test_move_document_rejects_unknown_variant_and_class():
    with pytest.raises(SchemaError, match="unknown variant"):
        mbs_io.document_to_move({"move": "xi", "variant": "twist", "locus": "b1"})
    with pytest.raises(SchemaError, match="unknown region class"):
        mbs_io.document_to_move({"move": "ix", "region": "r1", "kind": "torus"})


XI_DOCUMENTS = {
    "normal_split": {"move": "xi", "variant": "normal_split", "locus": "b1",
                     "gap_a": 0, "gap_b": 2},
    "quasi_split": {"move": "xi", "variant": "quasi_split", "locus": "b1",
                    "start": 1, "length": 2},
    "moebius_split": {"move": "xi", "variant": "moebius_split", "locus": "b1",
                      "cut_gap": 1},
}
BAD_XI_DOCUMENTS = [
    # every field of each variant left out in turn
    *[pytest.param({k: v for k, v in doc.items() if k != field},
                   "$.variant" if field == "variant" else "$",
                   "unknown variant None" if field == "variant"
                   else f"missing required field {field!r}",
                   id=f"{variant}-without-{field}")
      for variant, doc in XI_DOCUMENTS.items() for field in doc if field != "move"],
    # a field of another variant, and a field of no move at all
    *[pytest.param({**XI_DOCUMENTS[variant], extra: 0}, "$", f"unknown fields [{extra!r}]",
                   id=f"{variant}-with-{extra}")
      for variant, extra in (("normal_split", "start"), ("quasi_split", "cut_gap"),
                             ("moebius_split", "gap_a"), ("moebius_split", "twist"))],
    # a variant that is not a string, so no table can look it up
    pytest.param({**XI_DOCUMENTS["normal_split"], "variant": []}, "$.variant",
                 "unknown variant []", id="list-variant"),
    pytest.param({**XI_DOCUMENTS["normal_split"], "variant": {}}, "$.variant",
                 "unknown variant {}", id="object-variant"),
    pytest.param({**XI_DOCUMENTS["quasi_split"], "length": "2"}, "$.length",
                 "expected an integer", id="quasi_split-string-length"),
]


@pytest.mark.parametrize("doc, path, rule", BAD_XI_DOCUMENTS)
def test_xi_document_errors_name_rule_and_path(doc, path, rule):
    with pytest.raises(SchemaError) as err:
        mbs_io.document_to_move(doc)
    assert (err.value.path, err.value.rule) == (path, rule)


def test_parse_rejects_invalid_utf8():
    with pytest.raises(SchemaError, match="invalid UTF-8"):
        parse(b'{"format": "mbs/1", "mode": "\xff"}')


def test_record_document_roundtrip(mb):
    _, record = random_walk(mb, seed=2, length=4)
    doc = mbs_io.record_to_document(record)
    assert mbs_io.document_to_record(doc) == record


@pytest.mark.parametrize("move, path", [
    ({"move": "xi", "variant": "normal_split", "locus": "b1", "gap_a": "0",
      "gap_b": 2}, "$[1].move.gap_a"),
    (["ix"], "$[1].move"),
], ids=["bad-gap", "not-an-object"])
def test_record_document_error_names_the_step_move(mb, move, path):
    _, record = random_walk(mb, seed=2, length=4)
    doc = mbs_io.record_to_document(record)
    doc[1]["move"] = move
    with pytest.raises(SchemaError) as err:
        mbs_io.document_to_record(doc)
    assert err.value.path == path


def write(tmp_path, name, surface):
    path = tmp_path / name
    path.write_bytes(serialize(surface))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_cli_invariants_theta3(tmp_path, capsys, theta3):
    path = write(tmp_path, "theta3.json", theta3)
    code, payload = run(capsys, "invariants", path)
    assert code == 0
    assert payload["euler_characteristic"] == 0
    assert payload["homology"]["betti"] == [1, 3, 2]
    assert payload["homology"]["groups"] == ["Z", "Z^3", "Z^2"]
    output_validator().validate(payload)


def test_cli_invariants_of_a_high_genus_surface(tmp_path, capsys):
    path = write(tmp_path, "k.json", closed_surface(False, 20_000))
    start = time.monotonic()
    code, payload = run(capsys, "invariants", path)
    assert time.monotonic() - start < 5.0
    assert code == 0 and payload["homology"]["betti"] == [1, 19_999, 0]


def test_cli_invariants_too_long_to_print_is_a_usage_error(tmp_path, capsys):
    # a wrapping of 4,300 digits reads back, but the torsion 2w has 4,301
    doc = json.loads(serialize(quasi_pure()))
    (locus,) = [l for l in doc["loci"] if l["id"] == "bp"]
    locus["wrapping"] = int("9" * 4300)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code = main(["invariants", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err



def test_cli_invariants_prints_a_free_part_of_any_rank(tmp_path, capsys):
    # b1 = 10**20 - 1: the groups text writes the free part once, as Z^n
    assert main(["gen", "closed_surface", "--non-orientable", "--genus", str(10**20)]) == 0
    path = tmp_path / "big.json"
    path.write_text(capsys.readouterr().out)
    code, payload = run(capsys, "invariants", str(path))
    assert code == 0
    assert payload["homology"]["groups"][1] == "Z^99999999999999999999 + Z/2"
    output_validator().validate(payload)


def test_cli_validate(tmp_path, capsys, theta3):
    good = write(tmp_path, "good.json", theta3)
    code, payload = run(capsys, "validate", good)
    assert code == 0 and payload["valid"]

    bad = write(tmp_path, "bad.json", theta(2))
    code, payload = run(capsys, "validate", bad)
    assert code == 1 and not payload["valid"]
    output_validator().validate(payload)


def test_cli_iso_negative(tmp_path, capsys, qn, mb):
    a = write(tmp_path, "qn.json", qn)
    b = write(tmp_path, "mb.json", mb)
    code, payload = run(capsys, "iso", a, b)
    assert code == 1 and payload["isomorphic"] is False
    output_validator().validate(payload)


def test_cli_iso_positive(tmp_path, capsys, theta3):
    from helpers import scramble

    a = write(tmp_path, "a.json", theta3)
    b = write(tmp_path, "b.json", scramble(theta3, 3))
    code, payload = run(capsys, "iso", a, b, "--symmetry", "rotational")
    assert code == 0 and payload["isomorphic"] is True
    output_validator().validate(payload)


def test_cli_iso_and_equiv_of_a_mirror_image(tmp_path, capsys):
    """A chiral surface and its mirror image are isomorphic under MIRROR
    (exit 0), not under rotations alone (exit 1), and equivalent by moves."""
    from helpers import mirror_image

    x = random_surface(3, 20)
    a, b = write(tmp_path, "a.json", x), write(tmp_path, "b.json", mirror_image(x))
    assert run(capsys, "iso", a, b, "--symmetry", "mirror")[0] == 0
    assert run(capsys, "iso", a, b, "--symmetry", "rotational")[0] == 1
    assert run(capsys, "equiv", a, b)[0] == 0


def test_cli_equiv_found(tmp_path, capsys, theta3):
    walked, record = random_walk(theta3, seed=11, length=4)
    a = write(tmp_path, "theta3.json", theta3)
    b = write(tmp_path, "walked.json", walked)
    code, payload = run(capsys, "equiv", a, b, "--max-depth", "4",
                        "--symmetry", "rotational")
    assert code == 0
    assert payload["outcome"] == "found"
    assert payload["moves"] <= 2 * max(len(record), 1)
    output_validator().validate(payload)


def test_cli_equiv_mismatch(tmp_path, capsys, theta3, mb):
    a = write(tmp_path, "a.json", theta3)
    b = write(tmp_path, "b.json", mb)
    code, payload = run(capsys, "equiv", a, b)
    assert code == 1
    assert payload["which"] == "homology_profile"


def test_cli_equiv_budget_exhausted(tmp_path, capsys, theta3):
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    a = write(tmp_path, "a.json", theta3)
    b = write(tmp_path, "b.json", merged)
    code, payload = run(capsys, "equiv", a, b, "--max-states", "1")
    assert code == 3
    assert payload["outcome"] == "exhausted"
    output_validator().validate(payload)


def test_cli_minor_budget_exhausted(tmp_path, capsys):
    theta3m = theta(3).in_mode(ValidityMode.MINOR)
    torus = contract_region(remove_region(theta3m, "r1"), "r2")
    a = write(tmp_path, "t.json", torus)
    b = write(tmp_path, "y.json", theta3m)
    code, payload = run(capsys, "minor", a, b, "--max-states", "1")
    assert code == 3 and payload["outcome"] == "exhausted"
    # the 5 states below theta(3) at a Klein bottle's size fit a budget of
    # 5, so its answer is definitive; a budget of 4 runs out
    k = write(tmp_path, "k2.json", closed_surface(False, 2))
    code, payload = run(capsys, "minor", k, b, "--max-states", "5")
    assert code == 1 and payload["outcome"] == "not_a_minor"
    code, payload = run(capsys, "minor", k, b, "--max-states", "4")
    assert code == 3 and payload["outcome"] == "exhausted"


def test_cli_moves_list_and_apply(tmp_path, capsys, mb):
    path = write(tmp_path, "mb.json", mb)
    code, payload = run(capsys, "moves", "list", path)
    assert code == 0
    assert payload["ix"] == [{"move": "ix", "region": "M",
                              "kind": "normal_moebius"}]
    output_validator().validate(payload)

    code, surface_doc = run(capsys, "moves", "apply", path,
                            json.dumps(payload["ix"][0]))
    assert code == 0
    result = parse(json.dumps(surface_doc))
    assert result == apply_ix(mb, enumerate_ix(mb)[0])


@pytest.mark.parametrize("fixture, ix, xi", [
    (quasi_pure(), {"move": "ix", "region": "A", "kind": "quasi_normal_annulus"},
     {"move": "xi", "variant": "quasi_split", "locus": "b1", "start": 0, "length": 2}),
    (moebius_annulus(), {"move": "ix", "region": "M", "kind": "normal_moebius"},
     {"move": "xi", "variant": "moebius_split", "locus": "b1", "cut_gap": 1}),
], ids=["quasi_split", "moebius_split"])
def test_cli_xi_move_undoes_the_ix_move(tmp_path, capsys, fixture, ix, xi):
    """An IX-move, then the XI-move of the locus it made, gives back the
    start up to rotation."""
    start = write(tmp_path, "start.json", fixture)
    code, merged = run(capsys, "moves", "apply", start, json.dumps(ix))
    assert code == 0
    path = tmp_path / "merged.json"
    path.write_text(json.dumps(merged))
    code, split = run(capsys, "moves", "apply", str(path), json.dumps(xi))
    assert code == 0
    path.write_text(json.dumps(split))
    assert run(capsys, "iso", str(path), start, "--symmetry", "rotational")[0] == 0


def test_cli_normalize(tmp_path, capsys, theta3):
    merged = apply_ix(theta3, enumerate_ix(theta3)[0])
    path = write(tmp_path, "m.json", merged)
    code, payload = run(capsys, "normalize", path)
    assert code == 0 and payload["moves"] == 1
    spread = parse(json.dumps(payload["surface"]))
    assert canonical_form(spread, SymmetryMode.ROTATIONAL).data == \
        canonical_form(theta3, SymmetryMode.ROTATIONAL).data
    output_validator().validate(payload)


@pytest.mark.parametrize("policy", ["first", "exhaustive"])
def test_cli_normalize_prints_the_policy_spreading(tmp_path, capsys, policy):
    # first: greedy spreading; exhaustive: the least of all endpoints
    spread = {"first": maximally_spread,
              "exhaustive": lambda s: all_maximal_spreadings(s)[0]}[policy]
    # theta(n) takes n - 3 XI-moves per locus
    for surface, moves in ((theta(3), 0), (theta(4), 2), (theta(5), 4),
                           (maximally_spread(theta(5))[0], 0)):
        path = write(tmp_path, "s.json", surface)
        code, payload = run(capsys, "normalize", path, "--policy", policy)
        result, record = spread(surface)
        assert code == 0 and payload == {
            "command": "normalize",
            "surface": mbs_io.surface_to_document(result),
            "record": mbs_io.record_to_document(record),
            "moves": moves}


def test_cli_moves_on_a_locus_id_past_the_int_digit_limit(tmp_path, capsys):
    """A locus id with a 5,000-digit suffix is valid: normalize, moves apply
    and equiv run on it (exit 0), not into a traceback (exit 1)."""
    doc = json.loads(serialize(theta(4)))
    doc["loci"][0]["id"] = "b" + "9" * 5000
    path = tmp_path / "long_id.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "normalize", str(path))
    assert code == 0 and payload["moves"] == 2
    code, walked = run(capsys, "moves", "apply", str(path),
                       '{"move": "ix", "region": "r1", "kind": "normal_annulus"}')
    assert code == 0 and validate(parse(json.dumps(walked))) == []
    walked_path = tmp_path / "walked.json"
    walked_path.write_text(json.dumps(walked))
    code, payload = run(capsys, "equiv", str(path), str(walked_path))
    assert code == 0 and payload["moves"] == 1


@pytest.mark.parametrize("policy", ["first", "exhaustive"])
@pytest.mark.parametrize("n", [2, 4])
def test_cli_normalize_minor_mode_is_usage_error(tmp_path, capsys, policy, n):
    path = write(tmp_path, "t.json", theta(n, ValidityMode.MINOR))
    code = main(["normalize", path, "--policy", policy])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_cli_minor(tmp_path, capsys):
    theta3m = theta(3).in_mode(ValidityMode.MINOR)
    torus = contract_region(remove_region(theta3m, "r1"), "r2")
    a = write(tmp_path, "torus.json", torus)
    b = write(tmp_path, "theta3m.json", theta3m)
    code, payload = run(capsys, "minor", a, b)
    assert code == 0
    assert [s["op"] for s in payload["sequence"]] == \
        ["RemoveRegion", "ContractRegion"]
    output_validator().validate(payload)

    code, payload = run(capsys, "minor", b, a)
    assert code == 1 and payload["outcome"] == "not_a_minor"


def test_cli_screen_and_gen(tmp_path, capsys):
    code, doc = run(capsys, "gen", "closed_surface", "--non-orientable",
                    "--genus", "2")
    assert code == 0
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "screen", str(path))
    assert code == 0 and payload["has_nonorientable_closed_region"] is True
    assert "reduction_count" in payload  # a minor-mode file
    output_validator().validate(payload)
    _, doc = run(capsys, "gen", "theta", "--n", "3")
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "screen", str(path))
    assert code == 0 and "reduction_count" not in payload  # a strict file
    output_validator().validate(payload)


def test_cli_gen_theta_and_rand(tmp_path, capsys, theta3):
    code, doc = run(capsys, "gen", "theta", "--n", "3")
    assert code == 0
    assert parse(json.dumps(doc)) == theta3
    jsonschema.validate(doc, load_schema("surface.schema.json"))
    # theta(2) breaks only the strict degree rule
    code, doc = run(capsys, "gen", "theta", "--n", "2", "--mode", "minor")
    assert code == 0 and doc["mode"] == "minor"
    assert parse(json.dumps(doc)) == theta(2, ValidityMode.MINOR)

    code, doc = run(capsys, "rand", "--seed", "5", "--size", "12")
    assert code == 0
    assert parse(json.dumps(doc)) == random_surface(5, 12)

    code, doc = run(capsys, "rand", "--seed", "5", "--size", "12",
                    "--length", "3")
    assert code == 0
    assert validate(parse(json.dumps(doc))) == []


# sha256 of the stdout of three `mbs rand --length` commands, recorded when
# the command still built the walk's record
RAND_WALK_DIGEST = "c9cbf34c25068e02f6d48c9d9ebf9b3cfcfdf43785a2213710e920cf53db6148"


def test_cli_rand_walk_labels_nothing(capsys):
    """`mbs rand --length` keeps only the walked surface, so it builds no
    record and runs no labelling."""
    mbs.isomorphism._canonical.cache_clear()
    digest = hashlib.sha256()
    for seed, size, length in ((5, 20, 4), (3, 30, 6), (11, 25, 8)):
        assert main(["rand", "--seed", str(seed), "--size", str(size),
                     "--length", str(length)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert mbs.isomorphism._canonical.cache_info().misses == 0
    assert digest.hexdigest() == RAND_WALK_DIGEST


def test_cli_rand_walk_needs_a_strict_surface(capsys):
    errors = set()
    for seed in range(1, 9):
        code = main(["rand", "--seed", str(seed), "--size", "20", "--mode", "minor",
                     "--length", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors.add(captured.err)
    assert errors == {"error: IX- and XI-moves are defined on strict surfaces\n"}


def test_cli_rand_negative_length_is_usage_error(capsys):
    code = main(["rand", "--seed", "5", "--size", "12", "--length", "-3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--length" in captured.err and "Traceback" not in captured.err
    code, doc = run(capsys, "rand", "--seed", "5", "--size", "12", "--length", "0")
    assert code == 0


@pytest.mark.parametrize("argv", [("mb", "--n", "5"), ("qn", "--genus", "2"),
                                  ("theta", "--non-orientable"),
                                  ("closed_surface", "--n", "3")])
def test_cli_gen_refuses_a_flag_its_fixture_does_not_take(capsys, argv):
    """The error names the flag as typed, not the builder's parameter."""
    name, flag = argv[:2]
    code = main(["gen", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {name} does not take {flag}\n"


def test_cli_gen_closed_surface_is_a_torus_by_default(capsys):
    """The command, the dispatcher and the builder share one default."""
    code, doc = run(capsys, "gen", "closed_surface")
    assert code == 0 and parse(json.dumps(doc)) == closed_surface(True, 1)
    assert build_fixture("closed_surface") == closed_surface() == closed_surface(True, 1)


def test_cli_rand_walk_keeps_one_surface(capsys):
    """`mbs rand --length` holds the surface it stands on, not its walk: a
    4,000-step walk peaked at 6.3 MiB under tracemalloc while it held every
    surface."""
    tracemalloc.start()
    try:
        assert main(["rand", "--seed", "5", "--size", "20", "--length", "4000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert validate(parse(capsys.readouterr().out)) == []


def test_cli_gen_invalid_params(capsys):
    code = main(["gen", "theta", "--n", "2"])
    assert code == 2
    capsys.readouterr()
    code = main(["rand", "--seed", "1", "--size", "0", "--mode", "minor"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: size_budget must be >= 1\n"


@pytest.mark.parametrize("move, message", [
    ({"move": "ix", "region": "nope", "kind": "normal_annulus"}, "unknown region 'nope'"),
    ({"move": "xi", "variant": "normal_split", "locus": "zz", "gap_a": 0, "gap_b": 2},
     "unknown locus 'zz'"),
], ids=["region", "locus"])
def test_cli_unknown_id_error_is_not_quoted(tmp_path, capsys, move, message):
    path = write(tmp_path, "t4.json", theta(4))
    code = main(["moves", "apply", path, json.dumps(move)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_schema_error_exit(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "mbs/1"')
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


# JSON that is well-formed but that the decoder cannot read: nesting past
# the recursion limit (1,000 deep is enough before Python 3.12, which lets
# the decoder go deeper), and an integer past the int-from-string digit limit
DEEP = "[" * 100_000 + "]" * 100_000
LONG_GENUS = serialize(theta(3)).decode().replace('"genus": 0', '"genus": ' + "7" * 5000, 1)
LONG_GAP = ('{"move": "xi", "variant": "normal_split", "locus": "b1", "gap_a": '
            + "7" * 5000 + ', "gap_b": 2}')


@pytest.mark.parametrize("text", [DEEP, LONG_GENUS], ids=["deep", "long-int"])
def test_parse_unreadable_json_is_a_schema_error(text):
    with pytest.raises(SchemaError, match="unreadable JSON"):
        parse(text)


@pytest.mark.parametrize("surface_text, move_text", [
    (DEEP, DEEP), (LONG_GENUS, LONG_GAP)], ids=["deep", "long-int"])
def test_cli_unreadable_json_is_a_schema_error(tmp_path, capsys, surface_text,
                                               move_text):
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_text(surface_text)
    good = write(tmp_path, "t.json", theta(3))
    for argv in (["validate", str(unreadable)], ["moves", "apply", good, move_text]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("schema error:"), argv
        assert "Traceback" not in captured.err, argv


DANGLING_COMMANDS = [
    ("validate", "FILE"),
    ("invariants", "FILE"),
    ("moves", "list", "FILE"),
    ("moves", "apply", "FILE", '{"move": "ix", "region": "r1", "kind": "normal_annulus"}'),
    ("normalize", "FILE"),
    ("iso", "FILE", "FILE"),
    ("equiv", "FILE", "FILE"),
    ("minor", "FILE", "FILE"),
    ("screen", "FILE"),
]


@pytest.mark.parametrize("argv", DANGLING_COMMANDS,
                         ids=lambda a: " ".join(w for w in a[:2] if w != "FILE"))
@pytest.mark.parametrize("mode", ["strict", "minor"])
def test_cli_dangling_slot_is_refused(tmp_path, capsys, argv, mode):
    doc = json.loads(serialize(theta(3)))
    doc["mode"] = mode
    doc["loci"][0]["slots"][1] = "zzz"
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    code = main([str(path) if a == "FILE" else a for a in argv])
    captured = capsys.readouterr()
    if argv[0] == "validate":
        payload = json.loads(captured.out)
        assert code == 1 and not payload["valid"]
        assert "dangling-slot" in [v["rule"] for v in payload["violations"]]
    else:
        assert code == 2 and captured.out == ""
        assert "dangling-slot" in captured.err


BUDGET_FLAGS = [(flag, "equiv") for flag in ("--max-depth", "--max-states", "--max-cells")]
BUDGET_FLAGS.append(("--max-states", "minor"))


@pytest.mark.parametrize("flag, command", BUDGET_FLAGS,
                         ids=[f"{flag}-{command}" for flag, command in BUDGET_FLAGS])
def test_cli_non_positive_budget_is_usage_error(tmp_path, capsys, command, flag):
    mode = ValidityMode.MINOR if command == "minor" else ValidityMode.STRICT
    path = write(tmp_path, "theta3.json", theta(3, mode))
    code = main([command, path, path, flag, "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "budget" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["equiv", "minor"])
@pytest.mark.parametrize("seconds", ["0", "-1", "nan"])
def test_cli_non_positive_time_limit_is_usage_error(tmp_path, capsys, command,
                                                    seconds):
    mode = ValidityMode.MINOR if command == "minor" else ValidityMode.STRICT
    path = write(tmp_path, "theta3.json", theta(3, mode))
    code = main([command, path, path, f"--time-limit={seconds}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid search budget")
    assert "Traceback" not in captured.err


def _far_pair(command):
    """x, y and flags for a search that needs far more than 0.2 s, with
    every budget component but time out of reach."""
    if command == "equiv":
        spread, _ = maximally_spread(theta(6))
        walked, _ = random_walk(spread, 2, 12)  # found after about 3.5 s
        return spread, walked, ["--max-depth", "12", "--max-states", "1000000",
                                "--max-cells", "200"]
    minor = ValidityMode.MINOR
    crosscaps = closed_surface(orientable=False, genus=5, mode=minor)
    union = disjoint_union(theta(7, minor), theta(8, minor))
    return crosscaps, union, ["--max-states", "1000000"]


@pytest.mark.parametrize("command", ["equiv", "minor"])
def test_cli_time_limit_ends_the_search(tmp_path, capsys, command):
    x, y, flags = _far_pair(command)
    a, b = write(tmp_path, "a.json", x), write(tmp_path, "b.json", y)
    limit = 0.2
    start = time.monotonic()
    code = main([command, a, b, *flags, "--time-limit", str(limit)])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert code == 3 and json.loads(captured.out)["outcome"] == "exhausted"
    assert "Traceback" not in captured.err
    assert elapsed < limit + 0.5


@pytest.mark.parametrize("subcommand, extra", [
    ("list", []),
    ("apply", ['{"move": "ix", "region": "r1", "kind": "normal_annulus"}']),
])
def test_cli_moves_refuse_a_minor_mode_file(tmp_path, capsys, subcommand, extra):
    path = write(tmp_path, "t.json", theta(4, ValidityMode.MINOR))
    code = main(["moves", subcommand, path, *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: IX- and XI-moves are defined on strict surfaces\n"


@pytest.mark.parametrize("command", ["equiv", "minor"])
def test_cli_budget_flags_default_to_search_budget(tmp_path, monkeypatch, command):
    # the flags keep no defaults of their own: SearchBudget's are the ones
    monkeypatch.setattr(SearchBudget.__init__, "__defaults__", (3, 7, 11, 2.5))
    passed = []

    def search(x, y, budget, mode):
        passed.append(budget)
        return ExhaustedWithinBudget() if command == "equiv" else MinorOutcome(None, False)

    monkeypatch.setattr(mbs.search, "search_equivalence", search)
    monkeypatch.setattr(mbs.minors, "is_minor", search)
    mode = ValidityMode.MINOR if command == "minor" else ValidityMode.STRICT
    path = write(tmp_path, "theta3.json", theta(3, mode))
    assert main([command, path, path]) == 3
    assert passed == [SearchBudget()] == [SearchBudget(3, 7, 11, 2.5)]


@pytest.mark.parametrize("flag", ["--max-depth", "--max-cells"])
def test_cli_minor_has_no_depth_or_cell_budget(tmp_path, capsys, flag):
    # the minor search is bounded by states (and time) only
    path = write(tmp_path, "theta3.json", theta(3, ValidityMode.MINOR))
    code = main(["minor", path, path, flag, "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert flag in captured.err and "Traceback" not in captured.err


def test_cli_byte_stability(tmp_path, capsys, theta3):
    path = write(tmp_path, "theta3.json", theta3)
    main(["invariants", path])
    first = capsys.readouterr().out
    main(["invariants", path])
    second = capsys.readouterr().out
    assert first == second


# main builds the subparser of argv[0] alone, unless argv[0] names no command
PARSER_ARGVS = [argv for argv, _ in COMMANDS] + [
    [], ["-h"], ["validate", "-h"], ["moves", "-h"], ["moves", "list", "-h"],
    ["bogus"], ["moves", "bogus"], ["gen", "bogus"], ["-x", "validate", "t.json"],
    ["iso", "t.json"],  # a missing positional
    ["iso", "t.json", "t.json", "--symmetry", "bogus"],
    ["validate", "t.json", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_cli_prints_what_the_parser_of_every_command_prints(tmp_path, monkeypatch,
                                                            capsys, argv):
    (tmp_path / "t.json").write_bytes(serialize(theta(4)))
    (tmp_path / "m.json").write_bytes(serialize(theta(4, ValidityMode.MINOR)))
    monkeypatch.chdir(tmp_path)
    ran = main(argv), *capsys.readouterr()
    every = mbs.cli.build_parser
    monkeypatch.setattr(mbs.cli, "build_parser", lambda command=None: every())
    assert (main(argv), *capsys.readouterr()) == ran
