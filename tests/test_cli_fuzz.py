"""Seeded fuzzing of the command line over valid and near-valid documents.

Each document is a random surface in either validity mode with one to three
mutations applied to its ``mbs/1`` document.  Every command must end in one
of the documented exit codes, never in an uncaught exception, and must print
JSON on stdout whenever it is not a usage or schema error.

``normalize --policy exhaustive`` is left out: exhaustive spreading has no
budget yet.
"""

import json
import random

from mbs import ValidityMode, random_surface
from mbs import io as mbs_io
from mbs.cli import main

DOCUMENTS = 100


def _mutate(doc, rng):
    kind = rng.choice(("wrapping", "drop_slot", "genus", "orientable", "mode",
                       "extra_circle", "signs", "id"))
    loci, regions = doc["loci"], doc["regions"]
    if kind == "wrapping" and loci:
        rng.choice(loci)["wrapping"] = rng.choice((0, 2, 5))
    elif kind == "drop_slot" and any(l["slots"] for l in loci):
        locus = rng.choice([l for l in loci if l["slots"]])
        i = rng.randrange(len(locus["slots"]))
        del locus["slots"][i]
        if "signs" in locus:
            del locus["signs"][i]
    elif kind == "genus" and regions:
        rng.choice(regions)["genus"] = rng.randint(0, 3)
    elif kind == "orientable" and regions:
        region = rng.choice(regions)
        region["orientable"] = not region["orientable"]
    elif kind == "mode":
        doc["mode"] = "minor" if doc["mode"] == "strict" else "strict"
    elif kind == "extra_circle" and regions:
        rng.choice(regions)["boundaries"].append(f"fuzz{rng.randrange(10**6)}")
    elif kind == "signs" and loci:
        locus = rng.choice(loci)
        locus["signs"] = [rng.choice((1, -1)) for _ in locus["slots"]]
    elif kind == "id" and regions + loci:  # a suffix too long for int()
        rng.choice(regions + loci)["id"] += "9" * rng.randint(4301, 5000)
    return kind


def _documents():
    rng = random.Random("mbs/cli-fuzz")
    kinds = set()
    docs = []
    for i in range(DOCUMENTS):
        mode = rng.choice((ValidityMode.STRICT, ValidityMode.MINOR))
        surface = random_surface(rng.randrange(10**6), rng.randint(3, 14), mode)
        doc = mbs_io.surface_to_document(surface)
        for _ in range(rng.randint(1, 3)):
            kinds.add(_mutate(doc, rng))
        docs.append(doc)
    return docs, kinds


def test_cli_survives_mutated_documents(tmp_path, capsys):
    docs, kinds = _documents()
    assert len(kinds) == 8
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"d{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    codes = set()
    for i, path in enumerate(paths):
        other = paths[(i + 1) % len(paths)] if i % 2 else path
        for argv in (["validate", path], ["invariants", path],
                     ["moves", "list", path], ["normalize", path],
                     ["screen", path], ["iso", path, other],
                     ["equiv", path, other, "--max-depth", "1",
                      "--max-states", "200"],
                     ["minor", path, other, "--max-states", "200"]):
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 1, 2, 3), argv
            if code != 2:
                json.loads(out)
            codes.add(code)
    # the mutations reach both accepted and refused inputs
    assert {0, 1, 2} <= codes
