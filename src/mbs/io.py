"""The "mbs/1" JSON interchange format.

A surface document looks like::

    {
      "format": "mbs/1",
      "mode": "strict",
      "regions": [{"id": "r1", "orientable": true, "genus": 0,
                   "boundaries": ["r1.a", "r1.b"]}],
      "loci": [{"id": "b1", "wrapping": 1, "slots": ["r1.a", "r1.b"],
                "signs": [1, -1]}]
    }

Slot lists are the normative cyclic order with an arbitrary basepoint that
round-trips verbatim.  ``signs`` is optional and omitted when every sign is
+1, so documents describing freshly built surfaces carry no extra field.

The readers check the shape only: fields, types, non-empty string ids and
one sign per slot.  Shape violations raise :class:`SchemaError` with a
JSON-pointer-style path; syntax errors carry line and column.  Whether the
surface is valid is for :func:`mbs.model.validate` to judge, and whether a
move applies is for the move layer.
"""

from __future__ import annotations

import json

from .errors import SchemaError
from .model import (
    BranchLocus,
    MultibranchedSurface,
    Region,
    RegionClass,
    RegionTopology,
    ValidityMode,
)

FORMAT = "mbs/1"


def _expect(condition, rule, path):
    if not condition:
        raise SchemaError(rule, path)


def _check_keys(obj, required, optional, path):
    _expect(isinstance(obj, dict), "expected an object", path)
    for key in required:
        _expect(key in obj, f"missing required field {key!r}", path)
    unknown = set(obj) - set(required) - set(optional)
    _expect(not unknown, f"unknown fields {sorted(unknown)}", path)


def _string(value, path):
    _expect(isinstance(value, str) and value, "expected a non-empty string", path)
    return value


def _int(value, path):
    _expect(isinstance(value, int) and not isinstance(value, bool),
            "expected an integer", path)
    return value


def surface_to_document(surface: MultibranchedSurface) -> dict:
    regions = []
    for r in surface.regions:
        regions.append({
            "id": r.id,
            "orientable": r.topology.orientable,
            "genus": r.topology.genus,
            "boundaries": list(r.boundary_circles),
        })
    loci = []
    for l in surface.loci:
        item = {"id": l.id, "wrapping": l.wrapping, "slots": list(l.slots)}
        if any(s != 1 for s in l.signs):
            item["signs"] = list(l.signs)
        loci.append(item)
    return {
        "format": FORMAT,
        "mode": surface.mode.value,
        "regions": regions,
        "loci": loci,
    }


def serialize(surface: MultibranchedSurface) -> bytes:
    """Serialize with a fixed key order; byte-stable for equal surfaces."""
    return (json.dumps(surface_to_document(surface), indent=2) + "\n").encode("utf-8")


def document_to_surface(doc) -> MultibranchedSurface:
    _check_keys(doc, ("format", "mode", "regions", "loci"), (), "$")
    _expect(doc["format"] == FORMAT, f"format must be {FORMAT!r}", "$.format")
    _expect(doc["mode"] in ("strict", "minor"),
            "mode must be 'strict' or 'minor'", "$.mode")
    mode = ValidityMode(doc["mode"])
    _expect(isinstance(doc["regions"], list), "expected a list", "$.regions")
    _expect(isinstance(doc["loci"], list), "expected a list", "$.loci")

    regions = []
    for i, item in enumerate(doc["regions"]):
        path = f"$.regions[{i}]"
        _check_keys(item, ("id", "orientable", "genus", "boundaries"), (), path)
        rid = _string(item["id"], path + ".id")
        _expect(isinstance(item["orientable"], bool), "expected a boolean",
                path + ".orientable")
        genus = _int(item["genus"], path + ".genus")
        _expect(isinstance(item["boundaries"], list), "expected a list",
                path + ".boundaries")
        boundaries = tuple(_string(c, f"{path}.boundaries[{j}]")
                           for j, c in enumerate(item["boundaries"]))
        topology = RegionTopology(item["orientable"], genus, len(boundaries))
        regions.append(Region(rid, topology, boundaries))

    loci = []
    for i, item in enumerate(doc["loci"]):
        path = f"$.loci[{i}]"
        _check_keys(item, ("id", "wrapping", "slots"), ("signs",), path)
        lid = _string(item["id"], path + ".id")
        wrapping = _int(item["wrapping"], path + ".wrapping")
        _expect(isinstance(item["slots"], list), "expected a list", path + ".slots")
        slots = tuple(_string(c, f"{path}.slots[{j}]")
                      for j, c in enumerate(item["slots"]))
        signs = ()
        if "signs" in item:
            spath = path + ".signs"
            _expect(isinstance(item["signs"], list), "expected a list", spath)
            # shape, not a rule: BranchLocus would read empty signs as all +1
            _expect(len(item["signs"]) == len(slots),
                    "signs must match slots in length", spath)
            signs = tuple(_int(s, f"{spath}[{j}]")
                          for j, s in enumerate(item["signs"]))
        loci.append(BranchLocus(lid, wrapping, slots, signs))

    return MultibranchedSurface(tuple(regions), tuple(loci), mode)


def _read_json(data: bytes | str):
    """The JSON value of ``data``; anything the decoder cannot read, such
    as bad syntax, nesting too deep or an integer too long to convert,
    raises :class:`SchemaError`."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"invalid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"unreadable JSON: {exc}") from None


def parse(data: bytes | str) -> MultibranchedSurface:
    return document_to_surface(_read_json(data))


def load(path) -> MultibranchedSurface:
    with open(path, "rb") as handle:
        return parse(handle.read())


# -- move descriptors and records ------------------------------------------
# These import mbs.moves when called, so that reading and writing surfaces
# does not load the move layer.

def _xi_variants() -> dict:
    """The XI move documents: variant -> (descriptor class, its integer
    fields in dataclass order).  Every XI document also names its locus."""
    from .moves import MoebiusSplit, NormalSplit, QuasiSplit

    return {"normal_split": (NormalSplit, ("gap_a", "gap_b")),
            "quasi_split": (QuasiSplit, ("start", "length")),
            "moebius_split": (MoebiusSplit, ("cut_gap",))}


def move_to_document(move) -> dict:
    from .moves import IXSite

    if isinstance(move, IXSite):
        return {"move": "ix", "region": move.region_id, "kind": move.kind.value}
    for variant, (cls, fields) in _xi_variants().items():
        if isinstance(move, cls):
            return {"move": "xi", "variant": variant, "locus": move.locus_id,
                    **{field: getattr(move, field) for field in fields}}
    raise TypeError(f"not a move descriptor: {move!r}")


def document_to_move(doc):
    return _document_to_move(doc, "$")


def _document_to_move(doc, path):
    """The move descriptor ``doc`` describes; errors name paths under ``path``."""
    from .moves import IXSite

    variants = _xi_variants()
    _check_keys(doc, ("move",),
                ("region", "kind", "variant", "locus",
                 *(field for _, fields in variants.values() for field in fields)), path)
    if doc["move"] == "ix":
        _check_keys(doc, ("move", "region", "kind"), (), path)
        try:
            kind = RegionClass(doc["kind"])
        except ValueError:
            raise SchemaError(f"unknown region class {doc['kind']!r}", path + ".kind") \
                from None
        return IXSite(_string(doc["region"], path + ".region"), kind)
    _expect(doc["move"] == "xi", "move must be 'ix' or 'xi'", path + ".move")
    variant = doc.get("variant")
    _expect(isinstance(variant, str) and variant in variants,
            f"unknown variant {variant!r}", path + ".variant")
    cls, fields = variants[variant]
    _check_keys(doc, ("move", "variant", "locus", *fields), (), path)
    return cls(_string(doc["locus"], path + ".locus"),
               *(_int(doc[field], f"{path}.{field}") for field in fields))


def record_to_document(record) -> list:
    """The steps of a :class:`~mbs.moves.MoveRecord` as a JSON list."""
    return [{"move": move_to_document(step.move),
             "hash_before": step.hash_before,
             "hash_after": step.hash_after}
            for step in record.steps]


def document_to_record(doc):
    """The :class:`~mbs.moves.MoveRecord` a JSON list of steps describes."""
    from .moves import MoveRecord, MoveStep

    _expect(isinstance(doc, list), "expected a list of steps", "$")
    steps = []
    for i, item in enumerate(doc):
        path = f"$[{i}]"
        _check_keys(item, ("move", "hash_before", "hash_after"), (), path)
        steps.append(MoveStep(_document_to_move(item["move"], path + ".move"),
                              _int(item["hash_before"], path + ".hash_before"),
                              _int(item["hash_after"], path + ".hash_after")))
    return MoveRecord(tuple(steps))
