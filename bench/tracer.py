"""Spans around the public entry points of each ``mbs`` layer.

``Tracer.install`` rebinds each traced function in every ``mbs.*`` module
namespace that holds it (``canonical_form`` lives in ``mbs.isomorphism``,
``mbs.search``, ``mbs.minors`` and the package itself), and ``uninstall``
puts the originals back.  Functions are grouped under metric names such as
``moves.apply`` (``apply_move``, ``apply_ix``, ``apply_xi``).  A call made
inside a span of the same group folds into it; a call into another group
opens a child span.  A group's self time is its span time minus the time of
its child spans.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

# metric group -> (module, function names)
GROUPS = {
    "io.parse": ("mbs.io", ("parse", "load", "document_to_surface")),
    "io.serialize": ("mbs.io", ("serialize", "surface_to_document")),
    "io.moves": ("mbs.io", ("move_to_document", "document_to_move",
                            "record_to_document", "document_to_record")),
    "model.validate": ("mbs.model", ("validate",)),
    "model.invariants": ("mbs.model", ("euler_characteristic", "connected_components")),
    "model.classify": ("mbs.model", ("classify_region", "locus_profile")),
    "algebra.smith_normal_form": ("mbs.algebra", ("smith_normal_form",)),
    "algebra.build_chain_complex": ("mbs.algebra", ("build_chain_complex",)),
    "algebra.homology_profile": ("mbs.algebra", ("homology_profile",)),
    "algebra.decomposition": ("mbs.algebra", ("decomposition_summary", "boundary_euler")),
    "isomorphism.canonical_form": ("mbs.isomorphism", ("canonical_form",)),
    "isomorphism.canonical_hash": ("mbs.isomorphism", ("canonical_hash",)),
    "isomorphism.are_isomorphic": ("mbs.isomorphism", ("are_isomorphic",)),
    "moves.enumerate": ("mbs.moves", ("enumerate_ix", "enumerate_xi")),
    "moves.apply": ("mbs.moves", ("apply_move", "apply_ix", "apply_xi", "apply_ih")),
    "moves.maximally_spread": ("mbs.moves", ("maximally_spread", "all_maximal_spreadings")),
    "moves.replay": ("mbs.moves", ("replay",)),
    "moves.spread_checks": ("mbs.moves", ("is_maximally_spread_surface",
                                          "is_maximally_spread_region",
                                          "spread_potential")),
    "search.search_equivalence": ("mbs.search", ("search_equivalence",)),
    "search.neighbors": ("mbs.search", ("neighbors",)),
    "search.random_walk": ("mbs.search", ("random_walk",)),
    "minors.is_minor": ("mbs.minors", ("is_minor", "less_than", "tilde_equivalent")),
    "minors.reductions": ("mbs.minors", ("apply_reduction",)),
    "minors.enumerate": ("mbs.minors", ("enumerate_reductions",)),
    "minors.screen": ("mbs.minors", ("obstruction_screen",)),
    "cli.main": ("mbs.cli", ("main",)),
}
LAYERS = ("io", "model", "algebra", "isomorphism", "moves", "search", "minors", "cli")


class Tracer:
    """Records spans ``[group, start, end, parent, op]`` for calls into mbs."""

    def __init__(self):
        self.groups = list(GROUPS)
        self.spans: list[list] = []
        self.stack: list[int] = []  # open span indices
        self.op = None
        self.snf_entries = 0
        self.successors = 0
        self._saved: list[tuple] = []

    def _wrap(self, gid: int, group: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == gid:
                return fn(*args, **kwargs)  # folds into the enclosing span
            span = [gid, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if group == "algebra.smith_normal_form":
                self.snf_entries += args[0].rows * args[0].cols
            elif group == "search.neighbors":
                self.successors += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        homes = {name: importlib.import_module(name) for name, _ in GROUPS.values()}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "mbs" or name.startswith("mbs."))]
        for gid, (group, (module_name, names)) in enumerate(GROUPS.items()):
            home = homes[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(gid, group, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self):
        """Per group: (outermost calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for gid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.groups)
        self_s = [0.0] * len(self.groups)
        for i, (gid, start, end, _, _) in enumerate(self.spans):
            calls[gid] += 1
            self_s[gid] += (end - start) - child[i]
        return {g: (calls[i], self_s[i]) for i, g in enumerate(self.groups)}

    def dump(self, path: str):
        with gzip.open(path, "wt") as handle:
            json.dump({"groups": self.groups, "spans": self.spans}, handle)


def layer_metrics(times: dict, snf_entries: int, successors: int) -> dict:
    """Per-layer metrics from summed ``self_times`` (group -> [calls, self_s])."""
    def calls(group):
        return times[group][0]

    def self_s(*groups):
        return sum(times[g][1] for g in groups)

    out = {
        "algebra.smith_normal_form.self_s": self_s("algebra.smith_normal_form"),
        "algebra.smith_normal_form.calls": calls("algebra.smith_normal_form"),
        "algebra.snf_entries": snf_entries,
        "algebra.build_chain_complex.self_s": self_s("algebra.build_chain_complex"),
        "algebra.homology_profile.calls": calls("algebra.homology_profile"),
        "isomorphism.canonical_form.calls": calls("isomorphism.canonical_form"),
        "isomorphism.canonical_form.self_s": self_s("isomorphism.canonical_form"),
        "isomorphism.are_isomorphic.calls": calls("isomorphism.are_isomorphic"),
        "isomorphism.are_isomorphic.self_s": self_s("isomorphism.are_isomorphic"),
        "moves.enumerate.calls": calls("moves.enumerate"),
        "moves.enumerate.self_s": self_s("moves.enumerate"),
        "moves.apply.calls": calls("moves.apply"),
        "moves.apply.self_s": self_s("moves.apply"),
        "moves.maximally_spread.self_s": self_s("moves.maximally_spread"),
        "moves.replay.self_s": self_s("moves.replay"),
        "search.search_equivalence.calls": calls("search.search_equivalence"),
        "search.search_equivalence.self_s": self_s("search.search_equivalence"),
        "search.neighbors.calls": calls("search.neighbors"),
        "search.successors": successors,
        "minors.is_minor.calls": calls("minors.is_minor"),
        "minors.is_minor.self_s": self_s("minors.is_minor"),
        "minors.reductions": calls("minors.reductions"),
        "io.parse.calls": calls("io.parse"),
        "io.parse.self_s": self_s("io.parse"),
        "io.serialize.calls": calls("io.serialize"),
        "io.serialize.self_s": self_s("io.serialize"),
        "model.validate.calls": calls("model.validate"),
        "model.validate.self_s": self_s("model.validate"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(*(g for g in times if g.startswith(layer + ".")))
    return out
