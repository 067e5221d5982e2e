"""The names the benchmark harness looks up in ``mbs`` must keep resolving:
``bench/tracer.py`` wraps the functions listed in its ``GROUPS`` and
``bench/ops.py`` clears the labelling cache through ``_canonical``."""

import importlib.util
import pathlib
import sys

import mbs.isomorphism
import mbs.moves
import mbs.search
from mbs import theta

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for group, (module_name, names) in load_tracer().GROUPS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{group}: {module_name}.{name}"


def test_labelling_cache_can_be_cleared():
    assert callable(mbs.isomorphism._canonical.cache_clear)
    assert callable(mbs.isomorphism._canonical.cache_info)


def test_tracer_spans_the_aliased_appliers_once_and_restores_them():
    # apply_ix, apply_xi and apply_move are one function under three names:
    # one call opens one moves.apply span, and uninstall puts every binding
    # of every mbs module back
    modules = {name: m for name, m in sys.modules.items()
               if m is not None and (name == "mbs" or name.startswith("mbs."))}
    before = {(name, attr): value for name, m in modules.items()
              for attr, value in vars(m).items()}
    surface = theta(3)
    site = mbs.moves.enumerate_ix(surface)[0]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert mbs.moves.apply_ix is not before[("mbs.moves", "apply_ix")]
        mbs.moves.apply_ix(surface, site)
    finally:
        tracer.uninstall()
    apply = tracer.groups.index("moves.apply")
    assert [span[0] for span in tracer.spans].count(apply) == 1
    for (name, attr), value in before.items():
        assert vars(modules[name])[attr] is value, f"{name}.{attr}"
