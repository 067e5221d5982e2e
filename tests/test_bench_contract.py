"""The names the benchmark harness looks up in ``mbs`` must keep resolving:
``bench/tracer.py`` wraps the functions listed in its ``GROUPS`` and
``bench/ops.py`` clears the labelling cache through ``_canonical``."""

import importlib.util
import pathlib

import mbs.isomorphism

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
