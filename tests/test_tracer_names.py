"""Every function the benchmark tracer times still exists in the package.

``bench/tracer.py`` binds each ``TARGETS`` entry by name, so a renamed or
deleted function would stop the traced benchmark run. The tracer is loaded
by path and only read: ``install`` is not called, so nothing is patched.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for module, paths in tracer.TARGETS.items() for path in paths]


@pytest.mark.parametrize("module_name, path", _targets(), ids=lambda value: value)
def test_target_resolves(module_name, path):
    module = importlib.import_module(f"sfvda.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # methods are patched on their class, so they must be its own
        raw = getattr(module, owner_name).__dict__[attr]
        assert callable(raw.__func__ if isinstance(raw, staticmethod) else raw), path
    else:
        assert callable(getattr(module, attr)), path
