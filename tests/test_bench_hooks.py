"""The names the benchmark's tracer hooks into must exist in the package.

``bench/tracer.py`` wraps the context classes, reads the cache counters of
the cached ``monoid`` functions and times the checkers, all by name. A name
that moves or disappears breaks ``bench/run.py --trace 1`` (and the bench
smoke test, which the tier-1 suite does not collect), so the suite checks
the tracer's lists against the package here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from monlat import checks, context, monoid

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_context_classes_exist(tracer):
    for name in tracer.CONTEXT_CLASSES:
        assert inspect.isclass(getattr(context, name, None)), name


def test_cached_names_are_cached_monoid_functions(tracer):
    for name in tracer.CACHED:
        fn = getattr(monoid, name, None)
        assert callable(fn) and hasattr(fn, "cache_info"), name


def test_checkers_exist(tracer):
    for name in tracer.CHECKERS:
        assert callable(getattr(checks, name, None)), name
