"""The benchmark tracer wraps names on ``qpmatch`` modules and classes by lookup.

``benchmarks/tracing.py`` reads ``owner.__dict__[attr]`` for every entry of its
patch table, so a traced benchmark run dies with KeyError as soon as one of
those names stops being bound.  This test catches such a deletion in the
regular suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("qpmatch_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    table = _load_tracing()._patch_table()
    assert table
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in table if attr not in owner.__dict__]
    assert missing == []
