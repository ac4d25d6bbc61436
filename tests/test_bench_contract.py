"""What the benchmark in bench/ uses of the package still exists.

bench/tracing.py wraps the functions it lists in TRACED, and bench/workloads.py
sets ``cohomology.CACHE_ENV`` and calls ``classify(cat, jobs=1)``; a rename
here would make every traced or measured operation fail.
"""

import importlib
import importlib.util
from pathlib import Path

from modcat import classify, cohomology, kp_category

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = load_tracing().TRACED
    assert traced
    for _, module, attr in traced:
        owner = importlib.import_module(module)
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, attr)


def test_workload_entry_points_exist():
    assert cohomology.CACHE_ENV == "MODCAT_SNF_CACHE"
    assert classify(kp_category().category, jobs=1).class_count == 6
