"""The package imports nothing but the standard library and itself.

numpy, sympy or networkx may be installed where the suite runs; a runtime
import of any of them would pass every other test there and fail on a
machine without them.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "modcat").glob("*.py"))


def imported_top_levels(path):
    """(line, top-level module name) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_module_of_the_package_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "cohomology.py", "smith.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_relative_or_from_the_standard_library(path):
    outside = [(line, name) for line, name in imported_top_levels(path)
               if name not in sys.stdlib_module_names]
    assert outside == []


def test_the_check_sees_a_third_party_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import qz\nimport json\ndef f():\n    import numpy.linalg\n")
    assert [name for _, name in imported_top_levels(path)] == ["json", "numpy"]
    assert "numpy" not in sys.stdlib_module_names
