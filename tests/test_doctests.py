"""Run the docstring examples of the modules that carry them.

Pytest collects only ``tests/``, so without this file the examples in the
package's docstrings would never run with the rest of the suite.
"""

import doctest
import importlib

import pytest


# imported by name: the package attribute ``modcat.qz`` is the function qz
@pytest.mark.parametrize("name", ["modcat.qz", "modcat.cohomology", "modcat.smith"])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
