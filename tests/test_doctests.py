"""Every docstring example in the package runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import esdlab


def test_module_doctests_pass():
    names = ["esdlab"] + [info.name for info in pkgutil.iter_modules(esdlab.__path__, "esdlab.")]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 13
