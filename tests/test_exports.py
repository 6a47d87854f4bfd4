"""Every name a partlab module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import partlab

MODULES = ["partlab"] + [f"partlab.{info.name}"
                         for info in pkgutil.iter_modules(partlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert missing == []

