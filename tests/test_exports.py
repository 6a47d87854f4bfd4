"""Every name a partlab module exports in ``__all__`` exists, no
function takes a size-limit override, and only ``partlab.rng`` builds
random generators."""

import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_no_size_limit_overrides(name):
    # each exact or dense computation has one fixed size limit
    module = importlib.import_module(name)
    functions = [f for _, f in inspect.getmembers(module, inspect.isfunction)
                 if f.__module__ == name]
    for _, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ == name:
            functions += [f for _, f in inspect.getmembers(cls, inspect.isfunction)]
    overrides = [f"{f.__qualname__}({p})" for f in functions
                 for p in inspect.signature(f).parameters
                 if p in ("cap", "jitter", "max_weight")]
    assert overrides == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "partlab.rng"])
def test_only_rng_names_numpy_random(name):
    # every variate comes from a RandomStream, so the generator and its
    # keying live in one module
    source = inspect.getsource(importlib.import_module(name))
    assert "np.random" not in source
    assert "numpy.random" not in source
