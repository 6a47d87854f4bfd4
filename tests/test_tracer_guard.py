"""The benchmark's per-layer tracer must still install on partlab.

``perfbench/layers.py`` wraps partlab functions by name for
``perfbench/run.py --trace 1``; deleting or renaming one of them breaks
the traced run, and this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

import partlab
import partlab.cli  # noqa: F401  (the tracer wraps cli.main)
from partlab.counting import PartitionTable
from partlab.rng import RandomStream

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "partlab" or name.startswith("partlab.")]
    return modules + [PartitionTable, RandomStream]


def _attributes():
    return [dict(vars(owner)) for owner in _owners()]


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_installs_and_restores_every_attribute():
    layers = _load_layers()
    before = _attributes()
    tracer = layers.Tracer(partlab)
    try:
        patched = list(tracer._patches)
        during = _attributes()
    finally:
        tracer.uninstall()
    after = _attributes()
    assert patched
    assert not all(_same(a, b) for a, b in zip(before, during))
    for owner, name, original in patched:
        assert vars(owner)[name] is original
    assert all(_same(a, b) for a, b in zip(before, after))
