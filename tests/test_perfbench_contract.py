"""The names perfbench/tracing.py patches must exist in the package.

The benchmark's tracer looks up every function in FUNCTION_LAYERS with
getattr and every READ_METHODS attribute in its class __dict__, so a
deletion in src that it still names breaks `perfbench/run.py --trace 1`.
These tests make that a test failure instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("layer", sorted(tracing.FUNCTION_LAYERS))
def test_function_layers_resolve(layer):
    home, attrs = tracing.FUNCTION_LAYERS[layer]
    module = importlib.import_module(home)
    missing = [attr for attr in attrs if not callable(getattr(module, attr, None))]
    assert not missing, f"{layer}: {home} lacks {missing}"


def test_read_methods_are_defined_on_their_class():
    missing = [f"{cls.__name__}.{attr}" for cls, attr in tracing.READ_METHODS if attr not in cls.__dict__]
    assert not missing, missing

