"""The names perfbench/tracing.py patches must exist in the package.

The benchmark's tracer looks up every function in FUNCTION_LAYERS with
getattr and every READ_METHODS attribute in its class __dict__, so a
deletion in src that it still names breaks `perfbench/run.py --trace 1`.
It counts reads on the base handle classes only, so a handle class that
overrode a read method would read uncounted. These tests make both a test
failure instead.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from mvamp import oracle
from mvamp.field import PrimeField
from mvamp.linalg import FpMatrix, FpVector

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



def test_built_handles_read_through_the_traced_methods():
    # the tracer counts reads on the base-class methods, so a handle class
    # overriding one of them would read without being counted
    f, led = PrimeField(5), oracle.QueryLedger()
    matrix, vector = FpMatrix(f, [[1, 2], [3, 4]]), FpVector(f, [1, 2])
    m, v = oracle.wrap_matrix(matrix, led), oracle.wrap_vector(vector, led)
    sample_args = {
        "wrap_matrix": (matrix, led),
        "wrap_vector": (vector, led),
        "concat_rows": ([m, m],),
        "concat_cols": ([m, m],),
        "concat_vectors": ([v, v],),
        "embed_block_matrix": (m, 1, 2),
        "extract_block": (m, 1, 0, 1),
        "extract_submatrix": (m, 1, 1),
        "extract_submatrix_cols": (m, 1, 1),
        "extract_subvector": (v, 1, 1),
        "pad_square_matrix": (m, 3),
        "pad_vector": (v, 3),
        "sum_vector_oracles": ([v, v],),
        "plant_rows": (np.zeros((4, 2), dtype=np.int64), m, 1),
        "plant_vector": (np.zeros(4, dtype=np.int64), v, 1),
    }
    home, builders = tracing.FUNCTION_LAYERS["oracle.build"]
    assert home == "mvamp.oracle"
    unsampled = set(builders) - set(sample_args)
    assert not unsampled, f"no sample arguments for {sorted(unsampled)}"
    for name, args in sample_args.items():
        handle = getattr(oracle, name)(*args)
        traced = [(cls, attr) for cls, attr in tracing.READ_METHODS if isinstance(handle, cls)]
        assert traced, f"{name} returned an untraced {type(handle).__name__}"
        overridden = [attr for cls, attr in traced if getattr(type(handle), attr) is not cls.__dict__[attr]]
        assert not overridden, f"{name}: {type(handle).__name__} overrides {overridden}"
