"""What perfbench/ relies on in the package must hold in the package.

The benchmark's tracer looks up every function in FUNCTION_LAYERS with
getattr and every READ_METHODS attribute in its class __dict__, so a
deletion in src that it still names breaks `perfbench/run.py --trace 1`.
It counts reads on the base handle classes only, so a handle class that
overrode a read method would read uncounted. The benchmark also checks
every trial's ledger against the identities of `workloads.ledger_problems`,
and a traced campaign's call counts against the untraced one's.
These tests make each of those a test failure instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

from mvamp import oracle
from mvamp.field import PrimeField
from mvamp.harness import (
    ExperimentConfig,
    _trial_input,
    build_reduction_config,
    build_solver,
    trial_rng,
)
from mvamp.linalg import FpMatrix, FpVector, matvec
from mvamp.reduction import choose_block_count, worst_case_matvec

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import campaign
    import tracing
    from workloads import WORKLOADS, ledger_problems
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


@pytest.mark.parametrize("queries_per_call", [None, 7])
@pytest.mark.parametrize("accounting", ["paper", "actual"])
@pytest.mark.parametrize("n", [4, 5])  # k = 2 divides 4; 5 is padded to 6
def test_pipeline_ledgers_satisfy_the_benchmark_identities(n, accounting, queries_per_call):
    # a goodbad solver with a small stage-1 budget makes stage 3 and the
    # boost loop retry, so every term of the identities is exercised
    config = ExperimentConfig(
        modulus=5, n=n, trials=4, alpha=0.5, seed=3, profile="goodbad", predicate="v_first_even",
        alpha_good=0.9, alpha_bad=0.2, k=2, c1=2.0, accounting=accounting,
        queries_per_call=queries_per_call,
    )
    field = PrimeField(config.modulus)
    retried = False
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        matrix, vector = _trial_input(config, field, trial, rng)
        ledger = oracle.QueryLedger()
        outcome = worst_case_matvec(
            oracle.wrap_matrix(matrix, ledger),
            oracle.wrap_vector(vector, ledger),
            build_solver(config),
            build_reduction_config(config),
            rng,
        )
        assert outcome.result is None or outcome.result == matvec(matrix, vector)
        stats = outcome.stats
        retried |= stats.stage3_iters > stats.boost_rounds_total * 2
        problems = ledger_problems(config, ledger.snapshot(), stats, outcome.block_count, outcome.padded_n)
        assert not problems, (trial, problems)
    assert retried


@pytest.mark.parametrize("alpha, k", [(0.5, 17), (0.25, 23), (0.125, 28), (0.0625, 34)])
def test_reference_script_block_count_is_the_k_its_trial_runs(alpha, k):
    # perfbench/reference.py builds each config this way and prints
    # choose_block_count(alpha, cfg.n, cfg.k_mode, cfg.c0), called by position,
    # as the k column of its table; nothing else runs that script
    cfg = ExperimentConfig(modulus=5, n=8, trials=1, alpha=alpha, profile="uniform", seed=0)
    assert choose_block_count(alpha, cfg.n, cfg.k_mode, cfg.c0) == build_reduction_config(cfg).resolved_k() == k


def test_traced_campaign_passes_the_benchmark_checks():
    # `perfbench/run.py --trace 1` in miniature: the fewest pairs of untraced
    # and traced campaigns per_layer runs, on the smaller workload; a change
    # in src that makes the trace miss or add a layer call, or a trial's
    # result or ledger go wrong, is reported in bench.problems
    bench = campaign.Bench(WORKLOADS["large-modulus"], 11, str(Path(PERFBENCH).parent / "src"))
    metrics = campaign.per_layer(bench, seconds=0)
    assert not bench.problems, bench.problems
    assert bench.attempted == 4 * len(bench.inputs)
    assert metrics["verify.calls"][0] > 0
