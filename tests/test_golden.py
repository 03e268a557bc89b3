"""Golden outputs: fixed-seed campaigns must reproduce committed bytes.

Each case pins a campaign's `trials.csv` and, in `golden/ledgers.json`,
what the CSV does not record: each trial's result, its full ledger
snapshot (the `scratch` source included) and its stage counters
(`verify_calls` included). The criterion-8 campaign and its baseline twin
(`pipeline = baseline`, one unamplified call per trial) also pin their
`summary.json`, and the twin its `trials.csv`. Four `sampler-check` runs
pin their `sampler_check.json` and three `verify-bench` runs their
`verify_bench.json`. A refactor of the pipeline or the harness must leave
every file byte-identical. A per-request
executor, which builds each stage-1 instance and its product on its own
from its slice of the wave's draws, must reproduce every file too.

Regenerate the files (only when a change of output is intended and
recorded) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mvamp import reduction
from mvamp.cli import main
from mvamp.field import PrimeField
from mvamp.harness import (
    _trial_input,
    build_reduction_config,
    build_solver,
    campaign_summary,
    experiment_config_from_values,
    run_campaign,
    trial_rng,
    write_summary_json,
    write_trials_csv,
)
from mvamp.oracle import QueryLedger, wrap_matrix, wrap_vector
from mvamp.reduction import worst_case_matvec

GOLDEN = Path(__file__).resolve().parent / "golden"
LEDGERS = "ledgers.json"

CASES = {
    # the criterion-8 planted campaign
    "criterion8": {
        "modulus": 5,
        "n": 6,
        "trials": 40,
        "alpha": 0.25,
        "profile": "planted",
        "bad_fraction": 0.5,
        "input_mode": "planted-bad",
        "pipeline": "full",
        "k": 2,
        "seed": 123,
        "workers": 1,
    },
    # one criterion-7 style trial: uniform, desk k (k = 23), d = 1
    "uniform_desk": {
        "modulus": 5,
        "n": 8,
        "trials": 1,
        "alpha": 0.25,
        "profile": "uniform",
        "pipeline": "full",
        "k_mode": "desk",
        "c0": 8.0,
        "seed": 0,
    },
    # goodbad solver with stage-3 retries, actual accounting, n = 6 padded to 8
    "goodbad_actual_padded": {
        "modulus": 7,
        "n": 6,
        "trials": 6,
        "alpha": 0.5,
        "profile": "goodbad",
        "predicate": "v_first_even",
        "alpha_good": 0.9,
        "alpha_bad": 0.2,
        "pipeline": "full",
        "k": 4,
        "c1": 2.0,
        "accounting": "actual",
        "seed": 5,
    },
    # p = 2^31 - 1: every product leaves the direct int64 path; n = 15 padded to 16
    "large_modulus": {
        "modulus": 2147483647,
        "n": 15,
        "trials": 4,
        "alpha": 0.5,
        "profile": "uniform",
        "failure_mode": "perturb",
        "pipeline": "full",
        "k": 2,
        "accounting": "actual",
        "seed": 7,
    },
    # planted at p = 2^31 - 1: the profile hashes each planted instance, so the
    # rows read the co-strip values of draw layout v4's masked draws
    "planted_large_modulus": {
        "modulus": 2147483647,
        "n": 8,
        "trials": 6,
        "alpha": 0.25,
        "profile": "planted",
        "bad_fraction": 0.5,
        "input_mode": "planted-bad",
        "pipeline": "full",
        "k": 2,
        "seed": 3,
    },
    # the exact verifier: strict recomputation of M v, no challenges drawn
    "verifier_exact": {
        "modulus": 5,
        "n": 6,
        "trials": 4,
        "alpha": 0.5,
        "profile": "uniform",
        "pipeline": "full",
        "k": 2,
        "verifier_mode": "exact",
        "seed": 11,
    },
}

# campaigns whose summary.json is pinned; the baseline twin stays out of
# CASES because its trials run no pipeline stage to fingerprint
SUMMARY_CASES = {
    "criterion8": CASES["criterion8"],
    "criterion8_baseline": {**CASES["criterion8"], "pipeline": "baseline"},
}
BASELINE = "criterion8_baseline"

# sampler-check runs whose sampler_check.json is pinned
SAMPLER_CASES = {
    # the README example: every set passes
    "readme": ["--modulus", "2", "--dim", "1", "--copies", "8", "--c", "0.95", "--delta", "0.99",
               "--eps", "0.9", "--sets", "20", "--exact"],
    # one set's violation fraction is above delta
    "above_delta": ["--modulus", "3", "--copies", "3", "--c", "0.3", "--delta", "0.5", "--eps", "0.2",
                    "--sets", "4", "--exact"],
    # Monte Carlo conditional rates over an exact density
    "monte_carlo": ["--dim", "3", "--copies", "3", "--c", "0.5", "--delta", "0.6", "--eps", "0.05", "--sets", "4"],
    # 2^30 tuples: Monte Carlo conditional rates over a sampled density
    "sampled_density": ["--modulus", "2", "--dim", "1", "--copies", "30", "--c", "0.2", "--delta", "0.4",
                        "--eps", "0.1", "--sets", "3", "--x-samples", "50", "--y-samples", "400"],
}

# verify-bench runs whose verify_bench.json is pinned; under --assert each exits 0 only within its bounds
VERIFY_CASES = {
    # square, at the default p = 5 and eps = 1e-4
    "square": ["--rows", "4", "--cols", "4", "--trials", "3000", "--seed", "0"],
    # eps = 0.1: t = 2 rounds accept about 1 in 25 wrong outputs, so the rates pin the draws
    "false_accepts": ["--rows", "4", "--cols", "4", "--trials", "3000", "--seed", "0", "--eps", "0.1"],
    # a non-square completeness check at p = 2^31 - 1
    "large_modulus": ["--rows", "6", "--cols", "3", "--trials", "2000", "--seed", "5", "--modulus", "2147483647",
                      "--eps", "0.001"],
}


def trial_fingerprint(config, trial: int) -> dict:
    """One trial as harness.run_trial runs it, keeping what the CSV drops."""
    rng = trial_rng(config.seed, trial)
    field = PrimeField(config.modulus)
    matrix, vector = _trial_input(config, field, trial, rng)
    ledger = QueryLedger()
    outcome = worst_case_matvec(
        wrap_matrix(matrix, ledger),
        wrap_vector(vector, ledger),
        build_solver(config),
        build_reduction_config(config),
        rng,
    )
    return {
        "trial": trial,
        "result": None if outcome.result is None else [int(x) for x in outcome.result.values],
        "ledger": ledger.snapshot(),
        "stats": asdict(outcome.stats),
    }


def plant_each(strips, vectors, slots, co, p):
    """reduction._plant_wave one request at a time: each request takes its own
    run of the wave's co-strip draws, assembles its instance block row by
    block row and sums its M v in Python integers."""
    s, d, n = strips.shape
    runs = co.reshape(s, n // d - 1, d, n)
    instances, products = [], []
    for strip, vector, slot, run in zip(strips, vectors, slots, runs):
        blocks = [None, *run]  # block row t >= 1 holds co-strip t - 1
        blocks[0] = blocks[slot]  # the co-strip the strip displaces, if any
        blocks[slot] = strip
        instance = np.concatenate(blocks).astype(np.int64)
        instances.append(instance)
        products.append(instance.astype(object) @ vector.astype(object) % p)
    return np.stack(instances), np.array(products, dtype=np.int64)


def campaign(values: dict):
    return run_campaign(experiment_config_from_values(dict(values)))


def render_csv(name: str, tmp_dir: Path) -> bytes:
    path = tmp_dir / f"{name}_trials.csv"
    write_trials_csv(campaign({**CASES, **SUMMARY_CASES}[name]).rows, str(path))
    return path.read_bytes()


def render_summary(name: str, tmp_dir: Path) -> bytes:
    path = tmp_dir / f"{name}_summary.json"
    write_summary_json(campaign_summary(campaign(SUMMARY_CASES[name])), str(path))
    return path.read_bytes()


def render_cli(command: str, args: list, tmp_dir: Path) -> bytes:
    """The JSON summary that `mvamp command *args --out DIR` writes; the run must exit 0."""
    out = tmp_dir / command
    assert main([command, *args, "--out", str(out)]) == 0
    return (out / f"{command.replace('-', '_')}.json").read_bytes()


def render_ledgers() -> bytes:
    out = {}
    for name, values in CASES.items():
        config = experiment_config_from_values(dict(values))
        out[name] = [trial_fingerprint(config, t) for t in range(config.trials)]
    return (json.dumps(out, indent=1, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trials_csv_matches_golden(name, tmp_path):
    assert render_csv(name, tmp_path) == (GOLDEN / f"{name}_trials.csv").read_bytes()


def test_baseline_trials_csv_matches_golden(tmp_path):
    assert render_csv(BASELINE, tmp_path) == (GOLDEN / f"{BASELINE}_trials.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(SUMMARY_CASES))
def test_summary_json_matches_golden(name, tmp_path):
    assert render_summary(name, tmp_path) == (GOLDEN / f"{name}_summary.json").read_bytes()


@pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
def test_sampler_check_json_matches_golden(name, tmp_path):
    got = render_cli("sampler-check", SAMPLER_CASES[name], tmp_path)
    assert got == (GOLDEN / f"sampler_check_{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_bench_json_matches_golden(name, tmp_path):
    got = render_cli("verify-bench", [*VERIFY_CASES[name], "--assert"], tmp_path)
    assert got == (GOLDEN / f"verify_bench_{name}.json").read_bytes()


def test_ledgers_and_stage_counters_match_golden():
    assert render_ledgers() == (GOLDEN / LEDGERS).read_bytes()


@pytest.mark.parametrize("s, d, k, p", [(7, 1, 23, 5), (3, 2, 4, 7), (4, 8, 2, 2**31 - 1)])
def test_plant_wave_matches_the_per_request_executor(s, d, k, p):
    # the golden campaigns barely look inside a planted instance (a uniform
    # profile never does), so the batched build is also compared directly
    rng = np.random.default_rng(k)
    n = k * d
    strips = rng.integers(0, p, size=(s, d, n), dtype=np.int64)
    vectors = rng.integers(0, p, size=(s, n), dtype=np.int64)
    slots = rng.integers(0, k, size=s)
    co = rng.integers(0, p, size=s * (k - 1) * d * n, dtype=np.uint16 if p <= 1 << 16 else np.int64)
    for got, want in zip(reduction._plant_wave(strips, vectors, slots, co, p), plant_each(strips, vectors, slots, co, p)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_request_executor_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.setattr(reduction, "_plant_wave", plant_each)
    assert render_csv(name, tmp_path) == (GOLDEN / f"{name}_trials.csv").read_bytes()
    config = experiment_config_from_values(dict(CASES[name]))
    golden = json.loads((GOLDEN / LEDGERS).read_text())[name]
    assert [trial_fingerprint(config, t) for t in range(config.trials)] == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}_trials.csv").write_bytes(render_csv(case, GOLDEN))
    (GOLDEN / LEDGERS).write_bytes(render_ledgers())
    (GOLDEN / f"{BASELINE}_trials.csv").write_bytes(render_csv(BASELINE, GOLDEN))
    for case in SUMMARY_CASES:
        (GOLDEN / f"{case}_summary.json").write_bytes(render_summary(case, GOLDEN))
    with tempfile.TemporaryDirectory() as tmp:
        for case, args in SAMPLER_CASES.items():
            (GOLDEN / f"sampler_check_{case}.json").write_bytes(render_cli("sampler-check", args, Path(tmp)))
        for case, args in VERIFY_CASES.items():
            (GOLDEN / f"verify_bench_{case}.json").write_bytes(render_cli("verify-bench", args, Path(tmp)))
