"""Experiment configs, campaign running, reporting, and the CLI."""

import csv
import json
import math
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from mvamp.cli import main
from mvamp.field import PrimeField
from mvamp.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    campaign_summary,
    experiment_config_from_values,
    parse_config,
    parse_config_text,
    run_campaign,
    run_trial,
    scaling_sweep,
    sweep_summary,
    trial_rng,
    wilson_interval,
    write_summary_json,
    write_trials_csv,
)
from mvamp.harness import _trial_input


BASE_VALUES = {"modulus": 5, "n": 2, "trials": 4, "alpha": 1.0}


def tiny_config(**over):
    cfg = dict(BASE_VALUES)
    return experiment_config_from_values(cfg, {"k": 2, **over})


# ------------------------------------------------------------- config text


def test_parse_config_text_basics():
    text = "# campaign shape\nmodulus = 5\nn = 2\n\ntrials = 4\nalpha = 0.5\n"
    values = parse_config_text(text)
    assert values == {"modulus": 5, "n": 2, "trials": 4, "alpha": 0.5}


def test_parse_config_text_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("modulus = 5\nbogus_key = 1\n")
    assert "bogus_key" in str(err.value)
    assert "2" in str(err.value)  # line number


def test_parse_config_text_rejects_duplicates():
    with pytest.raises(ConfigError) as err:
        parse_config_text("modulus = 5\nmodulus = 7\n")
    assert "modulus" in str(err.value)


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("modulus 5\n")


# every key set to a value other than its default (required keys have none)
ALL_KEYS_TEXT = """
modulus = 7
n = 3
trials = 5
alpha = 0.5
seed = 9
workers = 2
profile = planted
bad_fraction = 0.25
profile_seed = 4
predicate = trace_zero
alpha_good = 0.75
alpha_bad = 0.125
queries_per_call = 11
failure_mode = perturb
input_mode = planted-bad
pipeline = baseline
k = 3
k_mode = desk
delta = 0.05
c0 = 4.5
c1 = 16
c2 = 8.5
boost_rounds = 3
verifier_epsilon = 0.001
verifier_mode = exact
accounting = actual
measure_time = yes
min_success_rate = 0.75
"""

ALL_KEYS_CONFIG = ExperimentConfig(
    modulus=7,
    n=3,
    trials=5,
    alpha=0.5,
    seed=9,
    workers=2,
    profile="planted",
    bad_fraction=0.25,
    profile_seed=4,
    predicate="trace_zero",
    alpha_good=0.75,
    alpha_bad=0.125,
    queries_per_call=11,
    failure_mode="perturb",
    input_mode="planted-bad",
    pipeline="baseline",
    k=3,
    k_mode="desk",
    delta=0.05,
    c0=4.5,
    c1=16.0,
    c2=8.5,
    boost_rounds=3,
    verifier_epsilon=0.001,
    verifier_mode="exact",
    accounting="actual",
    measure_time=True,
    min_success_rate=0.75,
)


def test_config_text_round_trips_every_key():
    values = parse_config_text(ALL_KEYS_TEXT)
    assert set(values) == {f.name for f in fields(ExperimentConfig)}
    assert len(values) == 28
    parsed = experiment_config_from_values(values)
    assert parsed == ALL_KEYS_CONFIG
    for f in fields(ExperimentConfig):
        # k_mode has one allowed value, so it can only hold its default
        if f.default is not MISSING and f.name != "k_mode":
            assert getattr(ALL_KEYS_CONFIG, f.name) != f.default, f.name
        # 3 == 3.0, so compare the coerced types too
        assert type(getattr(parsed, f.name)) is type(getattr(ALL_KEYS_CONFIG, f.name)), f.name


def test_missing_required_key_is_named():
    # exactly the keys without a default are required; random inputs, so
    # that dropping `profile` leaves a valid config
    values = {**parse_config_text(ALL_KEYS_TEXT), "input_mode": "random"}
    for key in values:
        rest = {k: v for k, v in values.items() if k != key}
        if key in ("modulus", "n", "trials", "alpha"):
            with pytest.raises(ConfigError, match=f"missing required config key '{key}'"):
                experiment_config_from_values(rest)
        else:
            experiment_config_from_values(rest)


def test_optional_empty_values_become_none():
    optional = ("queries_per_call", "k", "boost_rounds", "min_success_rate")
    text = "modulus = 5\nn = 2\ntrials = 4\nalpha = 1.0\n" + "".join(f"{key} =\n" for key in optional)
    values = parse_config_text(text)
    assert all(values[key] is None for key in optional)
    cfg = experiment_config_from_values(values)
    assert all(getattr(cfg, key) is None for key in optional)
    for key in ("modulus", "alpha", "pipeline", "measure_time"):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text(f"{key} =\n")


def test_overrides_win():
    cfg = experiment_config_from_values(BASE_VALUES, {"trials": 9, "seed": 3})
    assert cfg.trials == 9 and cfg.seed == 3


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("modulus = 5\nn = 2\ntrials = 3\nalpha = 0.5\nk = 2\n")
    cfg = parse_config(str(path))
    assert cfg.modulus == 5 and cfg.n == 2 and cfg.trials == 3
    assert cfg.alpha == 0.5 and cfg.k == 2


def test_config_validation_errors():
    bad_cases = [
        {"modulus": 6},
        {"trials": 0},
        {"alpha": 0.0},
        {"alpha": 1.2},
        {"profile": "martian"},
        {"pipeline": "other"},
        {"input_mode": "other"},
        {"predicate": "other"},
        {"input_mode": "planted-bad"},  # needs the planted profile
        {"verifier_mode": "other"},
        {"accounting": "other"},
        {"failure_mode": "other"},
        {"k_mode": "other"},
        {"k_mode": "paper"},
        {"workers": 0},
        {"n": 0},
        {"k": 0},
        {"boost_rounds": 0},
        {"delta": 0.0},
        {"delta": 1.0},
        {"c0": 0.0},
        {"c1": -1.0},
        {"c2": 0.0},
        {"c1": float("inf")},
        {"profile_seed": 2**63},
        {"queries_per_call": -1},
        {"verifier_epsilon": 0.0},
        {"verifier_epsilon": 1.0},
        {"bad_fraction": 1.0},
        {"alpha_good": 1.5},
        {"alpha_bad": -0.1},
        {"min_success_rate": 1.5},
        {"profile": "planted"},  # alpha = 1 is unreachable with bad_fraction = 0.5
    ]
    for over in bad_cases:
        (key,) = over
        with pytest.raises(ConfigError, match=f"'{key}'"):
            experiment_config_from_values({**BASE_VALUES, **over})


def test_config_refuses_an_astronomical_stage1_instance():
    # c0 = 1000 at alpha = 0.5 derives k = ceil(1000 ln 8) = 2,080: a 35 MB array on every stage-1 attempt
    with pytest.raises(ConfigError, match="'c0' = 1000.0 gives k = 2080"):
        ExperimentConfig(modulus=5, n=8, trials=1, alpha=0.5, c0=1000.0)
    with pytest.raises(ConfigError, match="'k' = 2049"):
        ExperimentConfig(modulus=5, n=8, trials=1, alpha=0.5, k=2049)
    with pytest.raises(ConfigError, match="'n' = 2049"):
        ExperimentConfig(modulus=5, n=2049, trials=1, alpha=0.5, k=2)
    # the largest allowed instance, and the baseline, which plants nothing
    assert ExperimentConfig(modulus=5, n=8, trials=1, alpha=0.5, k=2048).k == 2048
    assert ExperimentConfig(modulus=5, n=8, trials=1, alpha=0.5, c0=1000.0, pipeline="baseline")


def test_planted_bad_mode_requires_planted_profile():
    cfg = experiment_config_from_values(
        {**BASE_VALUES, "profile": "planted", "input_mode": "planted-bad", "alpha": 0.25}
    )
    assert cfg.input_mode == "planted-bad"


# ------------------------------------------------------------------ trials


def test_trial_rng_is_deterministic_per_trial():
    a = trial_rng(7, 3).integers(0, 1 << 30, size=8)
    b = trial_rng(7, 3).integers(0, 1 << 30, size=8)
    c = trial_rng(7, 4).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_rng_keys_seeds_past_2_63_exactly():
    # a list key holding an int of 2^63 or more reached Philox as float64:
    # seeds 2^63 and 2^63 + 1 gave one stream, and -1 or 2^64 - 1 gave seed 0's
    a = trial_rng(2**63, 0).integers(0, 1 << 30, size=8)
    b = trial_rng(2**63 + 1, 0).integers(0, 1 << 30, size=8)
    c = trial_rng(2**64 - 1, 0).integers(0, 1 << 30, size=8)
    zero = trial_rng(0, 0).integers(0, 1 << 30, size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(c, zero)
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            trial_rng(seed, 0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
def test_config_refuses_a_seed_outside_64_unsigned_bits(seed):
    # 2^64 + 7 reran seed 7's campaign row for row
    with pytest.raises(ConfigError, match="config key 'seed' must lie in"):
        experiment_config_from_values({**BASE_VALUES, "seed": seed})
    assert experiment_config_from_values({**BASE_VALUES, "seed": 2**64 - 1}).seed == 2**64 - 1


def test_scaling_sweep_refuses_a_sub_seed_past_64_bits():
    # the second alpha's campaign runs at seed + 1000003, past 2^64 - 1
    with pytest.raises(ConfigError, match="config key 'seed'"):
        scaling_sweep(tiny_config(trials=1, seed=2**64 - 1), [1.0, 0.5, 0.25])


def test_trial_input_exhaustive_tiny_enumerates_all_pairs():
    cfg = experiment_config_from_values(
        {"modulus": 2, "n": 1, "trials": 4, "alpha": 1.0, "input_mode": "exhaustive-tiny"},
        {"k": 1},
    )
    field = PrimeField(2)
    seen = set()
    for trial in range(4):  # p^(n^2 + n) = 4 distinct pairs
        m, v = _trial_input(cfg, field, trial, trial_rng(cfg.seed, trial))
        seen.add((tuple(map(tuple, m.values.tolist())), tuple(v.to_list())))
    assert len(seen) == 4


def test_trial_input_planted_bad_only_returns_bad_pairs():
    from mvamp.harness import build_profile

    cfg = experiment_config_from_values(
        {
            "modulus": 5,
            "n": 2,
            "trials": 4,
            "alpha": 0.25,
            "profile": "planted",
            "bad_fraction": 0.5,
            "input_mode": "planted-bad",
        }
    )
    profile = build_profile(cfg)
    field = PrimeField(5)
    for trial in range(10):
        m, v = _trial_input(cfg, field, trial, trial_rng(cfg.seed, trial))
        assert profile.is_bad(m.values, v.values, field.modulus)


def test_run_trial_full_is_deterministic_and_consistent():
    cfg = tiny_config()
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    assert a == b
    a.check_consistency()
    assert a.success and a.returned
    assert a.wall_ms == 0.0  # timing is off by default


def test_run_trial_baseline_reports_zero_stage_counters():
    cfg = tiny_config(pipeline="baseline")
    rep = run_trial(cfg, 1)
    assert rep.stage1_iters == 0 and rep.stage3_iters == 0 and rep.boost_rounds_total == 0
    assert rep.alg_queries == 1  # one unamplified call
    assert rep.success


# --------------------------------------------------------------- campaigns


def test_run_campaign_rows_and_stats():
    cfg = tiny_config()
    rep = run_campaign(cfg)
    assert len(rep.rows) == 4
    assert [r.trial for r in rep.rows] == [0, 1, 2, 3]
    assert rep.successes == sum(r.success for r in rep.rows)
    assert rep.success_rate == rep.successes / 4
    assert rep.trials == 4
    lo, hi = rep.ci_low, rep.ci_high
    assert 0.0 <= lo <= rep.success_rate <= hi <= 1.0


def test_run_campaign_workers_do_not_change_results():
    cfg_seq = tiny_config(trials=6)
    cfg_par = tiny_config(trials=6, workers=2)
    rows_seq = run_campaign(cfg_seq).rows
    rows_par = run_campaign(cfg_par).rows
    assert rows_seq == rows_par


def test_importing_the_harness_loads_no_process_pool():
    # only a campaign with workers > 1 runs the pool, so only it imports one
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, mvamp.harness; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "False"


def test_wilson_interval_matches_closed_form():
    def reference(s, t, z=1.96):
        if t == 0:
            return 0.0, 1.0
        ph = s / t
        denom = 1 + z * z / t
        center = (ph + z * z / (2 * t)) / denom
        half = z * math.sqrt(ph * (1 - ph) / t + z * z / (4 * t * t)) / denom
        return max(0.0, center - half), min(1.0, center + half)

    for s, t in ((0, 10), (8, 10), (10, 10), (250, 500)):
        lo, hi = wilson_interval(s, t)
        rlo, rhi = reference(s, t)
        assert lo == pytest.approx(rlo)
        assert hi == pytest.approx(rhi)


def test_readme_matches_config_and_csv_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    required = re.search(r"^Required: (.*)$", section, re.M).group(1)
    table_keys = [
        key
        for line in section.splitlines()
        if line.startswith("| `")
        for key in re.findall(r"`([a-z_0-9]+)`", line.split("|")[1])
    ]
    required_keys = re.findall(r"`([a-z_0-9]+)`", required)
    assert sorted(required_keys + table_keys) == sorted(f.name for f in fields(ExperimentConfig))
    assert required_keys == [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
    header = re.search(r"`trials.csv` has one row per trial.*?```\n(.*?)\n```", readme, re.S)
    assert header.group(1) == CSV_HEADER


def test_write_trials_csv_layout(tmp_path):
    cfg = tiny_config()
    rep = run_campaign(cfg)
    path = tmp_path / "trials.csv"
    write_trials_csv(rep.rows, str(path))
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["trial"] == "0"
    assert rows[0]["success"] in ("0", "1")
    assert all(r["wall_ms"] == "0" or float(r["wall_ms"]) == 0.0 for r in rows)


def test_csv_bytes_are_reproducible(tmp_path):
    cfg = tiny_config(trials=5)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trials_csv(run_campaign(cfg).rows, str(a_path))
    write_trials_csv(run_campaign(cfg).rows, str(b_path))
    assert a_path.read_bytes() == b_path.read_bytes()


def test_summary_json_round_trip(tmp_path):
    cfg = tiny_config()
    summary = campaign_summary(run_campaign(cfg))
    path = tmp_path / "summary.json"
    write_summary_json(summary, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["trials"] == 4
    assert loaded["success_rate"] == summary["success_rate"]
    assert "config" in loaded and loaded["config"]["modulus"] == 5
    assert "version" in loaded


def test_campaign_wrong_returns_zero_with_exact_verifier():
    cfg = tiny_config(verifier_mode="exact", alpha=0.5, trials=6)
    rep = run_campaign(cfg)
    assert rep.wrong_returns == 0


# ------------------------------------------------------------------ sweeps


def test_scaling_sweep_requires_three_distinct_alphas():
    cfg = tiny_config(trials=2)
    with pytest.raises(ValueError):
        scaling_sweep(cfg, [0.5, 0.25])
    with pytest.raises(ValueError):
        scaling_sweep(cfg, [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        scaling_sweep(cfg, [0.5, 0.25, 1.5])


def test_scaling_sweep_tiny_run_shape():
    cfg = tiny_config(trials=2)
    rep = scaling_sweep(cfg, [1.0, 0.5, 0.25], trials_per_alpha=2)
    assert [e.alpha for e in rep.entries] == [1.0, 0.5, 0.25]
    assert all(e.trials == 2 for e in rep.entries)
    assert math.isfinite(rep.slope) and math.isfinite(rep.intercept)
    summary = sweep_summary(rep)
    assert summary["slope"] == rep.slope
    assert len(summary["entries"]) == 3


def test_sweep_summary_lists_every_report_field():
    # the explicit field-by-field mapping sweep.json has always had
    rep = scaling_sweep(tiny_config(trials=2), [1.0, 0.5, 0.25], trials_per_alpha=2)
    assert sweep_summary(rep) == {
        "slope": rep.slope,
        "slope_stderr": rep.slope_stderr,
        "intercept": rep.intercept,
        "entries": [
            {
                "alpha": e.alpha,
                "trials": e.trials,
                "success_rate": e.success_rate,
                "mean_alg_queries": e.mean_alg_queries,
                "mean_um_queries": e.mean_um_queries,
            }
            for e in rep.entries
        ],
        "version": rep.version,
        "config": rep.config,
    }


# --------------------------------------------------------------------- CLI


def write_cfg(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text("modulus = 5\nn = 2\ntrials = 4\nalpha = 1.0\nk = 2\n" + extra)
    return path


def test_cli_run_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    code = main(["run", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "trials.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 4
    assert summary["success_rate"] == 1.0


def test_cli_run_assert_pass_and_fail(tmp_path):
    cfg = write_cfg(tmp_path)
    ok = main(["run", str(cfg), "--out", str(tmp_path / "o1"), "--assert", "--min-success-rate", "0.9"])
    assert ok == 0
    # an alpha=0 config cannot succeed, so the gate must trip
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("modulus = 5\nn = 2\ntrials = 2\nalpha = 0.01\nk = 2\nc1 = 0.1\nc2 = 0.1\nboost_rounds = 1\n")
    code = main(["run", str(bad_cfg), "--out", str(tmp_path / "o2"), "--assert", "--min-success-rate", "0.99"])
    assert code == 1


def test_cli_run_assert_without_threshold_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--assert"]) == 2
    # refused before any trial runs, so nothing is written
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rate", ["-3", "1.5"])
def test_cli_run_min_success_rate_flag_is_range_checked_as_the_config_key(rate, tmp_path, capsys):
    # the flag is a config override, so it meets the min_success_rate key's
    # range check before any trial runs: -3 cannot make the gate vacuous
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o"), "--assert", "--min-success-rate", rate]) == 2
    assert "config error: config key 'min_success_rate'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_run_summary_records_the_gated_threshold(tmp_path):
    cfg = write_cfg(tmp_path, "min_success_rate = 0.5\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--assert", "--min-success-rate", "0.9"]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["min_success_rate"] == 0.9


def test_cli_missing_config_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 2


def test_cli_bad_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("modulus = 5\nn = 2\ntrials = 2\nalpha = 1.0\nwat = 1\n")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    # an out-of-range value fails at parse time, naming its key
    path.write_text("modulus = 5\nn = 2\ntrials = 2\nalpha = 1.0\nk = 0\n")
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: config key 'k'" in capsys.readouterr().err


def test_cli_seed_and_trials_overrides(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out), "--trials", "2", "--seed", "5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 2
    assert summary["config"]["seed"] == 5


def test_cli_sweep_writes_summary(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sw"
    code = main(
        ["sweep", str(cfg), "--alphas", "1.0,0.5,0.25", "--trials-per-alpha", "2", "--out", str(out)]
    )
    assert code == 0
    data = json.loads((out / "sweep.json").read_text())
    assert len(data["entries"]) == 3
    assert "slope" in data


def test_cli_sweep_assert_gates_on_slope_band(tmp_path, capsys):
    # at fixed k the solver calls grow as 1/alpha, outside the default [-2.5, -1.5] band
    cfg = write_cfg(tmp_path)
    sweep = ["sweep", str(cfg), "--alphas", "1.0,0.5,0.25", "--trials-per-alpha", "2", "--assert"]
    assert main(sweep) == 1
    assert "ASSERT FAIL: slope" in capsys.readouterr().out
    assert main(sweep + ["--slope-min", "-1.2", "--slope-max", "-0.8"]) == 0
    assert "ASSERT OK: slope" in capsys.readouterr().out


def test_cli_sampler_check_exact(tmp_path):
    out = tmp_path / "sc"
    code = main(
        [
            "sampler-check",
            "--copies", "8",
            "--c", "0.95",
            "--delta", "0.99",
            "--eps", "0.9",
            "--sets", "3",
            "--exact",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads((out / "sampler_check.json").read_text())
    assert len(data["sets"]) == 3
    assert 0.0 <= data["pass_fraction"] <= 1.0
    assert data["lemma_condition"] is True
    assert all(set(s) >= {"density", "violation_fraction", "ok"} for s in data["sets"])


@pytest.mark.parametrize("sets", ["0", "-3"])
def test_cli_sampler_check_refuses_fewer_than_one_set(sets, tmp_path, capsys):
    # the pass fraction divides by --sets: 0 raised ZeroDivisionError and -3
    # printed pass_fraction=-0.000; both are usage errors, refused at parse time
    out = tmp_path / "sc"
    argv = ["sampler-check", "--copies", "2", "--c", "0.9", "--delta", "0.5", "--eps", "0.5",
            "--sets", sets, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--sets: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("c, delta", [("0.5", "0.1"), ("0.5", "7")])
def test_cli_sampler_check_refuses_parameters_outside_the_rule_in_both_modes(c, delta, exact, tmp_path, capsys):
    # 0 < c < delta < 1 is checked before either path runs, so --exact cannot
    # mark every set ok under --delta 7
    out = tmp_path / "sc"
    argv = ["sampler-check", "--copies", "2", "--c", c, "--delta", delta, "--eps", "0.5", "--sets", "2",
            "--assert", "--out", str(out)]
    assert main(argv + ["--exact"] * exact) == 2
    assert "parameters must satisfy 0 < c < delta < 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["-3", "1.5"])
def test_cli_sampler_check_min_pass_fraction_is_range_checked(fraction, tmp_path, capsys):
    # a pass fraction lies in [0, 1]: -3 passed every --assert and 1.5 failed every one
    out = tmp_path / "sc"
    argv = ["sampler-check", "--copies", "2", "--c", "0.1", "--delta", "0.2", "--eps", "0.01", "--sets", "1",
            "--exact", "--min-pass-fraction", fraction, "--assert", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--min-pass-fraction must lie in [0, 1]" in captured.err
    assert "ASSERT" not in captured.out and "sampler-check:" not in captured.out
    assert not out.exists()


def test_cli_sweep_refuses_an_empty_slope_band(tmp_path, capsys):
    # --slope-min above --slope-max fails every --assert; it is refused before any campaign runs
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sw"
    argv = ["sweep", str(cfg), "--alphas", "1.0,0.5", "--trials-per-alpha", "2", "--assert", "--out", str(out),
            "--slope-min", "-1.5", "--slope-max", "-2.5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "empty slope band" in captured.err
    assert "sweep:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", [
    ["verify-bench", "--rows", "2", "--cols", "2", "--trials", "2"],
    ["sampler-check", "--copies", "2", "--c", "0.1", "--delta", "0.2", "--eps", "0.5", "--sets", "1"],
    ["sampler-check", "--copies", "2", "--c", "0.1", "--delta", "0.2", "--eps", "0.5", "--sets", "1", "--exact"],
])
def test_cli_seed_outside_64_unsigned_bits_is_refused_before_output(argv, seed, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--seed", seed, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "seed must lie in [0, 2^64)" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_run_seed_outside_64_unsigned_bits_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg), "--seed", str(2**64 + 7), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "config error: config key 'seed'" in captured.err
    assert captured.out == ""


def test_cli_sampler_check_exact_past_the_enumeration_bound_is_refused_before_output(tmp_path, capsys, monkeypatch):
    # 2^30 tuples: the header and lemma lines printed before density_exact refused
    out = tmp_path / "sc"
    argv = ["sampler-check", "--copies", "30", "--c", "0.5", "--delta", "0.9", "--eps", "0.5", "--exact",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "tuple domain of size 1073741824 too large for enumeration" in captured.err
    assert captured.out == ""
    # only the co-tuple bound fails: 8 tuples fit a bound of 8, 4 co-tuples times 3 copies do not
    monkeypatch.setattr("mvamp.sampler.MAX_EXHAUSTIVE_TUPLES", 8)
    argv[2] = "3"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "co-tuple domain too large for enumeration" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cli_verify_bench_refuses_fewer_than_one_trial(trials, tmp_path, capsys):
    out = tmp_path / "vb"
    with pytest.raises(SystemExit) as exc:
        main(["verify-bench", "--rows", "2", "--cols", "2", "--trials", trials, "--out", str(out)])
    assert exc.value.code == 2
    assert "--trials: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


_SAMPLER_ARGS = ["sampler-check", "--copies", "2", "--c", "0.1", "--delta", "0.2", "--eps", "0.5", "--sets", "1"]


@pytest.mark.parametrize("argv, flag", [
    (["verify-bench", "--rows", "-2", "--cols", "4"], "--rows"),
    (["verify-bench", "--rows", "4", "--cols", "0"], "--cols"),
    (_SAMPLER_ARGS[:2] + ["0"] + _SAMPLER_ARGS[3:], "--copies"),
    (_SAMPLER_ARGS + ["--dim", "0"], "--dim"),
    (_SAMPLER_ARGS + ["--x-samples", "-5"], "--x-samples"),
    (_SAMPLER_ARGS + ["--y-samples", "0"], "--y-samples"),
    (["sweep", "CFG", "--alphas", "1.0,0.5,0.25", "--trials-per-alpha", "0"], "--trials-per-alpha"),
])
def test_cli_counts_below_one_are_refused_at_parse_time(argv, flag, tmp_path, capsys):
    # verify-bench --rows -2 printed a -2x4 header before failing, and sweep
    # --trials-per-alpha 0 printed trials_per_alpha=2 from the config, then
    # blamed its trials key; each is a usage error now, before any output
    out = tmp_path / "out"
    argv = [str(write_cfg(tmp_path)) if a == "CFG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"{flag}: must be at least 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("eps", ["0", "-0.5", "1.5"])
def test_cli_sampler_check_refuses_a_density_outside_the_rule(eps, exact, tmp_path, capsys):
    # the dense sets' rule 0 < eps <= 1 is checked before the header prints
    out = tmp_path / "sc"
    argv = _SAMPLER_ARGS[:7] + ["--eps", eps, "--sets", "1", "--out", str(out)]
    assert main(argv + ["--exact"] * exact) == 2
    captured = capsys.readouterr()
    assert "density must lie in (0, 1]" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("exact", [True, False])
def test_cli_sampler_check_refuses_set_seeds_past_64_bits(exact, tmp_path, capsys):
    # set s is keyed by --seed + s: at --seed 2^64 - 1, set 1 was seed 0's set 0
    out = tmp_path / "sc"
    argv = _SAMPLER_ARGS[:-1] + ["2", "--seed", str(2**64 - 1), "--out", str(out)] + ["--exact"] * exact
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "set seeds must lie in [0, 2^64), got --seed + --sets - 1 = 18446744073709551616" in captured.err
    assert captured.out == ""
    assert not out.exists()
    argv[argv.index("--sets") + 1] = "1"
    assert main(argv) == 0
    assert "set 0: density=" in capsys.readouterr().out


def test_cli_verify_bench(tmp_path):
    out = tmp_path / "vb"
    code = main(
        ["verify-bench", "--rows", "4", "--cols", "4", "--trials", "300", "--out", str(out), "--assert"]
    )
    assert code == 0
    data = json.loads((out / "verify_bench.json").read_text())
    assert data["completeness_failures"] == 0
    assert data["charged_queries_per_call"] == 112  # ceil(4^1.5) * ceil(log2 1e4)
    assert set(data["false_accept_rates"]) == {"uniform", "perturb"}
