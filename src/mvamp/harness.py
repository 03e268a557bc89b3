"""Experiment harness: configs, deterministic campaigns, scaling sweeps.

Per-trial randomness comes from counter-based Philox streams keyed by
(master seed, trial index), so a campaign's results do not depend on
worker count or scheduling. Trial rows serialize to a fixed CSV schema;
aggregates to JSON. Config files are flat `key = value` lines with `#`
comments.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field as dataclass_field, fields, replace
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np

from . import __version__
from .field import PrimeField, check_modulus
from .linalg import (
    FpMatrix,
    FpVector,
    count_matrices,
    count_vectors,
    matrix_by_index,
    matvec,
    random_matrix,
    random_vector,
    vector_by_index,
)
from .oracle import QueryLedger, wrap_matrix, wrap_vector
from .reduction import (
    K_MODES,
    ReductionConfig,
    ReductionReport,
    StageStats,
    worst_case_matvec,
)
from .solver import (
    FAILURE_MODES,
    MAX_EXHAUSTIVE_PAIRS,
    GoodBadProfile,
    NoisySolver,
    PlantedAdversarialProfile,
    SolverProfile,
    UniformProfile,
    check_planted_reachable,
)
from .verify import ACCOUNTING_MODES, VERIFY_MODES, VerifierConfig, verified_call

# trials.csv: every ReductionReport field but `returned`, in field order
CSV_COLUMNS = tuple(f.name for f in fields(ReductionReport) if f.name != "returned")
CSV_HEADER = ",".join(CSV_COLUMNS)

PROFILES = ("uniform", "goodbad", "planted")
INPUT_MODES = ("random", "planted-bad", "exhaustive-tiny")
PIPELINES = ("full", "baseline")

# Named predicates for goodbad profiles, so configs stay picklable text.
# Each takes the instance as residue arrays and the modulus.
PREDICATES = {
    "v_first_zero": lambda m, v, p: int(v[0]) == 0,
    "v_first_even": lambda m, v, p: int(v[0]) % 2 == 0,
    "trace_zero": lambda m, v, p: int(np.trace(m)) % p == 0,
}


# Allowed values of every choice-valued config key.
CHOICES = {
    "profile": PROFILES,
    "input_mode": INPUT_MODES,
    "pipeline": PIPELINES,
    "predicate": tuple(sorted(PREDICATES)),
    "failure_mode": FAILURE_MODES,
    "k_mode": K_MODES,
    "verifier_mode": VERIFY_MODES,
    "accounting": ACCOUNTING_MODES,
}


# Allowed range of every numeric config key: (description, test). An
# Optional key left at None skips its check.
_POSITIVE = ("be positive and finite", lambda x: 0 < x < math.inf)
_PROBABILITY = ("lie in [0, 1]", lambda x: 0 <= x <= 1)
RANGES = {
    **dict.fromkeys(("n", "trials", "workers", "k", "boost_rounds", "c0", "c1", "c2"), _POSITIVE),
    **dict.fromkeys(("alpha_good", "alpha_bad", "min_success_rate"), _PROBABILITY),
    **dict.fromkeys(("delta", "verifier_epsilon"), ("lie in (0, 1)", lambda x: 0 < x < 1)),
    "alpha": ("lie in (0, 1]", lambda x: 0 < x <= 1),
    "bad_fraction": ("lie in [0, 1)", lambda x: 0 <= x < 1),
    "queries_per_call": ("be nonnegative", lambda x: x >= 0),
    "profile_seed": ("fit in 64 signed bits", lambda x: -(2**63) <= x < 2**63),
    "seed": ("lie in [0, 2^64)", lambda x: 0 <= x < 2**64),
}


# Largest padded instance, in entries, a full-pipeline config may ask for:
# every stage-1 attempt fills an int64 array of padded n^2 entries (32 MiB),
# and padding the input handle builds padded n^2 values and U_M costs once
# per trial.
MAX_INSTANCE_ENTRIES = 2**22


class ConfigError(ValueError):
    """A config file or override failed validation; the message names the key."""


@dataclass
class ExperimentConfig:
    """Everything one campaign needs, in picklable plain data."""

    modulus: int
    n: int
    trials: int
    alpha: float
    seed: int = 0
    workers: int = 1
    profile: str = "uniform"
    bad_fraction: float = 0.5
    profile_seed: int = 0
    predicate: str = "v_first_zero"
    alpha_good: float = 1.0
    alpha_bad: float = 0.0
    queries_per_call: Optional[int] = None
    failure_mode: str = "uniform"
    input_mode: str = "random"
    pipeline: str = "full"
    k: Optional[int] = None
    k_mode: str = "desk"
    delta: float = 0.01
    c0: float = 8.0
    c1: float = 32.0
    c2: float = 32.0
    boost_rounds: Optional[int] = None
    verifier_epsilon: float = 1e-4
    verifier_mode: str = "probabilistic"
    accounting: str = "paper"
    measure_time: bool = False
    min_success_rate: Optional[float] = None

    def __post_init__(self):
        try:
            check_modulus(self.modulus)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"config key 'modulus' must be a supported prime: {err}") from None
        for key, (allowed, test) in RANGES.items():
            value = getattr(self, key)
            if value is not None and not test(value):
                raise ConfigError(f"config key '{key}' must {allowed}, got {value}")
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"config key '{key}' must be one of {allowed}, got {value!r}")
        if self.input_mode == "planted-bad" and self.profile != "planted":
            raise ConfigError("config key 'input_mode' = planted-bad requires profile = planted")
        if self.profile == "planted":
            try:
                check_planted_reachable(self.alpha, self.bad_fraction)
            except ValueError as err:
                raise ConfigError(f"config key 'alpha' with 'profile' = planted: {err}") from None
        if self.pipeline == "full":
            self._check_instance_size()

    def _check_instance_size(self):
        """Refuse a stage-1 instance past MAX_INSTANCE_ENTRIES, naming the key behind it."""
        k = build_reduction_config(self).resolved_k()
        n_padded = -(-self.n // k) * k
        if n_padded * n_padded > MAX_INSTANCE_ENTRIES:
            key = "n" if self.n * self.n > MAX_INSTANCE_ENTRIES else "k" if self.k is not None else "c0"
            raise ConfigError(
                f"config key '{key}' = {getattr(self, key)} gives k = {k} and a padded "
                f"{n_padded}x{n_padded} stage-1 instance, {n_padded * n_padded} entries "
                f"per attempt, above the limit of {MAX_INSTANCE_ENTRIES}"
            )


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------


def _value_type(hint) -> tuple[type, bool]:
    """A field's value type, and whether it is Optional (an empty value means None)."""
    args = [t for t in get_args(hint) if t is not type(None)]
    return (args[0], True) if args else (hint, False)


_KEY_TYPES = {key: _value_type(hint) for key, hint in get_type_hints(ExperimentConfig).items()}
_REQUIRED_KEYS = tuple(
    f.name for f in fields(ExperimentConfig) if f.default is MISSING and f.default_factory is MISSING
)

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(key: str, raw: str):
    kind, optional = _KEY_TYPES[key]
    if raw == "":
        if optional:
            return None
        raise ConfigError(f"config key '{key}' has an empty value")
    try:
        return _BOOL_VALUES[raw.lower()] if kind is bool else kind(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"config key '{key}' has malformed value {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines (with # comments) into typed values."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key '{key}'")
        values[key] = _coerce(key, raw)
    return values


def experiment_config_from_values(values: dict, overrides: Optional[dict] = None) -> ExperimentConfig:
    merged = dict(values)
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                merged[key] = val
    for key in _REQUIRED_KEYS:
        if key not in merged:
            raise ConfigError(f"missing required config key '{key}'")
    return ExperimentConfig(**merged)


def parse_config(path: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return experiment_config_from_values(parse_config_text(text), overrides)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_profile(config: ExperimentConfig) -> SolverProfile:
    if config.profile == "uniform":
        return UniformProfile(config.alpha)
    if config.profile == "planted":
        return PlantedAdversarialProfile(
            average=config.alpha, bad_fraction=config.bad_fraction, seed=config.profile_seed
        )
    return GoodBadProfile(
        PREDICATES[config.predicate],
        alpha_good=config.alpha_good,
        alpha_bad=config.alpha_bad,
    )


def build_solver(config: ExperimentConfig) -> NoisySolver:
    return NoisySolver(
        profile=build_profile(config),
        queries_per_call=config.queries_per_call,
        failure_mode=config.failure_mode,
    )


def build_reduction_config(config: ExperimentConfig) -> ReductionConfig:
    return ReductionConfig(
        alpha=config.alpha,
        delta=config.delta,
        k=config.k,
        k_mode=config.k_mode,
        c0=config.c0,
        c1=config.c1,
        c2=config.c2,
        boost_rounds=config.boost_rounds,
        verifier=VerifierConfig(
            epsilon=config.verifier_epsilon,
            mode=config.verifier_mode,
            accounting=config.accounting,
        ),
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based per-trial stream: same (seed, trial) -> same draws. The key is an exact
    uint64 pair (a list would pass 2^63 and up as float64); other seeds are refused, not wrapped."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

_PLANTED_SAMPLING_CAP = 100000


def _trial_input(
    config: ExperimentConfig,
    field: PrimeField,
    trial: int,
    rng: np.random.Generator,
) -> tuple[FpMatrix, FpVector]:
    n = config.n
    if config.input_mode == "random":
        return random_matrix(n, n, field, rng), random_vector(n, field, rng)
    if config.input_mode == "planted-bad":
        profile = build_profile(config)
        assert isinstance(profile, PlantedAdversarialProfile)
        for _ in range(_PLANTED_SAMPLING_CAP):
            m = random_matrix(n, n, field, rng)
            v = random_vector(n, field, rng)
            if profile.is_bad(m.values, v.values, field.modulus):
                return m, v
        raise RuntimeError(
            f"found no planted-bad input in {_PLANTED_SAMPLING_CAP} draws "
            f"(bad_fraction={config.bad_fraction})"
        )
    # exhaustive-tiny: enumerate (M, v) pairs lexicographically, matrix-major
    n_mats = count_matrices(field, n, n)
    n_vecs = count_vectors(field, n)
    pairs = n_mats * n_vecs
    if pairs > MAX_EXHAUSTIVE_PAIRS:
        raise ConfigError(
            f"config key 'input_mode' = exhaustive-tiny needs at most {MAX_EXHAUSTIVE_PAIRS} "
            f"pairs, domain has {pairs}"
        )
    index = trial % pairs
    return matrix_by_index(field, n, n, index // n_vecs), vector_by_index(field, n, index % n_vecs)


def run_trial(config: ExperimentConfig, trial: int) -> ReductionReport:
    """Execute one trial end to end on its own Philox stream and ledger."""
    rng = trial_rng(config.seed, trial)
    field = PrimeField(config.modulus)
    matrix, vector = _trial_input(config, field, trial, rng)
    truth = matvec(matrix, vector)
    solver = build_solver(config)
    reduction_config = build_reduction_config(config)
    ledger = QueryLedger()

    start = time.perf_counter() if config.measure_time else None
    if config.pipeline == "baseline":
        # one unamplified, verified call: no pipeline stage runs
        result = verified_call(solver, matrix, vector, ledger, reduction_config.verifier, rng)
        stats = StageStats()
    else:
        mat_handle, vec_handle = wrap_matrix(matrix, ledger), wrap_vector(vector, ledger)
        outcome = worst_case_matvec(mat_handle, vec_handle, solver, reduction_config, rng)
        result, stats = outcome.result, outcome.stats
    wall_ms = int((time.perf_counter() - start) * 1000) if start is not None else 0
    correct = result is not None and result == truth
    report = ReductionReport.from_run(trial, result, stats, ledger, correct, wall_ms)
    if config.pipeline == "full":
        report.check_consistency()
    return report


def _trial_task(args) -> ReductionReport:
    config, trial = args
    return run_trial(config, trial)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval; behaves sanely at 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class CampaignReport:
    """Aggregate over one campaign's trials plus the rows themselves."""

    config: dict
    version: str
    rows: list = dataclass_field(default_factory=list)
    trials: int = 0
    successes: int = 0
    success_rate: float = 0.0
    ci_low: float = 0.0
    ci_high: float = 1.0
    wrong_returns: int = 0
    mean_alg_queries: float = 0.0
    max_alg_queries: int = 0
    mean_um_queries: float = 0.0
    mean_uv_queries: float = 0.0
    mean_verifier_charged: float = 0.0


def run_campaign(config: ExperimentConfig) -> CampaignReport:
    """Run all trials (optionally across processes) and aggregate.

    Results are independent of worker count: each trial's stream is keyed
    by (seed, trial index) and rows are ordered by trial index.
    """
    indices = list(range(config.trials))
    if config.workers == 1:
        rows = [run_trial(config, t) for t in indices]
    else:
        # imported here: the pool's modules cost every single-worker set-up time and memory
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, config.trials // (config.workers * 4))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_trial_task, [(config, t) for t in indices], chunksize=chunk))
    rows.sort(key=lambda r: r.trial)

    successes = sum(r.success for r in rows)
    ci_low, ci_high = wilson_interval(successes, len(rows))
    report = CampaignReport(
        config=asdict(config),
        version=__version__,
        rows=rows,
        trials=len(rows),
        successes=successes,
        success_rate=successes / len(rows),
        ci_low=ci_low,
        ci_high=ci_high,
        wrong_returns=sum(1 for r in rows if r.returned and not r.success),
        mean_alg_queries=float(np.mean([r.alg_queries for r in rows])),
        max_alg_queries=max(r.alg_queries for r in rows),
        mean_um_queries=float(np.mean([r.um_queries for r in rows])),
        mean_uv_queries=float(np.mean([r.uv_queries for r in rows])),
        mean_verifier_charged=float(np.mean([r.verifier_charged for r in rows])),
    )
    return report


def write_trials_csv(rows: Sequence[ReductionReport], path: str):
    """Fixed-schema CSV; bit-identical across runs with the same seed."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for r in rows:
            f.write(",".join(str(getattr(r, c)) for c in CSV_COLUMNS) + "\n")


def campaign_summary(report: CampaignReport) -> dict:
    """Every CampaignReport field but the per-trial rows."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != "rows"}


def write_summary_json(summary: dict, path: str):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# scaling sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    alpha: float
    trials: int
    success_rate: float
    mean_alg_queries: float
    mean_um_queries: float


@dataclass
class SweepReport:
    entries: list
    slope: float
    slope_stderr: float
    intercept: float
    config: dict
    version: str


def scaling_sweep(
    config: ExperimentConfig,
    alphas: Sequence[float],
    trials_per_alpha: Optional[int] = None,
) -> SweepReport:
    """Measure mean solver calls per run as alpha varies; fit a log-log line.

    Needs at least three distinct alphas; refuses degenerate fits.
    """
    alphas = list(alphas)
    if len(alphas) < 3:
        raise ValueError(f"a slope fit needs at least 3 alpha values, got {len(alphas)}")
    if len(set(alphas)) < 3:
        raise ValueError("a slope fit needs at least 3 distinct alpha values")
    for a in alphas:
        if not 0.0 < a <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {a}")

    entries = []
    for idx, alpha in enumerate(alphas):
        sub = replace(
            config,
            alpha=alpha,
            trials=trials_per_alpha if trials_per_alpha is not None else config.trials,
            seed=config.seed + 1000003 * idx,
        )
        rep = run_campaign(sub)
        entries.append(
            SweepEntry(
                alpha=alpha,
                trials=rep.trials,
                success_rate=rep.success_rate,
                mean_alg_queries=rep.mean_alg_queries,
                mean_um_queries=rep.mean_um_queries,
            )
        )

    x = np.log(np.array([e.alpha for e in entries]))
    y_vals = np.array([e.mean_alg_queries for e in entries])
    if np.any(y_vals <= 0):
        raise ValueError("mean solver calls must be positive for a log-log fit")
    y = np.log(y_vals)
    if float(np.var(x)) == 0.0:
        raise ValueError("alpha values have zero variance; slope fit is degenerate")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if dof > 0 else 0.0
    return SweepReport(
        entries=entries,
        slope=float(slope),
        slope_stderr=stderr,
        intercept=float(intercept),
        config=asdict(config),
        version=__version__,
    )


def sweep_summary(report: SweepReport) -> dict:
    return asdict(report)
