"""Repeated campaigns over fixed inputs, with checks, timings and traces."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time

from mvamp import harness, oracle, reduction
from mvamp.field import PrimeField
from mvamp.linalg import FpMatrix, FpVector
from mvamp.oracle import SOURCE_ALG, QueryLedger

from tracing import Tracer, layer_metrics
from workloads import experiment_config, ledger_problems, make_inputs

SETUP_REPEATS = 9
# campaigns per run that each trial's mean time is taken over
MIN_REPEATS = 3
STAT_KEYS = ("stage1_iters", "stage3_iters", "boost_rounds_total", "verify_calls")

# Runs in a fresh interpreter: import the package and build what a trial
# needs from each of the workload's configs. argv: src dir, JSON of values.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import mvamp
from mvamp.field import PrimeField
from mvamp.harness import ExperimentConfig, build_reduction_config, build_solver
for values in json.loads(sys.argv[2]):
    cfg = ExperimentConfig(**values)
    PrimeField(cfg.modulus)
    build_solver(cfg)
    build_reduction_config(cfg)
print(time.perf_counter() - start)
"""


class Bench:
    """One workload's campaign over inputs drawn once from the seed."""

    def __init__(self, parts: tuple, seed: int, src: str):
        self.parts = parts
        self.seed = seed
        self.src = src
        self.configs = [experiment_config(p, seed) for p in parts]
        self.inputs = make_inputs(parts, self.configs, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.first: list = []  # per-trial (result, ledger, stats) of the first campaign

    def setup_once(self) -> float:
        """Set-up time of one fresh interpreter."""
        values = [{**p.values, "trials": p.trials, "seed": self.seed} for p in self.parts]
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, self.src, json.dumps(values)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout.split()[-1])

    def _trial(self, field, solver, rconfig, inp):
        ledger = QueryLedger()
        mat = oracle.wrap_matrix(FpMatrix(field, inp.m_vals), ledger)
        vec = oracle.wrap_vector(FpVector(field, inp.v_vals), ledger)
        return reduction.worst_case_matvec(mat, vec, solver, rconfig, harness.trial_rng(self.seed, inp.index)), ledger

    def warm_up(self) -> None:
        """Run the first trial once, untimed, so lazy set-up is done before timing."""
        cfg = self.configs[0]
        self._trial(PrimeField(cfg.modulus), harness.build_solver(cfg), harness.build_reduction_config(cfg),
                    self.inputs[0])

    def campaign(self, tracer=None) -> dict:
        """Run every trial once, as harness.run_trial does; time and check it."""
        seed = self.seed

        def build_configs():
            return [experiment_config(p, seed) for p in self.parts]

        def build_trial(cfg):
            return PrimeField(cfg.modulus), harness.build_solver(cfg), harness.build_reduction_config(cfg)

        if tracer is not None:
            build_configs = tracer.wrap("harness.build", "harness.build_configs", build_configs)
            build_trial = tracer.wrap("harness.build", "harness.build_trial", build_trial)
        clock = time.perf_counter
        trial_s, runs = [], []
        start = clock()
        configs = build_configs()
        for inp in self.inputs:
            t0 = clock()
            runs.append(self._trial(*build_trial(configs[inp.part]), inp))
            trial_s.append(clock() - t0)
        wall = clock() - start
        return {"wall": wall, "trial_s": trial_s, "totals": self._check(runs)}

    def _check(self, runs) -> dict:
        totals = dict.fromkeys(("alg",) + STAT_KEYS, 0)
        prints = []
        for inp, (outcome, ledger) in zip(self.inputs, runs):
            stats = outcome.stats
            counts = ledger.snapshot()
            result = None if outcome.result is None else [int(x) for x in outcome.result.values]
            self.attempted += 1
            if result is None:
                self.failed += 1
            elif result != inp.expected:
                self.problems.append(f"trial {inp.index}: result differs from M v in Python ints")
            cfg = self.configs[inp.part]
            for msg in ledger_problems(cfg, counts, stats, outcome.block_count, outcome.padded_n):
                self.problems.append(f"trial {inp.index}: {msg}")
            totals["alg"] += counts.get(SOURCE_ALG, 0)
            for key in STAT_KEYS:
                totals[key] += getattr(stats, key)
            prints.append((result, counts, stats))
        if not self.first:
            self.first = prints
        elif prints != self.first:
            bad = [inp.index for inp, a, b in zip(self.inputs, prints, self.first) if a != b]
            self.problems.append(f"trials {bad[:5]} differ from the first campaign of this run")
        return totals


def repeat(run_one, seconds: float, at_least: int) -> list:
    """Call run_one until the next call would end past `seconds`."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(run_one())
        elapsed = time.perf_counter() - start
        if len(out) >= at_least and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def mean_trial_s(campaigns: list) -> list:
    """Each trial's mean wall time over the repeats of the campaign."""
    return [statistics.fmean(times) for times in zip(*(c["trial_s"] for c in campaigns))]


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Repeat set-up and campaign in turn, so both sample the whole run."""
    setups = []

    def setup_and_campaign():
        setups.append(bench.setup_once())
        return bench.campaign()

    bench.warm_up()
    campaigns = repeat(setup_and_campaign, seconds, MIN_REPEATS)
    while len(setups) < SETUP_REPEATS:
        setups.append(bench.setup_once())
    trial_s = mean_trial_s(campaigns)
    campaign_s = sum(trial_s)
    walls = " ".join(f"{c['wall']:.3f}" for c in campaigns)
    print(f"perfbench: campaign wall times in s: {walls}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "campaign_s": (campaign_s, "s"),
        "trial_ms_p50": (statistics.median(trial_s) * 1e3, "ms"),
        "alg_calls_per_s": (campaigns[0]["totals"]["alg"] / campaign_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced campaigns for about `seconds`."""
    untraced, traced, tracers = [], [], []

    def pair():
        untraced.append(bench.campaign())
        tracer = Tracer()
        with tracer.installed():
            traced.append(bench.campaign(tracer))
        tracers.append(tracer)

    bench.warm_up()
    repeat(pair, seconds, 2)
    totals = untraced[0]["totals"]
    first = tracers[0]
    # the trace must see exactly the work the ledger and stage counters report
    for name, want in (
        ("solver.invoke", totals["alg"]),
        ("verify.verify_product", totals["verify_calls"]),
        ("reduction.solve_strip_any_matrix", totals["stage3_iters"]),
        ("reduction.solve_block_any_input", totals["boost_rounds_total"]),
    ):
        if first.calls[name] != want:
            bench.problems.append(f"traced {name} calls {first.calls[name]} != untraced count {want}")
    if any(t.counts() != first.counts() for t in tracers[1:]):
        bench.problems.append("traced counts differ between repeats of the campaign")
    print(first.table(), file=sys.stderr)
    # counts and ratios repeat exactly (checked above); times take the median
    per_campaign = [layer_metrics(t, totals) for t in tracers]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_campaign) if unit in ("s", "us") else value, unit)
        for name, (value, unit) in per_campaign[0].items()
    }
    # each traced campaign against the untraced one run just before it
    ratio = statistics.median(t["wall"] / u["wall"] for u, t in zip(untraced, traced))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics
