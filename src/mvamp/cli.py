"""Command line front end.

Subcommands:
  run           one campaign from a config file; CSV rows + JSON summary
  sweep         campaigns across several alphas; log-log slope fit
  sampler-check sampler diagnostics for pseudorandom dense tuple sets
  verify-bench  verifier completeness/soundness/cost measurement

Every subcommand takes --out DIR, which writes its JSON summary there, and
--assert, which gates the exit code on the subcommand's threshold.
Exit codes: 0 success, 1 a --assert threshold failed, 2 bad usage/config.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from .field import PrimeField
from .harness import (
    ConfigError,
    campaign_summary,
    parse_config,
    run_campaign,
    scaling_sweep,
    sweep_summary,
    trial_rng,
    write_summary_json,
    write_trials_csv,
)
from .sampler import (
    QueryGraph,
    check_density,
    check_exhaustive,
    check_sampler,
    check_sampler_parameters,
    lemma_condition,
    pseudorandom_set,
    theorem_condition,
    violation_fraction_exact,
)
from .verify import VerifierConfig, charged_queries, completeness_failures, false_accept_rates


def _parse_alphas(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--alphas expects comma-separated floats, got {text!r}") from None


def _count(text: str) -> int:
    """argparse type of a count: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finish(args, name: str, summary: dict, ok: bool, gate: str, csv_rows=None) -> int:
    """Every subcommand's tail: write summary (and csv_rows as trials.csv) under
    --out, then under --assert report the gate and return 1 if it failed."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        if csv_rows is not None:
            write_trials_csv(csv_rows, os.path.join(args.out, "trials.csv"))
        path = os.path.join(args.out, name)
        write_summary_json(summary, path)
        print(f"wrote {path}")
    if args.assert_thresholds:
        print(f"ASSERT {'OK' if ok else 'FAIL'}: {gate}")
    return int(args.assert_thresholds and not ok)


def _cmd_run(args) -> int:
    overrides = dict(seed=args.seed, trials=args.trials, workers=args.workers, min_success_rate=args.min_success_rate)
    config = parse_config(args.config, overrides)
    threshold = config.min_success_rate
    if args.assert_thresholds and threshold is None:
        print("--assert needs min_success_rate (config key or --min-success-rate)", file=sys.stderr)
        return 2
    print(
        f"run: modulus={config.modulus} n={config.n} trials={config.trials} "
        f"profile={config.profile} alpha={config.alpha} pipeline={config.pipeline}"
    )
    report = run_campaign(config)
    print(
        f"success_rate={report.success_rate:.4f} "
        f"ci=[{report.ci_low:.4f}, {report.ci_high:.4f}] "
        f"mean_alg_queries={report.mean_alg_queries:.1f} "
        f"wrong_returns={report.wrong_returns}"
    )
    ok = threshold is not None and report.success_rate >= threshold
    gate = f"success_rate {report.success_rate:.4f} {'>=' if ok else '<'} {threshold}"
    return _finish(args, "summary.json", campaign_summary(report), ok, gate, csv_rows=report.rows)


def _cmd_sweep(args) -> int:
    if not args.slope_min <= args.slope_max:
        raise ValueError(f"empty slope band: --slope-min {args.slope_min} is above --slope-max {args.slope_max}")
    overrides = {"seed": args.seed, "workers": args.workers}
    config = parse_config(args.config, overrides)
    alphas = _parse_alphas(args.alphas)
    print(f"sweep: alphas={alphas} trials_per_alpha={args.trials_per_alpha or config.trials}")
    report = scaling_sweep(config, alphas, args.trials_per_alpha)
    for entry in report.entries:
        print(
            f"  alpha={entry.alpha:<8g} mean_alg_queries={entry.mean_alg_queries:<12.1f} "
            f"success_rate={entry.success_rate:.3f}"
        )
    print(f"slope={report.slope:.3f} stderr={report.slope_stderr:.3f}")
    ok = args.slope_min <= report.slope <= args.slope_max
    gate = f"slope {report.slope:.3f} {'in' if ok else 'outside'} [{args.slope_min}, {args.slope_max}]"
    return _finish(args, "sweep.json", sweep_summary(report), ok, gate)


def _cmd_sampler_check(args) -> int:
    check_sampler_parameters(args.c, args.delta)
    check_density(args.eps)
    if not 0.0 <= args.min_pass_fraction <= 1.0:
        raise ValueError(f"--min-pass-fraction must lie in [0, 1], got {args.min_pass_fraction}")
    graph = QueryGraph(PrimeField(args.modulus), args.dim, args.copies)
    if args.exact:
        check_exhaustive(graph)
    rng = trial_rng(args.seed, 0)
    if args.seed + args.sets > 2**64:
        raise ValueError(f"set seeds must lie in [0, 2^64), got --seed + --sets - 1 = {args.seed + args.sets - 1}")
    print(
        f"sampler-check: |X|={graph.x_size} copies={args.copies} tuples={graph.y_size} "
        f"c={args.c} delta={args.delta} eps={args.eps} sets={args.sets} "
        f"mode={'exact' if args.exact else 'monte-carlo'}"
    )
    lemma_ok = lemma_condition(args.copies, args.c, args.delta, args.eps)
    theorem_ok = theorem_condition(args.copies, args.delta, args.eps)
    print(f"lemma condition: {'satisfied' if lemma_ok else 'NOT satisfied'}; "
          f"theorem condition: {'satisfied' if theorem_ok else 'NOT satisfied'}")

    results = []
    passes = 0
    for s in range(args.sets):
        indicator = pseudorandom_set(args.eps, args.seed + s)
        if args.exact:
            violation, density = violation_fraction_exact(graph, indicator, args.c)
        else:
            violation, density = check_sampler(graph, indicator, args.c, args.x_samples, args.y_samples, rng)
        ok = violation <= args.delta
        passes += ok
        results.append({"set": s, "violation_fraction": violation, "density": density, "ok": ok})
        print(f"  set {s}: density={density:.4f} violation_fraction={violation:.4f} "
              f"{'ok' if ok else 'VIOLATION ABOVE delta'}")
    pass_fraction = passes / args.sets
    print(f"pass_fraction={pass_fraction:.3f}")
    summary = {
        "x_size": graph.x_size,
        "copies": args.copies,
        "c": args.c,
        "delta": args.delta,
        "eps": args.eps,
        "lemma_condition": lemma_ok,
        "theorem_condition": theorem_ok,
        "sets": results,
        "pass_fraction": pass_fraction,
    }
    ok = pass_fraction >= args.min_pass_fraction
    gate = f"pass_fraction {pass_fraction:.3f} {'>=' if ok else '<'} {args.min_pass_fraction}"
    return _finish(args, "sampler_check.json", summary, ok, gate)


def _cmd_verify_bench(args) -> int:
    field = PrimeField(args.modulus)
    config = VerifierConfig(epsilon=args.eps)
    rng = trial_rng(args.seed, 0)
    print(
        f"verify-bench: {args.rows}x{args.cols} mod {args.modulus} eps={args.eps} "
        f"trials={args.trials}"
    )
    failures = completeness_failures(field, args.rows, args.cols, config, args.trials, rng)
    false_accepts = false_accept_rates(field, args.rows, config, args.trials, rng)
    charged = charged_queries(args.rows, args.eps)
    print(f"completeness failures: {failures}/{args.trials}")
    for mode, rate in false_accepts.items():
        print(f"false-accept rate ({mode} wrong outputs): {rate:.5f} (bound eps={args.eps})")
    print(f"charged cost per call at {args.rows} rows: {charged}")
    summary = {
        "rows": args.rows,
        "cols": args.cols,
        "modulus": args.modulus,
        "eps": args.eps,
        "trials": args.trials,
        "completeness_failures": failures,
        "false_accept_rates": false_accepts,
        "charged_queries_per_call": charged,
    }
    bound = args.eps + 3.0 * math.sqrt(args.eps * (1.0 - args.eps) / args.trials)
    ok = failures == 0 and all(r <= bound for r in false_accepts.values())
    gate = f"completeness_failures={failures}, false accepts vs bound {bound:.5f}: {false_accepts}"
    return _finish(args, "verify_bench.json", summary, ok, gate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvamp",
        description="Worst-case amplification experiments for finite-field matrix-vector solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="directory for the JSON summary (and run's trials.csv)")
    common.add_argument("--assert", dest="assert_thresholds", action="store_true",
                        help="exit 1 unless the subcommand's threshold holds")
    campaign = argparse.ArgumentParser(add_help=False, parents=[common])
    campaign.add_argument("config", help="path to a flat key = value config file")
    campaign.add_argument("--seed", type=int, default=None, help="override config seed")
    campaign.add_argument("--workers", type=int, default=None, help="override config workers")

    p_run = sub.add_parser("run", parents=[campaign], help="run one campaign from a config file")
    p_run.add_argument("--trials", type=int, default=None, help="override config trials")
    p_run.add_argument("--min-success-rate", type=float, default=None,
                       help="threshold for --assert (defaults to config min_success_rate)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[campaign], help="run campaigns across alphas and fit a slope")
    p_sweep.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p_sweep.add_argument("--trials-per-alpha", type=_count, default=None)
    p_sweep.add_argument("--slope-min", type=float, default=-2.5)
    p_sweep.add_argument("--slope-max", type=float, default=-1.5)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_samp = sub.add_parser("sampler-check", parents=[common],
                            help="sampler diagnostics for dense tuple sets")
    p_samp.add_argument("--modulus", type=int, default=2)
    p_samp.add_argument("--dim", type=_count, default=1)
    p_samp.add_argument("--copies", type=_count, required=True, help="tuple length k")
    p_samp.add_argument("--c", type=float, required=True)
    p_samp.add_argument("--delta", type=float, required=True)
    p_samp.add_argument("--eps", type=float, required=True, help="dense set density")
    p_samp.add_argument("--sets", type=_count, default=20)
    p_samp.add_argument("--x-samples", type=_count, default=200)
    p_samp.add_argument("--y-samples", type=_count, default=2000)
    p_samp.add_argument("--exact", action="store_true", help="enumerate instead of sampling")
    p_samp.add_argument("--seed", type=int, default=0)
    p_samp.add_argument("--min-pass-fraction", type=float, default=0.95)
    p_samp.set_defaults(func=_cmd_sampler_check)

    p_ver = sub.add_parser("verify-bench", parents=[common], help="verifier completeness/soundness/cost bench")
    p_ver.add_argument("--rows", type=_count, required=True)
    p_ver.add_argument("--cols", type=_count, required=True)
    p_ver.add_argument("--modulus", type=int, default=5)
    p_ver.add_argument("--eps", type=float, default=1e-4)
    p_ver.add_argument("--trials", type=_count, default=10000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
