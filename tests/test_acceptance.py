"""Acceptance battery: eight end-to-end guarantees, one test each.

Each test prints a single PASS/FAIL line with the measured quantities so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist. The
statistical tolerances are pinned in-line next to each assertion.
"""

import math

import numpy as np
import pytest

from mvamp.field import PrimeField
from mvamp.linalg import FpMatrix, FpVector, matvec, matvec_values, random_matrix, random_vector
from mvamp.oracle import (
    SOURCE_VERIFIER,
    QueryLedger,
    concat_rows,
    concat_vectors,
    embed_block_matrix,
    extract_block,
    extract_submatrix,
    extract_subvector,
    wrap_matrix,
    wrap_vector,
)
from mvamp.reduction import good_fraction_exhaustive
from mvamp.sampler import (
    QueryGraph,
    check_sampler,
    lemma_condition,
    pseudorandom_set,
    violation_fraction_exact,
)
from mvamp.solver import (
    GoodBadProfile,
    NoisySolver,
    PlantedAdversarialProfile,
    UniformProfile,
    exact_average_success,
)
from mvamp.verify import (
    VerifierConfig,
    charged_queries,
    completeness_failures,
    draw_challenges,
    false_accept_rates,
    verify_product,
)
from mvamp.harness import (
    experiment_config_from_values,
    run_campaign,
    write_trials_csv,
)


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")


# shared campaign for criteria 5 and 6, computed once
_CACHE = {}


def planted_campaign():
    if "full" not in _CACHE:
        cfg = experiment_config_from_values(
            {
                "modulus": 5,
                "n": 8,
                "trials": 500,
                "alpha": 0.25,
                "profile": "planted",
                "bad_fraction": 0.5,
                "input_mode": "planted-bad",
                "pipeline": "full",
                "k": 2,
                "c0": 8.0,
                "seed": 0,
            }
        )
        _CACHE["full"] = run_campaign(cfg)
    return _CACHE["full"]


def test_criterion_1_oracle_algebra():
    # extract(concat) = component, concat(extracted blocks) = original,
    # widened block times planted concat vector = block times slot vector;
    # exhaustive over p in {2,3,5}, n <= 6, every d | n, every slot
    failures = 0
    checks = 0
    for p in (2, 3, 5):
        field = PrimeField(p)
        rng = np.random.default_rng(1000 + p)
        for n in range(1, 7):
            m = random_matrix(n, n, field, rng)
            v = random_vector(n, field, rng)
            for d in (x for x in range(1, n + 1) if n % x == 0):
                k = n // d
                led = QueryLedger()
                # strips: concatenation of wrapped strips views the original
                strips = [FpMatrix(field, m.values.tolist()[i * d : (i + 1) * d]) for i in range(k)]
                stacked = concat_rows([wrap_matrix(s, led) for s in strips])
                checks += 1
                failures += stacked.to_matrix() != m
                for i in range(k):
                    checks += 1
                    failures += extract_submatrix(stacked, i * d, d).to_matrix() != strips[i]
                # blocks: extracting all k^2 blocks reassembles the original
                hm = wrap_matrix(m, led)
                rebuilt = [[None] * k for _ in range(k)]
                for bi in range(k):
                    for bj in range(k):
                        rebuilt[bi][bj] = extract_block(hm, bi, bj, d).to_matrix().values.tolist()
                rows = []
                for bi in range(k):
                    for r in range(d):
                        rows.append(sum((rebuilt[bi][bj][r] for bj in range(k)), []))
                checks += 1
                failures += FpMatrix(field, rows) != m
                # widened-block identity: the k-1 co-segments do not matter
                hv = wrap_vector(v, led)
                for bi in range(k):
                    for slot in range(k):
                        block_h = extract_block(hm, bi, slot, d)
                        widened = embed_block_matrix(block_h, slot, k)
                        segments = []
                        for j in range(k):
                            if j == slot:
                                segments.append(extract_subvector(hv, j * d, d))
                            else:
                                seg = random_vector(d, field, rng)
                                segments.append(wrap_vector(seg, led))
                        vbar = concat_vectors(segments)
                        got = matvec(widened.to_matrix(), vbar.to_vector())
                        want = matvec(
                            block_h.to_matrix(),
                            FpVector(field, v.to_list()[slot * d : (slot + 1) * d]),
                        )
                        checks += 1
                        failures += got != want
    ok = failures == 0
    report(1, "oracle algebra", ok, f"{checks} identities, {failures} failures")
    assert ok


def test_criterion_2_good_vector_fraction():
    # any profile whose exact average is >= alpha leaves at least an
    # alpha/2 fraction of vectors good (conditional success >= alpha/2);
    # exhaustive at p = 2, n <= 3
    f2 = PrimeField(2)
    cases = 0
    worst = 1.0
    for alpha in (0.25, 0.5):
        for n in (1, 2, 3):
            profiles = [
                UniformProfile(alpha),
                UniformProfile(min(1.0, alpha * 1.5)),
                GoodBadProfile(lambda m, v, p: int(v[0]) == 0, 1.0, 0.0),
                GoodBadProfile(lambda m, v, p: int(v[0]) == 0, 0.75, 0.25),
            ]
            profiles += [
                PlantedAdversarialProfile(average=alpha, bad_fraction=0.5, seed=s)
                for s in range(8)
            ]
            eligible = 0
            for prof in profiles:
                avg = exact_average_success(prof, n, f2)
                if avg < alpha:  # premise of the lemma, exact, no slack
                    continue
                eligible += 1
                frac = good_fraction_exhaustive(NoisySolver(prof), n, f2, alpha=alpha)
                worst = min(worst, frac - alpha / 2)
                cases += 1
                assert frac >= alpha / 2, (alpha, n, type(prof).__name__, frac)
            assert eligible >= 3, (alpha, n)  # the check must not be vacuous
    report(2, "good-vector fraction", True, f"{cases} profiles, min slack {worst:.3f}")


def test_criterion_3_verifier_contract():
    f5 = PrimeField(5)
    rng = np.random.default_rng(300)
    # completeness: zero rejections over 1e5 correct pairs, each product
    # claimed in Python integers and checked against the verifier's own M v
    assert completeness_failures(f5, 4, 4, VerifierConfig(epsilon=1e-3), 100000, rng) == 0
    # soundness: false-accept rate <= eps + 3 sigma, both failure modes
    trials = 10000
    worst = 0.0
    for eps in (0.1, 1e-3):
        bound = eps + 3.0 * math.sqrt(eps * (1 - eps) / trials)
        for mode, rate in false_accept_rates(f5, 4, VerifierConfig(epsilon=eps), trials, rng).items():
            assert rate <= bound, (eps, mode, rate, bound)
            worst = max(worst, rate)
    # charged cost: exactly ceil(r^(3/2) * ceil(log2(1/eps))) per call
    for rows in (2, 4, 8, 16, 100):
        for eps in (0.1, 1e-3, 1e-4):
            levels = math.ceil(math.log2(1.0 / eps))
            target = levels * levels * rows**3
            root = math.isqrt(target)
            expect = root if root * root >= target else root + 1
            assert charged_queries(rows, eps) == expect
            probe = QueryLedger()
            mm = random_matrix(rows, rows, f5, rng)
            vv = random_vector(rows, f5, rng)
            paper = VerifierConfig(epsilon=eps, accounting="paper")
            operands = (wrap_matrix(mm, probe), wrap_vector(vv, probe))
            mv = matvec_values(mm.values, vv.values, 5)
            verify_product(probe, f5, mv, matvec(mm, vv).values, paper, draw_challenges(paper, 5, rows, rng), operands)
            assert probe.snapshot() == {SOURCE_VERIFIER: expect}
    detail = f"0 completeness failures in 1e5, max false-accept {worst:.4f}, cost formula exact"
    report(3, "verifier contract", True, detail)


def test_criterion_4_sampler_violations():
    # 20 pseudorandom dense sets per (|X|, k) combo; the combo parameters
    # satisfy the lemma condition 2 exp(-k c^2 delta / 8) <= c eps
    params = {8: (0.95, 0.99, 0.90), 16: (0.90, 0.95, 0.50)}
    results = []
    for size_exp, k in ((1, 8), (1, 16), (2, 8), (2, 16)):
        c, delta, eps = params[k]
        assert lemma_condition(k, c, delta, eps)
        graph = QueryGraph(PrimeField(2), size_exp, k)  # |X| = 2 or 4
        exact = graph.y_size <= 2**26
        rng = np.random.default_rng(4000 + 10 * size_exp + k)
        passed = 0
        for s in range(20):
            indicator = pseudorandom_set(eps, seed=1000 * size_exp + 100 * k + s)
            if exact:
                frac, _ = violation_fraction_exact(graph, indicator, c)
                passed += frac <= delta
            else:
                frac, _ = check_sampler(graph, indicator, c=c, x_samples=32, y_samples_per_x=2000, rng=rng)
                allowance = 3.0 * math.sqrt(delta * (1 - delta) / 32)
                passed += frac <= delta + allowance
        results.append((graph.x_size, k, passed, exact))
        assert passed >= 19, (graph.x_size, k, passed)
    detail = ", ".join(
        f"|X|={s} k={k}: {p}/20{'' if e else ' (MC)'}" for s, k, p, e in results
    )
    report(4, "sampler violation fraction", True, detail)


def test_criterion_5_end_to_end_amplification():
    rep = planted_campaign()
    # same planted-bad inputs, one unamplified verified call each
    base_cfg = experiment_config_from_values(
        {
            "modulus": 5,
            "n": 8,
            "trials": 500,
            "alpha": 0.25,
            "profile": "planted",
            "bad_fraction": 0.5,
            "input_mode": "planted-bad",
            "pipeline": "baseline",
            "k": 2,
            "c0": 8.0,
            "seed": 0,
        }
    )
    base = run_campaign(base_cfg)
    ok = rep.success_rate >= 0.9 and base.success_rate <= 0.05
    report(
        5,
        "end-to-end amplification",
        ok,
        f"amplified {rep.success_rate:.3f} >= 0.9, baseline {base.success_rate:.3f} <= 0.05, 500 trials",
    )
    assert rep.success_rate >= 0.9
    assert base.success_rate <= 0.05


def test_criterion_6_soundness_of_returns():
    rep = planted_campaign()
    eps = rep.config["verifier_epsilon"]
    # a wrong return needs at least one verifier false accept; one verify
    # per solver invocation plus one gate per stage-3 iteration bounds the
    # per-trial budget
    mean_verifies = float(
        np.mean([r.alg_queries + r.stage3_iters for r in rep.rows])
    )
    budget = eps * mean_verifies
    sigma = math.sqrt(max(budget * (1 - budget), 1e-12) / rep.trials)
    wrong_rate = rep.wrong_returns / rep.trials
    assert wrong_rate <= budget + 3 * sigma
    # zero tolerance under the exact verifier
    exact_cfg = experiment_config_from_values(
        {
            "modulus": 5,
            "n": 8,
            "trials": 100,
            "alpha": 0.25,
            "profile": "planted",
            "bad_fraction": 0.5,
            "input_mode": "planted-bad",
            "pipeline": "full",
            "k": 2,
            "c0": 8.0,
            "seed": 1,
            "verifier_mode": "exact",
        }
    )
    exact_rep = run_campaign(exact_cfg)
    ok = exact_rep.wrong_returns == 0
    report(
        6,
        "returned products are sound",
        ok,
        f"wrong-rate {wrong_rate:.4f} <= {budget + 3 * sigma:.4f}, exact-mode wrong returns {exact_rep.wrong_returns}",
    )
    assert exact_rep.wrong_returns == 0


def test_criterion_7_query_scaling():
    from mvamp.harness import scaling_sweep

    cfg = experiment_config_from_values(
        {
            "modulus": 5,
            "n": 8,
            "trials": 6,
            "alpha": 0.5,
            "profile": "uniform",
            "pipeline": "full",
            "k_mode": "desk",
            "c0": 8.0,
            "seed": 0,
        }
    )
    rep = scaling_sweep(cfg, [0.5, 0.25, 0.125, 0.0625], trials_per_alpha=6)
    ok = -2.5 <= rep.slope <= -1.5
    means = ", ".join(f"{e.alpha}: {e.mean_alg_queries:.0f}" for e in rep.entries)
    report(
        7,
        "query scaling",
        ok,
        f"slope {rep.slope:.3f} in [-2.5, -1.5], stderr {rep.slope_stderr:.3f}, mean ALG {{{means}}}",
    )
    assert -2.5 <= rep.slope <= -1.5


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg_values = {
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
    }
    paths = []
    for tag in ("a", "b"):
        rep = run_campaign(experiment_config_from_values(dict(cfg_values)))
        path = tmp_path / f"trials_{tag}.csv"
        write_trials_csv(rep.rows, str(path))
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(8, "seeded determinism", identical, f"40-trial campaign, csv bytes equal: {identical}")
    assert identical
