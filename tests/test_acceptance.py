"""Acceptance gate: nine criteria, one recorded pass/fail line each.

Each criterion runs inside a timer; the criterion fails if any of its
checks fail or if it overruns its stated budget.  The verdict lines are
echoed in the terminal summary (see conftest).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import zerorate as zr
from zerorate import exponent as exponent_mod

import conftest
from conftest import (
    ACCEPTANCE_LINES,
    random_codebook,
    random_full_support_pair,
)

F = Fraction

SINGLE_LETTER_PEAK = 0.1438410362258904   # sup over s of the (0,1) kernel value, BSC(1/4)


def _criterion(num: int, budget_s: float, body) -> None:
    start = time.perf_counter()
    try:
        note = body() or ""
        ok = True
    except AssertionError as exc:
        ok, note = False, str(exc).splitlines()[0] if str(exc) else "assertion failed"
    except Exception as exc:  # surface crashes as failures, not errors
        ok, note = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget_s
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    line = f"criterion {num}: {verdict} ({elapsed:.2f}s of {budget_s:.0f}s) {note}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert in_budget, line


def _bsc():
    row0 = (F(3, 4), F(1, 4))
    row1 = (F(1, 4), F(3, 4))
    return zr.pair_from_rows((row0, row1), (row0, row1), name="bsc-quarter")


def _typewriter():
    e = F(1, 10)
    W = ((1 - e, e, F(0)), (F(0), 1 - e, e), (e, F(0), 1 - e))
    q = ((1 - e, e, F(0)), (F(1, 20), 1 - e, e), (e, F(0), 1 - e))
    return zr.pair_from_rows(W, q, name="typewriter-tenth")


def test_criterion_1_worked_example_fixture():
    def body():
        pair = _typewriter()
        e = F(1, 10)
        rep = zr.zero_error_report(pair)
        assert rep.c0bar_zero is True, "average zero-error flag"
        assert rep.c0_zero is True, "zero-error flag"
        ok, violation = zr.is_balanced(pair)
        assert ok is False, "balance must fail"
        assert violation.pair == (0, 1), f"violation pair {violation.pair}"
        expected = (2 * (1 - e) / e, e / (1 - e))
        assert violation.ratios == expected, f"ratios {violation.ratios}"
        gap = zr.gap_bound(pair)
        assert abs(gap - 0.5 * math.log(10)) <= 1e-9, f"gap {gap}"
        return "flags, violation ratios (18, 1/9), gap within 1e-9"

    _criterion(1, 1.0, body)


def test_criterion_2_balanced_exact_equality():
    def body():
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 5))
            pair = random_full_support_pair(rng, nx=nx, ny=ny)
            assert zr.is_strict_support_match(pair)
            ok, _ = zr.check_c0bar_zero(pair)
            assert ok, "full-support pair must satisfy the ordering condition"
            res = zr.zero_rate_exponent(pair)
            assert res.kind == "exact_equality", f"kind {res.kind}"
            low = zr.expurgated_lower(pair)   # independent search route
            diff = abs(res.value - low.value)
            worst = max(worst, diff)
            assert diff <= 1e-6, f"upper/lower split {diff:.3e}"
            assert res.lower_expurgated >= low.value - 1e-12
        return f"100 pairs, max |exponent - lower route| = {worst:.2e}"

    _criterion(2, 60.0, body)


def test_criterion_3_multistart_matches_grid_oracle():
    def body():
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(50):
            nx = int(rng.integers(2, 4))
            pair = random_full_support_pair(rng, nx=nx)
            kernel = zr.PairKernel(pair)
            s = float(rng.uniform(0.05, 3.0))
            G = conftest.sigma_at(kernel, s)
            exact, _ = exponent_mod._q_max(G)
            oracle, _ = conftest.grid_q_max(G, 200)
            diff = abs(exact - oracle)
            worst = max(worst, diff)
            assert diff <= 1e-4, f"optimizer vs oracle diff {diff:.3e} at s={s:.3f}"
        return f"50 pairs, max |face enumeration - grid| = {worst:.2e}"

    _criterion(3, 120.0, body)


def test_criterion_4_kernel_calculus_suite():
    def body():
        rng = np.random.default_rng(404)
        h = 1e-5
        pairs_checked = 0
        for _ in range(200):
            pair = conftest.random_admissible_pair(rng)
            k = zr.PairKernel(pair)
            for a in range(pair.nx):
                assert k.mu(a, a, float(rng.uniform(0, 5))) == 0.0, "diagonal not zero"
            directions = [
                (a, b)
                for a in range(pair.nx)
                for b in range(pair.nx)
                if a != b and not k.direction(a, b).empty
            ]
            for a, b in directions:
                s1, s2 = sorted(rng.uniform(0.0, 5.0, size=2))
                lam = float(rng.uniform(0.0, 1.0))
                mid = lam * s1 + (1 - lam) * s2
                chord = lam * k.mu(a, b, s1) + (1 - lam) * k.mu(a, b, s2)
                assert k.mu(a, b, mid) >= chord - 1e-9, "concavity chord"
                s = float(rng.uniform(0.1, 2.5))
                fd = (k.mu(a, b, s + h) - k.mu(a, b, s - h)) / (2 * h)
                assert abs(k.mu_prime(a, b, s) - fd) <= 1e-6, "derivative vs fd"
                tilted = conftest.tilted_distribution(k, a, b, s)
                kl = sum(
                    float(p) * math.log(float(p) / float(pair.W[a][y]))
                    for y, p in enumerate(tilted)
                    if p > 0
                )
                assert abs(k.mu(a, b, s) - s * k.mu_prime(a, b, s) - kl) <= 1e-9, "tilt identity"
                kind, _ = conftest.classify_limit(k, a, b)
                limit_slope = k.direction(a, b).slope_limit
                ratio = k.direction(a, b).a_min
                if kind == "minus_infinity":
                    assert ratio < 1 and limit_slope < 0, "limit sign"
                elif kind == "plus_infinity":
                    assert ratio > 1 and limit_slope > 0, "limit sign"
                else:
                    assert ratio == 1 and limit_slope == 0.0, "limit sign"
                # slopes decrease toward the limiting slope, never below it
                assert k.mu_prime(a, b, 80.0) >= limit_slope - 1e-9, "slope below its limit"
            if pair.nx >= 2:
                x1 = rng.integers(0, pair.nx, 6).tolist()
                x2 = rng.integers(0, pair.nx, 6).tolist()
                s = float(rng.uniform(0.1, 2.0))
                seq = k.mu_sequence(x1, x2, s)
                per = sum(k.mu(int(u), int(v), s) for u, v in zip(x1, x2))
                if math.isfinite(seq):
                    assert abs(seq - per) <= 1e-12, "sequence additivity"
                else:
                    assert seq == per
            pairs_checked += 1
        return f"{pairs_checked} pairs through the full calculus battery"

    _criterion(4, 30.0, body)


def test_criterion_5_bound_soundness_and_tie_ordering():
    def body():
        rng = np.random.default_rng(505)
        bsc = _bsc()
        tw = _typewriter()
        fixtures = []
        for n in range(1, 11):
            fixtures.append((bsc, ((0,) * n, (1,) * n)))
        fixtures.append((bsc, ((0, 0, 1, 0), (1, 1, 0, 0))))
        fixtures.append((tw, ((0, 1, 2, 0), (1, 2, 0, 0))))
        fixtures.append((tw, ((0,) * 6, (1,) * 6)))
        for _ in range(6):
            pair = random_full_support_pair(rng, nx=2, ny=3)
            n = int(rng.integers(2, 7))
            w1 = tuple(int(v) for v in rng.integers(0, 2, n))
            w2 = tuple(int(v) for v in rng.integers(0, 2, n))
            if w1 != w2:
                fixtures.append((pair, (w1, w2)))
        bounds_checked = 0
        for pair, (x1, x2) in fixtures:
            code = zr.Codebook((x1, x2), pair.nx)
            outs = {
                pol: zr.exact_error_probabilities(pair, code, tie_policy=pol)
                for pol in ("as_error", "equiprobable", "genie_correct")
            }
            for m in (0, 1):
                assert (
                    outs["as_error"].per_message[m]
                    >= outs["equiprobable"].per_message[m]
                    >= outs["genie_correct"].per_message[m]
                ), "tie-policy ordering"
            exact_first = float(outs["equiprobable"].per_message[0])
            sup_rep = zr.sup_error_lower_bound(pair, x1, x2)
            assert sup_rep.value <= exact_first + 1e-300, "sup bound unsound"
            bounds_checked += 1
            for s in (0.3, 0.6, 1.0, 2.0):
                try:
                    rep = zr.tilted_error_lower_bound(pair, x1, x2, s)
                except zr.PreconditionError:
                    continue  # hypothesis (negative slope) does not hold there
                assert rep.value <= exact_first + 1e-300, "tilted bound unsound"
                bounds_checked += 1
        return f"{len(fixtures)} fixtures, {bounds_checked} bound evaluations"

    _criterion(5, 60.0, body)


def test_criterion_6_empirical_convergence_at_16():
    def body():
        pair = _bsc()
        pts = zr.empirical_exponent(pair, 0, 1, (16,))
        assert pts[0].mode == "exact"
        tol = zr.type_counting_slack(pair, 16) / 16 + 0.02
        diff = abs(pts[0].exponent - SINGLE_LETTER_PEAK)
        assert diff <= tol, f"|{pts[0].exponent:.6f} - {SINGLE_LETTER_PEAK:.6f}| > {tol:.3f}"
        return f"rate {pts[0].exponent:.6f}, peak {SINGLE_LETTER_PEAK:.6f}, slack allowance {tol:.2f}"

    _criterion(6, 30.0, body)


def test_criterion_7_counting_identity_exact():
    def body():
        rng = np.random.default_rng(707)
        for _ in range(200):
            nx = int(rng.integers(2, 5))
            m = int(rng.integers(2, 11))
            n = int(rng.integers(1, 21))
            code = random_codebook(rng, n=n, m=m, nx=nx)
            for a in range(nx):
                for b in range(nx):
                    if a != b:
                        lhs, rhs = zr.plotkin_identity(code, a, b)
                        assert lhs == rhs, f"identity broke at ({a},{b})"
        return "200 codebooks, all ordered letter pairs, exact rational equality"

    _criterion(7, 10.0, body)


def test_criterion_8_subcode_certificates():
    def body():
        rng = np.random.default_rng(808)
        pair = _bsc()
        chains = 0
        for _ in range(20):
            code = random_codebook(rng, n=32, m=64, nx=2)
            selected, extraction = zr.komlos_extract(code, t=4, target=8)
            spread = extraction.observed_spread
            bound = 6 / math.sqrt(extraction.m_hat) + 4 * math.sqrt(float(spread)) + 4 * float(spread)
            sub = code.subcode(selected)
            worst_asym = F(0)
            for i in range(sub.size):
                for j in range(i + 1, sub.size):
                    t1 = zr.joint_type(sub.words[i], sub.words[j], 2)
                    t2 = zr.joint_type(sub.words[j], sub.words[i], 2)
                    for a in range(2):
                        for b in range(2):
                            worst_asym = max(worst_asym, abs(t1[a][b] - t2[a][b]))
            assert float(worst_asym) <= bound + 1e-12, "asymmetry above certificate bound"
            assert worst_asym == extraction.observed_asymmetry, "asymmetry bookkeeping"
            cert = zr.dmin_certificate(pair, code, selected, t=4)
            assert cert.all_ok, "certificate flags"
            for check in cert.checks:
                assert check.ok, f"chain link {check.name}"
                assert check.slack >= -1e-9, f"negative slack at {check.name}"
            chains += 1
        return f"20 extractions verified, {chains} full chains with nonnegative slack"

    _criterion(8, 120.0, body)


def test_criterion_9_monte_carlo_calibration():
    def body():
        pair = _bsc()
        code = zr.Codebook(((0, 0), (1, 1)), 2)
        exact = float(zr.exact_error_probabilities(pair, code).average)
        covered = 0
        for seed in range(50):
            out = zr.monte_carlo_error(pair, code, trials=20000, seed=seed)
            lo, hi = out.confidence_interval
            if lo <= exact <= hi:
                covered += 1
            repeat = zr.monte_carlo_error(pair, code, trials=20000, seed=seed)
            assert repeat == out, "seeded rerun not bit-for-bit identical"
        assert covered >= 45, f"coverage {covered}/50 below 90%"
        return f"interval coverage {covered}/50, reruns identical"

    _criterion(9, 60.0, body)
