"""End-to-end acceptance gate.

Each test exercises one deliverable at its stated tolerance and records a
one-line verdict that the terminal summary hook prints after the run.
Runtime budgets are asserted alongside the numeric checks.
"""

import math
import time

import numpy as np
import pytest

from critline.arithmetic import chebyshev_psi
from critline.dirichlet import (
    enumerate_characters,
    epsilon_factor,
    gauss_sum,
    xi_completed_l,
)
from critline.levinson import (
    LevinsonParams,
    c_constant_exact,
    c_constant_quadrature,
    kappa_lower_bound,
    published_tuples,
)
from critline.moment import mollified_moment_numeric
from critline.mollifier import Polynomial
from critline.optimizer import SearchSpace, grid_scan_r, optimize_kappa
from critline.zeta import (
    AfeParams,
    afe_pair,
    count_critical_zeros,
    hardy_z,
    xi_completed,
    zero_count_estimate,
    zeta,
)

from conftest import record_criterion

BASELINE = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 1.3, 0.5)


def test_criterion_1_levinson_pipeline():
    start = time.perf_counter()
    c_exact = c_constant_exact(BASELINE)
    c_quad = c_constant_quadrature(BASELINE)
    elapsed = time.perf_counter() - start
    kappa = kappa_lower_bound(c_exact, BASELINE.r_shift)

    agree = abs(c_exact - c_quad) < 1e-9
    in_window = 0.30 < kappa < 0.36
    fast = elapsed < 1.0
    ok = agree and in_window and fast
    detail = (
        f"c={c_exact:.9f} (paths agree to {abs(c_exact - c_quad):.1e}), "
        f"kappa={kappa:.6f}, claims c=2.35 kappa>=0.35, {elapsed:.2f}s"
    )
    record_criterion(1, ok, detail)
    assert agree
    assert in_window
    assert fast


def test_criterion_2_zero_scan():
    start = time.perf_counter()
    report = count_critical_zeros(0.0, 100.0, 0.05)
    elapsed = time.perf_counter() - start

    refined = all(abs(hardy_z(rho)) < 1e-4 for rho in report.zeros)
    estimate = zero_count_estimate(100.0)
    close = abs(report.zero_count - estimate) <= 3.0
    proportion = report.zero_count / estimate
    ok = (
        report.zero_count == 29
        and refined
        and close
        and proportion > 0.9
        and elapsed < 30.0
    )
    detail = (
        f"{report.zero_count} zeros in [0,100] (estimate {estimate:.2f}, "
        f"proportion {proportion:.3f}), all |Z(rho)|<1e-4: {refined}, {elapsed:.2f}s"
    )
    record_criterion(2, ok, detail)
    assert report.zero_count == 29
    assert refined
    assert close
    assert proportion > 0.9
    assert elapsed < 30.0


def test_criterion_3_functional_equations():
    start = time.perf_counter()
    rng = np.random.default_rng(3)

    worst_zeta = 0.0
    for _ in range(50):
        s = complex(rng.uniform(-7, 7), rng.uniform(-7, 7))
        if abs(s) > 10.0:
            s /= abs(s) / 9.0
        lhs = xi_completed(s)
        rhs = xi_completed(1.0 - s)
        worst_zeta = max(worst_zeta, abs(lhs - rhs) / max(1.0, abs(lhs)))

    strip_points = [0.2 + 0.5j, 0.5 + 1.0j, 0.8 - 0.7j, 0.35 + 2.0j, 0.65 - 1.5j]
    worst_l = 0.0
    checked = 0
    for q in range(3, 21):
        for chi in enumerate_characters(q):
            if not (chi.is_primitive and not chi.is_principal):
                continue
            checked += 1
            for s in strip_points:
                lhs = xi_completed_l(s, chi)
                rhs = epsilon_factor(chi) * xi_completed_l(1.0 - s, chi.conjugate())
                worst_l = max(worst_l, abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.perf_counter() - start

    ok = worst_zeta < 1e-8 and worst_l < 1e-7 and elapsed < 60.0
    detail = (
        f"xi reflection residual {worst_zeta:.1e} on 50 points; completed-L "
        f"residual {worst_l:.1e} over {checked} primitive characters, {elapsed:.2f}s"
    )
    record_criterion(3, ok, detail)
    assert worst_zeta < 1e-8
    assert worst_l < 1e-7
    assert elapsed < 60.0


def test_criterion_4_gauss_sums():
    start = time.perf_counter()
    worst_mod = 0.0
    for q in range(2, 51):
        for chi in enumerate_characters(q):
            if chi.is_primitive:
                worst_mod = max(worst_mod, abs(abs(gauss_sum(chi)) - math.sqrt(q)))

    worst_id = 0.0
    for q in range(2, 31):
        root = np.exp(2j * np.pi * np.arange(q) / q)
        for chi in enumerate_characters(q):
            bar = chi.conjugate()
            tau_bar = gauss_sum(bar)
            for n in range(q):
                twisted = sum(bar(a) * root[(a * n) % q] for a in range(q))
                if math.gcd(n, q) == 1:
                    worst_id = max(worst_id, abs(chi(n) * tau_bar - twisted))
                if chi.is_primitive:
                    worst_id = max(worst_id, abs(chi(n) * tau_bar - twisted))
            worst_id = max(
                worst_id,
                abs(gauss_sum(chi).conjugate() - chi(-1) * tau_bar),
            )
    elapsed = time.perf_counter() - start

    ok = worst_mod < 1e-10 and worst_id < 1e-10 and elapsed < 10.0
    detail = (
        f"| |tau|-sqrt(q) | worst {worst_mod:.1e} for q<=50; identity residual "
        f"worst {worst_id:.1e} for q<=30, {elapsed:.2f}s"
    )
    record_criterion(4, ok, detail)
    assert worst_mod < 1e-10
    assert worst_id < 1e-10
    assert elapsed < 10.0


def test_criterion_5_moment_window():
    start = time.perf_counter()
    report = mollified_moment_numeric(BASELINE, 5000.0, grid_step=0.05)
    halved = mollified_moment_numeric(BASELINE, 5000.0, grid_step=0.025)
    elapsed = time.perf_counter() - start

    self_convergence = abs(report.numeric_moment - halved.numeric_moment) / abs(
        halved.numeric_moment
    )
    in_window = 0.85 <= report.ratio <= 1.15
    converged = self_convergence < 1e-3
    ok = in_window and converged and elapsed < 600.0
    detail = (
        f"ratio numeric/main = {report.ratio:.4f} (window [0.85, 1.15]), "
        f"grid-halving drift {self_convergence:.2e}, {elapsed:.1f}s"
    )
    record_criterion(5, ok, detail)
    assert converged
    assert elapsed < 600.0
    assert in_window, (
        "desk-scale moment sits below the asymptotic main term; the ratio "
        f"{report.ratio:.4f} rises with T but has not reached the window at T=5000"
    )


def test_criterion_6_optimizer():
    start = time.perf_counter()

    grid = grid_scan_r(
        Polynomial((0.0, 1.0)),
        Polynomial((1.0, -1.0)),
        0.5,
        np.arange(0.5, 2.5 + 1e-9, 0.001),
    )
    grid_best = max(k for _, k in grid)

    space_11 = SearchSpace(1, 1, (0.5, 2.5), 0.5)
    report_11 = optimize_kappa(space_11)
    repeat_11 = optimize_kappa(space_11)

    baseline_kappa = kappa_lower_bound(c_constant_exact(BASELINE), 1.3)
    space_33 = SearchSpace(3, 3, (0.5, 2.5), 0.5)
    report_33 = optimize_kappa(space_33)
    elapsed = time.perf_counter() - start

    # the optimizer may leave the grid's fixed baseline polynomials behind,
    # so the grid optimum is a one-sided floor rather than a target
    dominates = report_11.best_kappa >= grid_best - 1e-4
    improves = report_33.best_kappa >= baseline_kappa + 0.005
    deterministic = report_11.best_kappa == repeat_11.best_kappa
    ok = dominates and improves and deterministic and elapsed < 120.0
    detail = (
        f"(1,1) kappa {report_11.best_kappa:.6f} vs grid floor {grid_best:.6f}; "
        f"(3,3) kappa {report_33.best_kappa:.6f} vs baseline {baseline_kappa:.6f}; "
        f"deterministic: {deterministic}, {elapsed:.1f}s"
    )
    record_criterion(6, ok, detail)
    assert dominates
    assert improves
    assert deterministic
    assert elapsed < 120.0


def test_criterion_7_chebyshev_psi():
    start = time.perf_counter()
    value = chebyshev_psi(1_000_000.0)
    elapsed = time.perf_counter() - start

    deviation = abs(value / 1e6 - 1.0)
    ok = deviation < 0.01 and elapsed < 5.0
    detail = f"psi(1e6)/1e6 = {value / 1e6:.6f} (|dev| {deviation:.2e}), {elapsed:.2f}s"
    record_criterion(7, ok, detail)
    assert deviation < 0.01
    assert elapsed < 5.0


def test_criterion_8_afe_assembly():
    start = time.perf_counter()
    params = AfeParams(1e-3, 1e-3, 50.0, truncation_length=2000)
    direct = zeta(0.5 + 1e-3 + 50.0j) * zeta(0.5 + 1e-3 - 50.0j)
    assembled = afe_pair(params)
    elapsed = time.perf_counter() - start

    rel = abs(assembled - direct) / abs(direct)
    ok = rel < 1e-3 and elapsed < 30.0
    detail = f"assembly vs direct product: relative error {rel:.2e}, {elapsed:.2f}s"
    record_criterion(8, ok, detail)
    assert rel < 1e-3
    assert elapsed < 30.0


def test_criterion_9_registry_fidelity():
    expected_sources = {
        "baseline": "P(x)=x, Q(x)=1-x, R=1.3, theta=0.5",
        "two-piece-kappa": (
            "Q(x)=1-0.642x-1.227(x^2/2-x^3/3)-5.178(x^3/3-x^4/2+x^5/5), "
            "P1(x)=x-0.617x(1-x)-0.125x^2(1-x)-0.148x^3(1-x), P2(x)=x, "
            "P(x)=1.55x-1.564x^2+0.177x^3, R=1.3"
        ),
        "two-piece-kappa-star": (
            "Q(x)=1-1.032x, P1(x)=x-0.525x(1-x)-0.183x^2(1-x)-0.085x^3(1-x), "
            "P2(x)=x, P(x)=0.838x-0.938x^2-0.084x^3, R=1.116"
        ),
    }
    tuples = {t.name: t for t in published_tuples()}

    sources_match = all(
        tuples[name].source == text for name, text in expected_sources.items()
    )
    flags = (
        not tuples["baseline"].not_reproducible_here
        and tuples["two-piece-kappa"].not_reproducible_here
        and tuples["two-piece-kappa-star"].not_reproducible_here
    )
    claims = (
        tuples["two-piece-kappa"].claimed_bound == 0.4172
        and tuples["two-piece-kappa-star"].claimed_bound == 0.4074
    )
    ok = sources_match and flags and claims
    detail = (
        f"verbatim sources match: {sources_match}, reproducibility flags set: "
        f"{flags}, claimed bounds 0.4172/0.4074 present: {claims}"
    )
    record_criterion(9, ok, detail)
    assert sources_match
    assert flags
    assert claims
