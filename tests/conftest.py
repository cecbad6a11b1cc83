"""Shared fixtures, the finite-difference weights and trial-division
arithmetic several oracles use, and the acceptance-criteria summary hook."""

import numpy as np
import pytest

_CRITERIA: dict[int, tuple[bool, str]] = {}


def fornberg_weights(grid: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at 0."""
    n = grid.size
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = grid[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = grid[i]
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            if j == i - 1:
                # row i must read row i-1 before that row is rescaled
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    """mu(n) from the trial-division factorization of n."""
    f = factorize(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


def record_criterion(number: int, passed: bool, detail: str):
    """Collect one acceptance-criterion verdict for the terminal summary."""
    _CRITERIA[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        passed, detail = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
