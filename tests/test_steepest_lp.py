"""The maximin ascent LP, max s s.t. G a >= s, |a|_inf <= 1, against HiGHS.

solver._steepest_lp is a dense tableau simplex; scipy's HiGHS solves the
same LP as the reference.  The degenerate cases put Bland's rule through
ties at the start vertex: one row, one column, a zero row, duplicate rows
and a row next to its negative (s* = 0).
"""
import numpy as np
import pytest

from equisum import solver
from equisum.solver import _steepest_lp

DEGENERATE = {
    "one_row": [[2.0, -1.0, 0.5]],
    "one_column": [[3.0], [-1.0], [0.5]],
    "zero_row": [[1.0, 2.0], [0.0, 0.0], [-1.0, 0.5]],
    "duplicate_rows": [[1.0, -2.0, 0.5], [1.0, -2.0, 0.5], [0.0, 1.0, 1.0]],
    "row_and_its_negative": [[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5], [3.0, 0.0, 1.0]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
}


def _highs(G):
    optimize = pytest.importorskip("scipy.optimize")
    mrows, n = G.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = optimize.linprog(c, A_ub=np.hstack([-G, np.ones((mrows, 1))]), b_ub=np.zeros(mrows),
                           bounds=[(-1.0, 1.0)] * n + [(None, None)], method="highs")
    assert res.success
    return -res.fun


def _random_g(seed, count):
    """n <= 6, at most n + 1 rows, scales 1e-3 to 1e3, some zero columns."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        G = rng.normal(size=(int(rng.integers(1, n + 2)), n)) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.25:
            G[:, rng.integers(n)] = 0.0
        yield G


def _check_against_highs(G):
    s, a = _steepest_lp(G)
    want = _highs(G)
    g = np.abs(G).max()
    # HiGHS reports s* = 0 as +-1e-16 * max |G|
    assert abs(s - want) <= 1e-10 * max(abs(want), 1e-3 * g)
    assert s >= 0.0
    assert np.abs(a).max() <= 1.0 + 1e-12
    assert (G @ a).min() >= s - 1e-12 * max(g, 1.0)
    return s


def test_random_g_matches_highs():
    for G in _random_g(2024, 300):
        _check_against_highs(G)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_g_matches_highs(name):
    G = np.array(DEGENERATE[name])
    s = _check_against_highs(G)
    if name in ("row_and_its_negative", "zero"):
        assert s == 0.0


def test_pivot_cap_returns_zero(monkeypatch):
    """A cap the simplex cannot finish within ends it with (0, 0)."""
    G = np.array([[1.0, 2.0], [3.0, -1.0]])
    s, a = _steepest_lp(G)
    assert s > 0.0
    monkeypatch.setattr(solver, "LP_PIVOTS", 1)
    s, a = _steepest_lp(G)
    assert s == 0.0 and a.tolist() == [0.0, 0.0]
