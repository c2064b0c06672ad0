import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import equisum.oracle
from equisum.evaluator import Problem, profile, sum_translates
from equisum.kernels import Kernel, log_sine, parabola, riesz, tent, weighted
from equisum.oracle import (
    _ZOOM,
    _ZOOM_LEVELS,
    _arc_sups,
    check_majorization,
    check_mmatrix,
    check_sandwich,
    convergence_probe,
    grid_minimax,
    grid_profile,
    grid_sup,
    interval_gap_minimax,
)
from equisum.torus import TWO_PI, Permutation, ValidationError, locate

PI = math.pi
SQRT2 = math.sqrt(2.0)

EX_KERNELS = (tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1))
EX_P = Problem(EX_KERNELS)
E_POINT = (PI, PI / 2, 3 * PI / 2)
E_SIGMA = Permutation((2, 1, 3))
E_VALUE = PI + 0.15 * PI**2

# sup of F over the whole circle at the cell-boundary configuration of the
# running example: y = (pi + (3-2*sqrt2)*eps*pi^2, (2*sqrt2-2)*pi, 0), eps=0.1
STEP2_POINT = (PI + (3 - 2 * SQRT2) * 0.1 * PI**2, (2 * SQRT2 - 2) * PI, 0.0)
STEP2_SUP = PI + 0.1 * PI**2 * (6 * SQRT2 - 7)

LOGSINE_3 = Problem((log_sine(), log_sine(), log_sine()))
EQ_2 = (2 * PI / 3, 4 * PI / 3)


def test_grid_sup_matches_equioscillation_value():
    v = grid_sup(EX_P, E_POINT, 4096)
    assert math.isclose(v, E_VALUE, abs_tol=1e-12)


def test_grid_sup_boundary_configuration_closed_form():
    # the sup sits off the 4096-point circle grid here; the zoom grids on
    # the arcs must find it
    raw = float(np.max(sum_translates(EX_P, STEP2_POINT, np.arange(4096) * (TWO_PI / 4096))))
    v = grid_sup(EX_P, STEP2_POINT, 4096)
    assert raw <= v
    assert math.isclose(v, STEP2_SUP, abs_tol=1e-9)


def test_grid_sup_equidistant_log_sine():
    # n+1 unit log-sine kernels at equidistant nodes: sup F = -n log 2
    for n in (2, 3, 4):
        p = Problem(tuple(log_sine() for _ in range(n + 1)))
        y = [2 * PI * k / (n + 1) for k in range(1, n + 1)]
        v = grid_sup(p, y, 8192)
        assert math.isclose(v, -n * math.log(2.0), abs_tol=1e-9)


@pytest.mark.parametrize("p, y, sigma, resolution", [
    (EX_P, E_POINT, None, 4096),
    (EX_P, (2.3, 1.1, 4.9), None, 4096),
    (LOGSINE_3, EQ_2, None, 1000),
    (Problem((log_sine(), riesz(2.0), weighted(parabola(), 0.3), tent())),
     (4.1, 0.8, 2.2), None, 777),
    # a node pair 1e-14 apart makes a degenerate arc; so does a node on 0
    (EX_P, (1.0, 1.0 + 1e-14, 4.0), (1, 2, 3), 4096),
    (EX_P, STEP2_POINT, (3, 2, 1), 4096),
], ids=["example", "generic", "log_sine", "mixed", "close_pair", "node_on_anchor"])
def test_grid_sup_is_the_largest_grid_profile_maximum(p, y, sigma, resolution):
    # grid_sup shares its resolution across the n+1 arcs of the sorted nodes
    sigma = sigma or locate(y)
    _, _, m = grid_profile(p, y, sigma, resolution // (p.n + 1))
    assert grid_sup(p, y, resolution) == max(m)


def test_grid_sup_resolution_contract():
    with pytest.raises(ValidationError):
        grid_sup(EX_P, E_POINT, 30)  # below 10 * (n + 1)


def test_grid_profile_traversal_order():
    labels, z, m = grid_profile(EX_P, E_POINT, E_SIGMA)
    assert labels == (0, 2, 1, 3)
    assert np.allclose(m, E_VALUE, atol=1e-9)
    assert np.allclose(z, [0.0, PI, PI, 2 * PI], atol=1e-6)


def test_grid_profile_log_sine_midpoints():
    labels, z, m = grid_profile(LOGSINE_3, EQ_2, (1, 2))
    assert labels == (0, 1, 2)
    assert np.allclose(m, -2 * math.log(2.0), atol=1e-9)
    assert np.allclose(z, [PI / 3, PI, 5 * PI / 3], atol=1e-6)


def test_grid_profile_rejects_incompatible_sigma():
    with pytest.raises(ValidationError):
        grid_profile(EX_P, E_POINT, (1, 2, 3))  # e lies in the (2,1,3) cell


def test_grid_profile_agrees_with_evaluator():
    """Independent arc maxima agree with the analytic profile on a
    generic interior configuration."""
    y = (2.3, 1.1, 4.9)
    prof = profile(EX_P, y, (2, 1, 3))
    _, _, m = grid_profile(EX_P, y, (2, 1, 3), resolution=2048)
    assert np.allclose(m, prof.m_trav, atol=1e-8)


def test_grid_minimax_log_sine_pair():
    gm = grid_minimax(LOGSINE_3, (1, 2), node_resolution=40)
    assert math.isclose(gm.value, -2 * math.log(2.0), abs_tol=5e-7)
    assert np.allclose(gm.nodes.values, EQ_2, atol=1e-5)
    assert gm.value <= gm.coarse_value + 1e-12
    assert gm.tolerance <= 1e-3


def test_grid_minimax_single_node():
    p = Problem((log_sine(), log_sine()))
    gm = grid_minimax(p, (1,), node_resolution=24)
    assert math.isclose(gm.value, -math.log(2.0), abs_tol=1e-9)
    assert math.isclose(gm.nodes.values[0], PI, abs_tol=1e-6)
    d = gm.to_dict()
    assert set(d) == {"value", "nodes", "coarse_value", "coarse_nodes",
                      "tolerance", "node_resolution"}


@pytest.mark.xfail(strict=True, reason=(
    "grid_minimax's tolerance understates its error on a kinked cell: at "
    "node_resolution 40 the search stops at pi + 0.15 pi^2 with tolerance 1e-4, "
    "and at 60 it finds sup F 1.45e-2 lower at an interior point of the cell"))
def test_grid_minimax_tolerance_bounds_the_example_cell():
    """value - tolerance is a claimed lower bound for the cell's minimax, so
    no finer search may report a value below it."""
    a = grid_minimax(EX_P, E_SIGMA, node_resolution=40)
    b = grid_minimax(EX_P, E_SIGMA, node_resolution=60)
    assert a.value - a.tolerance <= b.value + 1e-12


def test_grid_minimax_validates():
    with pytest.raises(ValidationError):
        grid_minimax(Problem(tuple(tent() for _ in range(5))), (1, 2, 3, 4))
    with pytest.raises(ValidationError):
        grid_minimax(LOGSINE_3, (1, 2), node_resolution=2)


class _NanKernel(Kernel):
    """A kernel with no value anywhere: every sup of the sweep is NaN."""

    family = "nan"
    value, deriv = Kernel.value, Kernel.deriv  # per-class hooks look here, as on every kernel

    def _value(self, tt):
        return np.full(np.shape(tt), np.nan)


def test_grid_minimax_refuses_a_sweep_with_no_finite_sup():
    p = Problem((_NanKernel(), _NanKernel(), _NanKernel()))
    with pytest.raises(ValidationError, match="sweep found no interior configuration"):
        grid_minimax(p, (1, 2), node_resolution=8)


def test_sandwich_refuses_when_no_separated_sample_exists():
    """2000 free nodes cannot all sit 1e-3 apart on a circle of length 2*pi,
    so no interior sample is drawn."""
    p = Problem(tuple(log_sine() for _ in range(2001)))
    with pytest.raises(ValidationError, match="could not draw a well-separated interior sample"):
        check_sandwich(p, None, m_estimate=0.0, samples=1)


def test_sandwich_clean_on_smooth_problem():
    rep = check_sandwich(LOGSINE_3, (1, 2), m_estimate=-2 * math.log(2.0),
                         samples=50)
    assert rep.ok
    assert rep.violations == []
    assert rep.samples == 50


def test_sandwich_rejects_negative_samples():
    """samples=-3 used to report "samples": -3 after testing no random
    point; 0 still tests the equidistant point alone."""
    with pytest.raises(ValidationError, match="samples must be at least 0, got -3"):
        check_sandwich(LOGSINE_3, (1, 2), m_estimate=0.0, samples=-3)
    rep = check_sandwich(LOGSINE_3, (1, 2), m_estimate=-2 * math.log(2.0), samples=0)
    assert rep.ok and rep.samples == 0


def test_sandwich_self_estimate_widens_tol():
    # without an m_estimate the check grounds M on grid_minimax; its grid
    # tolerance must absorb the estimate error, or the true optimum itself
    # gets flagged (the equidistant point sits exactly at M here)
    rep = check_sandwich(LOGSINE_3, (1, 2), samples=20)
    assert rep.ok
    assert rep.violations == []
    assert rep.tol >= 1e-4


def test_sandwich_witness_at_example_point():
    """The running example's equioscillation point has its minimal arc max
    strictly above the cell minimax value: a sandwich violation."""
    rep = check_sandwich(EX_P, E_SIGMA, m_estimate=STEP2_SUP, samples=10,
                         include=[E_POINT])
    assert not rep.ok
    kinds = {v["kind"] for v in rep.violations}
    assert kinds == {"min_arc_max_above_M"}
    witness = [v for v in rep.violations if v["point"] == "include[0]"]
    assert witness
    assert math.isclose(witness[0]["margin"], E_VALUE - STEP2_SUP, abs_tol=1e-6)


def test_majorization_classification():
    assert check_majorization([1.0, 2.0], [0.5, 1.5]) == "strict"
    assert check_majorization([1.0, 1.0], [1.0, 0.5]) == "weak"
    assert check_majorization([1.0, 0.0], [0.0, 1.0]) == "none"
    prof = profile(EX_P, E_POINT, E_SIGMA)
    assert check_majorization(prof, prof) == "weak"
    with pytest.raises(ValidationError):
        check_majorization([1.0, 2.0], [1.0, 2.0, 3.0])


def test_mmatrix_hand_cases():
    ok = check_mmatrix([[-2.0, 1.0], [1.0, -2.0]])
    assert ok and ok.diag_ok and ok.offdiag_ok and ok.colsum_ok
    assert ok.failures == []
    bad = check_mmatrix([[-1.0, -1.0], [1.0, -1.0]])
    assert not bad
    assert not bad.offdiag_ok
    assert any("entry" in f for f in bad.failures)
    with pytest.raises(ValidationError):
        check_mmatrix([[1.0, 2.0, 3.0]])


def test_mmatrix_colsum_failure():
    # diagonally sound but a column sums to zero
    rep = check_mmatrix([[-1.0, 1.0], [1.0, -1.0]])
    assert rep.diag_ok and rep.offdiag_ok and not rep.colsum_ok
    assert any("column" in f for f in rep.failures)


def _mmatrix_failures_by_entry(J):
    """The failures of check_mmatrix, entry by entry in row-major order, then
    column by column."""
    A = -np.asarray(J, dtype=float)
    failures = []
    for i in range(len(A)):
        for j in range(len(A)):
            v = float(A[i, j])
            if i == j and not v > 0.0:
                failures.append({"entry": [i, j], "value": v, "expected": "> 0"})
            if i != j and not v < 0.0:
                failures.append({"entry": [i, j], "value": v, "expected": "< 0"})
    for j, s in enumerate(A.sum(axis=0)):
        if not s > 0.0:
            failures.append({"column": j, "sum": float(s), "expected": "> 0"})
    return failures


@pytest.mark.parametrize("J", [
    [[-2.0, 1.0], [1.0, -2.0]],
    [[-1.0, -1.0], [1.0, -1.0]],
    [[1.0, 0.0, 2.0], [-3.0, math.nan, 0.5], [0.0, 1.0, -1.0]],
    [[math.nan]],
    np.zeros((0, 0)),
], ids=["m_matrix", "offdiag", "mixed_nan", "nan_1x1", "empty"])
def test_mmatrix_failures_and_flags_agree(J):
    """Each flag is the absence of its kind of failure, and the failures come
    entry by entry, then column by column."""
    rep = check_mmatrix(J)
    failures = _mmatrix_failures_by_entry(J)
    # json.dumps compares NaN values, and refuses numpy integers
    assert json.dumps(rep.to_dict()["failures"]) == json.dumps(failures)
    entries = [f["entry"] for f in failures if "entry" in f]
    assert rep.diag_ok == all(i != j for i, j in entries)
    assert rep.offdiag_ok == all(i == j for i, j in entries)
    assert rep.colsum_ok == all("entry" in f for f in failures)
    assert rep.ok == (failures == []) == (rep.diag_ok and rep.offdiag_ok and rep.colsum_ok)


def test_convergence_probe_decreasing_and_bounded():
    tab = convergence_probe(EX_P, E_POINT)
    assert tab.kind == "sqrt_cusp"
    assert tab.decreasing
    devs = tab.deviations()
    assert len(devs) == 4
    n = len(E_POINT)
    for row in tab.rows:
        assert row.deviation <= (n + 1) / row.level + 1e-7
    assert devs[-1] < 1e-9
    d = tab.to_dict()
    assert d["decreasing"] and len(d["rows"]) == 4
    assert tab.bound_ok and d["bound_ok"]


def test_convergence_probe_rejects_empty_levels():
    # no level gave rows [] and decreasing true: a check that checks nothing
    with pytest.raises(ValidationError, match="at least one level"):
        convergence_probe(EX_P, E_POINT, levels=())


def test_interval_gap_chebyshev():
    norm, (x1, x2) = interval_gap_minimax(-1.0, 1.0, (1, 1))
    assert math.isclose(norm, 0.5, abs_tol=1e-9)
    assert math.isclose(x1, -1 / SQRT2, abs_tol=1e-6)
    assert math.isclose(x2, 1 / SQRT2, abs_tol=1e-6)


def test_interval_gap_translation_invariance():
    norm, (x1, x2) = interval_gap_minimax(0.0, 2.0, (1, 1))
    assert math.isclose(norm, 0.5, abs_tol=1e-9)
    assert math.isclose(x1, 1 - 1 / SQRT2, abs_tol=1e-6)
    assert math.isclose(x2, 1 + 1 / SQRT2, abs_tol=1e-6)


def test_interval_gap_unequal_exponents():
    norm, (x1, x2) = interval_gap_minimax(-1.0, 1.0, (1, 2))
    xs = np.linspace(-1.0, 1.0, 400001)
    dense = float(np.max(np.abs(xs - x1) * np.abs(xs - x2) ** 2))
    assert math.isclose(dense, norm, rel_tol=1e-9)
    # nearby node pairs never do better
    for d1, d2 in ((0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01),
                   (0.007, -0.007)):
        y1, y2 = x1 + d1, x2 + d2
        sup = float(np.max(np.abs(xs - y1) * np.abs(xs - y2) ** 2))
        assert sup >= norm - 1e-6


def test_interval_gap_validates():
    with pytest.raises(ValidationError):
        interval_gap_minimax(-1.0, 1.0, (1, 1, 1))
    with pytest.raises(ValidationError):
        interval_gap_minimax(1.0, -1.0, (1, 1))
    with pytest.raises(ValidationError):
        interval_gap_minimax(-1.0, 1.0, (1, -1))


@pytest.mark.parametrize("p, sigma, node_resolution", [
    (Problem((weighted(log_sine(), 1.3), tent())), (1,), 24),
    (LOGSINE_3, (1, 2), 20),
    (Problem((tent(), weighted(parabola(), 0.2), log_sine())), (2, 1), 16),
], ids=["n1", "log_sine_n2", "kinked_n2"])
def test_grid_minimax_value_is_grid_sup_at_its_nodes(p, sigma, node_resolution):
    # the search scores candidates in batches; its answer must be exactly
    # what the public grid_sup reports for the returned nodes
    gm = grid_minimax(p, sigma, node_resolution=node_resolution)
    assert gm.value == grid_sup(p, gm.nodes, 4096)


@pytest.mark.parametrize("p", [EX_P, LOGSINE_3], ids=["example", "log_sine"])
def test_sandwich_margins_match_single_profiles(p):
    """check_sandwich profiles all its points in one batch.  At M = 0 every
    margin is an arc maximum itself, so each must equal, bit for bit, the
    one from grid_profile on that point alone."""
    sig = Permutation.identity(p.n)
    rep = check_sandwich(p, sig, m_estimate=0.0, samples=30, tol=0.0)
    assert len(rep.violations) == 31  # every tested point: equidistant + samples
    for v in rep.violations:
        _, _, m = grid_profile(p, v["nodes"], sig)
        if v["kind"] == "min_arc_max_above_M":
            assert v["margin"] == float(np.min(m))
        else:
            assert v["margin"] == -float(np.max(m))


def _zoom_reference(p, positions, lo, hi, resolution):
    """The arc grid and zoom levels of _arc_sups on one arc, a point at a time."""
    def f(t):
        acc = np.zeros(1)
        for j, k in enumerate(p.kernels):
            acc = acc + k.value(np.array([t]) - positions[j])
        return float(acc[0])

    def grid(a, b, size):  # np.linspace's points: a + k * step, ending on b
        step = (b - a) / (size - 1)
        return [a + k * step for k in range(size - 1)] + [b]

    lo, hi = float(lo), float(hi)
    if hi - lo <= 1e-13:
        return lo, f(lo)
    a, b, size = lo, hi, resolution
    best = None
    for _ in range(_ZOOM_LEVELS + 1):
        ts = grid(a, b, size)
        vals = [f(x) for x in ts]
        i = max(range(size), key=vals.__getitem__)  # the first largest
        if best is None or vals[i] > best[1]:
            best = (ts[i], vals[i])
        a, b, size = ts[max(i - 1, 0)], ts[min(i + 1, size - 1)], _ZOOM
        if not math.isfinite(best[1]) or b - a < 1e-14:
            break
    return best


def _random_intervals():
    """60 intervals in arcs of random node systems of a mixed problem."""
    rng = np.random.default_rng(20261018)
    p = Problem((log_sine(), weighted(tent(), 0.7), riesz(1.5), weighted(parabola(), 0.2)))
    positions = np.concatenate((np.zeros((60, 1)),
                                np.sort(rng.uniform(0.0, TWO_PI, (60, 3)), axis=1)), axis=1)
    cuts = np.concatenate((positions, np.full((60, 1), TWO_PI)), axis=1)
    arc = rng.integers(0, 4, 60)
    left, right = cuts[np.arange(60), arc], cuts[np.arange(60), arc + 1]
    lo = left + rng.uniform(0.0, 0.5, 60) * (right - left)
    hi = lo + rng.uniform(0.0, 1.0, 60) * (right - lo)
    hi[:10] = lo[:10] + 5e-15     # narrower than the stopping width
    lo[10:20] = left[10:20]       # starting on a node ...
    hi[20:30] = right[20:30]      # ... or ending on one
    lo[30:33], hi[30:33] = 0.0, cuts[30:33, 1]  # log-sine is -inf at node 0
    return p, positions, lo, hi


def test_lockstep_zoom_matches_scalar_reference():
    p, positions, lo, hi = _random_intervals()
    for resolution in (2, 64):  # from the whole arc, and from a fine grid
        x, fx = _arc_sups(p, positions, lo, hi, resolution)
        for b in range(60):
            want = _zoom_reference(p, positions[b], lo[b], hi[b], resolution)
            assert (float(x[b]).hex(), float(fx[b]).hex()) == (want[0].hex(), want[1].hex())


def _count_value_calls(monkeypatch, p):
    """A list that grows by one at every Kernel.value call of p's kernel
    classes; p's kernels must not call each other."""
    calls = []
    for cls in {type(k) for k in p.kernels}:
        def counted(self, t, _value=cls.value):
            calls.append(None)
            return _value(self, t)
        monkeypatch.setattr(cls, "value", counted)
    return calls


def test_arc_sups_calls_each_kernel_once_per_level(monkeypatch):
    # the arcs of a batch step together: one _F call per level, plus one when
    # the batch has collapsed arcs, so a batch costs what its slowest arc
    # costs alone, whatever its size
    _, positions, lo, hi = _random_intervals()
    p = Problem((log_sine(), tent(), riesz(1.5), parabola()))
    calls = _count_value_calls(monkeypatch, p)
    alone = []
    for b in range(60):
        calls.clear()
        _arc_sups(p, positions[b:b + 1], lo[b:b + 1], hi[b:b + 1], 64)
        alone.append(len(calls))
    flat = (hi - lo <= 1e-13).tolist()  # arcs 0-9: the collapsed-arc call only
    assert all(c == 4 for c, f in zip(alone, flat) if f)
    # the arc grid, then each zoom level
    assert all(c % 4 == 0 and 4 <= c <= 4 * (_ZOOM_LEVELS + 1) for c in alone)
    for start, stop in ((0, 2), (0, 7), (0, 60), (10, 60)):
        calls.clear()
        _arc_sups(p, positions[start:stop], lo[start:stop], hi[start:stop], 64)
        levels = max((c for c, f in zip(alone[start:stop], flat[start:stop]) if not f), default=0)
        assert len(calls) == 4 * any(flat[start:stop]) + levels


def test_zoom_level_cap_ends_a_plateau(monkeypatch):
    # tents at 0 and pi sum to pi everywhere: every grid point ties, so each
    # level brackets the first point and the width test ends the loop, or
    # the level cap does first
    p = Problem((tent(), tent()))
    positions, lo, hi = np.array([[0.0, PI]]), np.array([0.0]), np.array([PI])
    calls = _count_value_calls(monkeypatch, p)
    t, v = _arc_sups(p, positions, lo, hi, 2)
    assert 0.0 <= t[0] <= PI and math.isclose(v[0], PI, rel_tol=1e-15)
    # one call per level, plus one when the batch has collapsed arcs (none here)
    assert len(calls) <= 2 * (_ZOOM_LEVELS + 1)
    monkeypatch.setattr(equisum.oracle, "_ZOOM_LEVELS", 3)
    calls.clear()
    t, v = _arc_sups(p, positions, lo, hi, 2)
    assert len(calls) == 2 * (1 + 3)  # the arc grid, 3 levels
    assert 0.0 <= t[0] <= PI and math.isclose(v[0], PI, rel_tol=1e-15)


def test_arc_resolutions_below_two_are_rejected():
    # one point per arc is the arc's left end: on the Example the arcs that
    # peak mid-arc would read 4.12855 instead of pi + 0.15 pi^2
    for bad in (1, 0):
        with pytest.raises(ValidationError):
            grid_profile(EX_P, E_POINT, E_SIGMA, resolution=bad)
    _, _, m = grid_profile(EX_P, E_POINT, E_SIGMA, resolution=2)
    assert np.allclose(m, E_VALUE, atol=1e-9)


def test_oracle_imports_no_solver_code():
    """The oracles stay independent: from the rest of the package they take
    only Problem, torus geometry and the approximant factory."""
    allowed = {"equisum.evaluator": {"Problem"}, "equisum.kernels": {"approximant"},
               "equisum.torus": None}
    tree = ast.parse(Path(equisum.oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "equisum" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = ".".join(filter(None, ["equisum", node.module]))
            elif (node.module or "").split(".")[0] == "equisum":
                module = node.module
            else:
                continue
            assert module in allowed, module
            names = {a.name for a in node.names}
            assert allowed[module] is None or names <= allowed[module], (module, names)
