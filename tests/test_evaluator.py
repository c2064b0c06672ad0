import math

import numpy as np
import pytest

from equisum import evaluator
from equisum.evaluator import (
    TOL_Z,
    _GLUE_CLEAR,
    _TREE_POINTS,
    JacobianUnavailableError,
    Problem,
    _arc_maxima,
    _slope_sum,
    _slopes,
    _tree_depth,
    arc_max,
    delta,
    jacobian_delta,
    jacobian_m,
    profile,
    sum_translates,
    sum_translates_full,
)
from equisum.kernels import (
    CapabilityError,
    approximant,
    kernel_sum,
    log_sine,
    parabola,
    riesz,
    table,
    tent,
    weighted,
)
from equisum.torus import ANGLE_TOL, TWO_PI, NodeSystem, Permutation, ValidationError, arcs

PI = math.pi
SQRT2 = math.sqrt(2.0)

# the running tent-plus-parabola configuration used across the test suite
EX_KERNELS = (tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1))
EX_P = Problem(EX_KERNELS)
E_POINT = (PI, PI / 2, 3 * PI / 2)
E_SIGMA = Permutation((2, 1, 3))
E_VALUE = PI + 0.15 * PI**2


def test_problem_validates():
    with pytest.raises(ValidationError):
        Problem((tent(),))  # a single kernel leaves no free node
    assert EX_P.n == 3


def test_sum_translates_at_known_points():
    # F(e, 0) = tent(0) + tent(-pi) + 0.1 Q(-pi/2) + 0.1 Q(-3pi/2)
    v = sum_translates(EX_P, E_POINT, 0.0)
    assert math.isclose(v, E_VALUE, abs_tol=1e-12)
    # vectorized call agrees with scalar calls
    ts = np.linspace(0, TWO_PI, 17, endpoint=False)
    vec = sum_translates(EX_P, E_POINT, ts)
    for i, t in enumerate(ts):
        assert math.isclose(vec[i], sum_translates(EX_P, E_POINT, float(t)))


def test_sum_translates_minus_inf_at_singular_node():
    p = Problem((log_sine(), log_sine()))
    assert sum_translates(p, [PI], 0.0) == -math.inf
    assert sum_translates(p, [PI], PI) == -math.inf


def test_sum_translates_full_no_anchor():
    p = Problem((tent(), tent()))
    # explicit positions need not include 0
    v = sum_translates_full(p, [1.0, 2.0], 1.5)
    assert math.isclose(v, tent().value(0.5) + tent().value(-0.5 + TWO_PI))


def test_profile_equioscillation_point():
    prof = profile(EX_P, E_POINT, E_SIGMA)
    assert np.allclose(prof.m, E_VALUE, atol=1e-12)
    assert np.allclose(prof.z, [0.0, PI, PI, TWO_PI], atol=1e-9)
    assert prof.labels == (0, 2, 1, 3)
    assert all(prof.z_on_boundary)
    assert math.isclose(prof.m_bar, prof.m_under, abs_tol=1e-12)
    d = delta(EX_P, E_POINT, E_SIGMA, prof)
    assert np.allclose(d, 0.0, atol=1e-12)


def test_profile_step_two_boundary_cell():
    eps = 0.1
    x1 = PI + (3 - 2 * SQRT2) * eps * PI**2
    x2 = (2 * SQRT2 - 2) * PI
    x = (x1, x2, 0.0)
    sig = Permutation((3, 2, 1))
    prof = profile(EX_P, x, sig)
    m0 = PI + eps * PI**2 * (14 * SQRT2 - 19)
    m_rest = PI + eps * PI**2 * (6 * SQRT2 - 7)
    assert math.isclose(prof.m[0], m0, abs_tol=1e-9)
    for j in (1, 2, 3):
        assert math.isclose(prof.m[j], m_rest, abs_tol=1e-9)
    assert math.isclose(prof.z[1], PI + x2 / 2, abs_tol=1e-9)
    assert math.isclose(prof.z[2], PI, abs_tol=1e-9)
    assert math.isclose(prof.z[3], x2 / 2, abs_tol=1e-9)
    # arc I_0 is degenerate (x_3 sits on the anchor)
    assert prof.partition.by_index(0).degenerate


def test_profile_log_sine_pair():
    p = Problem((log_sine(), log_sine()))
    prof = profile(p, [PI], Permutation((1,)))
    assert np.allclose(prof.m, -math.log(2.0), atol=1e-12)
    assert np.allclose(prof.z, [PI / 2, 3 * PI / 2], atol=1e-9)
    assert not any(prof.z_on_boundary)
    assert all(prof.unique)


def test_arc_max_matches_profile():
    prof = profile(EX_P, E_POINT, E_SIGMA)
    for j in range(4):
        am = arc_max(EX_P, E_POINT, E_SIGMA, j)
        assert math.isclose(am.m, prof.m[j], abs_tol=1e-12)
        assert math.isclose(am.z, prof.z[j], abs_tol=1e-9)


def test_profile_rotation_covariance():
    """Rotating all kernels' translates rotates maximizers, keeps maxima."""
    p = Problem((log_sine(), weighted(log_sine(), 2.0), log_sine()))
    y = (2.2, 4.4)
    shift = 0.7
    prof = profile(p, y, Permutation((1, 2)))
    # shift every node including the anchor, then evaluate with full positions
    pos = np.array([0.0, 2.2, 4.4]) + shift
    ts = np.linspace(0, TWO_PI, 2048, endpoint=False)
    f0 = sum_translates(p, y, ts)
    f1 = sum_translates_full(p, pos, ts + shift)
    assert np.allclose(f0, f1, atol=1e-12)
    assert math.isclose(float(np.max(f0)), prof.m_bar, abs_tol=1e-6)


def test_delta_zero_iff_equioscillation():
    d = delta(EX_P, E_POINT, E_SIGMA)
    assert np.allclose(d, 0.0, atol=1e-12)
    d2 = delta(EX_P, (PI, PI / 2 + 0.3, 3 * PI / 2), E_SIGMA)
    assert float(np.max(np.abs(d2))) > 1e-3


def test_delta_plus_inf_when_both_arcs_dead():
    # both neighbouring arcs degenerate with -inf maxima never happens for
    # finite kernels; emulate with singular kernels and a collapsed pair
    p = Problem((log_sine(), log_sine(), log_sine()))
    prof = profile(p, (1e-14, 3.0), Permutation((1, 2)))
    assert math.isfinite(prof.m_bar)


def test_jacobian_m_matches_fd_smooth():
    rng = np.random.default_rng(7)
    p = Problem((log_sine(), riesz(2.0), parabola()))
    h = 1e-6
    checked = 0
    tries = 0
    while checked < 10 and tries < 60:
        tries += 1
        y = np.sort(rng.uniform(0.3, TWO_PI - 0.3, size=2))
        if y[1] - y[0] < 0.3:
            continue
        sig = Permutation((1, 2))
        prof = profile(p, y, sig)
        if any(prof.z_on_boundary):
            continue
        J = jacobian_m(p, y, sig, prof)
        fd = np.zeros_like(J)
        for r in range(2):
            for sgn, w in ((1, 1.0), (-1, -1.0)):
                yy = y.copy()
                yy[r] += sgn * h
                fd[:, r] += w * profile(p, yy, sig).m / (2 * h)
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-7)
        checked += 1
    assert checked == 10


def test_jacobian_m_needs_c1():
    prof = profile(EX_P, E_POINT, E_SIGMA)
    with pytest.raises(CapabilityError):
        jacobian_m(EX_P, E_POINT, E_SIGMA, prof)
    # relaxed mode substitutes midpoint slopes at kinks
    J = jacobian_m(EX_P, E_POINT, E_SIGMA, prof, relaxed=True)
    assert J.shape == (4, 3)
    assert np.all(np.isfinite(J))


def test_jacobian_m_boundary_guard():
    p = Problem((parabola(), parabola()))
    sig = Permutation((1,))
    prof = profile(p, [0.8], sig)
    if any(prof.z_on_boundary):
        with pytest.raises(JacobianUnavailableError):
            jacobian_m(p, [0.8], sig, prof)
    else:  # pragma: no cover - depends on the kernel pair chosen
        jacobian_m(p, [0.8], sig, prof)


def test_jacobian_delta_is_row_difference():
    p = Problem((log_sine(), riesz(2.0), parabola()))
    y = (2.0, 4.5)
    sig = Permutation((1, 2))
    prof = profile(p, y, sig)
    Jm = jacobian_m(p, y, sig, prof)
    Jd = jacobian_delta(p, y, sig, prof)
    # traversal order equals arc-index order for the identity ordering
    assert np.allclose(Jd, Jm[1:] - Jm[:-1])


def test_profile_requires_compatible_sigma():
    with pytest.raises(ValidationError):
        profile(EX_P, E_POINT, Permutation((1, 2, 3)))


# --- per-kernel reference: one deriv call per kernel, two bisections -------

def _ref_slope_sum(p, pos, ts, side):
    ts = np.asarray(ts, dtype=float)
    acc = np.zeros(ts.shape, dtype=float)
    for j, k in enumerate(p.kernels):
        acc = acc + np.asarray(k.deriv(ts - pos[j], side))
    return acc


def _ref_bisect_mask(p, pos, lo, hi, mask, side, want_positive, iters):
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        s = _ref_slope_sum(p, pos, mid, side)
        pred = (s > 0.0) if want_positive else (s >= 0.0)
        lo = np.where(mask & pred, mid, lo)
        hi = np.where(mask & ~pred, mid, hi)
    return 0.5 * (lo + hi)


def _ref_arc_maxima(p, pos, los, his, tol_z=TOL_Z):
    length = his - los
    degenerate = length <= ANGLE_TOL
    active = ~degenerate
    t_left = los.copy()
    t_right = his.copy()
    if np.any(active):
        dpa = _ref_slope_sum(p, pos, los, "right")
        dmb = _ref_slope_sum(p, pos, his, "left")
        span = float(np.max(length[active]))
        iters = max(8, int(math.ceil(math.log2(max(span / max(tol_z, 1e-300), 2.0)))) + 2)
        at_lo = active & (dpa <= 0.0)
        at_hi = active & (dmb > 0.0)
        mask = active & ~at_lo & ~at_hi
        tl = np.where(at_lo, los, np.where(at_hi, his, los))
        if np.any(mask):
            tl = np.where(mask, _ref_bisect_mask(p, pos, los, his, mask, "right", True, iters), tl)
        t_left = np.where(active, tl, t_left)
        at_hi_r = active & (dmb >= 0.0)
        at_lo_r = active & (dpa < 0.0)
        mask = active & ~at_hi_r & ~at_lo_r
        tr = np.where(at_hi_r, his, np.where(at_lo_r, los, his))
        if np.any(mask):
            tr = np.where(mask, _ref_bisect_mask(p, pos, los, his, mask, "left", False, iters), tr)
        t_right = np.where(active, tr, t_right)
    t_right = np.maximum(t_right, t_left)
    z = np.where(degenerate, los, 0.5 * (t_left + t_right))
    m = np.zeros_like(z)
    for j, k in enumerate(p.kernels):
        m = m + np.asarray(k.value(z - pos[j]))
    b_tol = max(4.0 * tol_z, 1e-12)
    on_boundary = degenerate | (z - los <= b_tol) | (his - z <= b_tol)
    unique = degenerate | ((t_right - t_left) <= max(8.0 * tol_z, 1e-10))
    return z, m, on_boundary, unique


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


C1_BASES = (log_sine(), riesz(1.5), riesz(3.0), parabola(),
            approximant(parabola(), 8, "bump"))
KINKED_BASES = (tent(), approximant(tent(), 8, "bump"), approximant(log_sine(), 8, "log_cusp"),
                approximant(parabola(), 8, "sqrt_cusp"),
                table([0.0, 1.0, 3.0, TWO_PI], [0.0, 1.0, 1.5, 0.0]))


def _random_case(rng, bases):
    n = int(rng.integers(1, 7))
    ks = []
    for _ in range(n + 1):
        k = bases[int(rng.integers(len(bases)))]
        ks.append(weighted(k, float(rng.uniform(0.2, 5.0))) if rng.random() < 0.6 else k)
    v = np.sort(rng.uniform(0.0, TWO_PI, n))
    if rng.random() < 0.5:
        # squeeze one gap, possibly the one next to the fixed node, to 1e-12..1e-10
        slots = np.concatenate(([0.0], v, [TWO_PI]))
        k = int(rng.integers(n + 1))
        gap = 10.0 ** rng.uniform(-12, -10)
        if k == n:
            slots[n] = TWO_PI - gap
        else:
            slots[k + 1] = slots[k] + gap
        v = np.sort(np.clip(slots[1:-1], 0.0, np.nextafter(TWO_PI, 0.0)))
    sig = Permutation(tuple(int(i) for i in rng.permutation(n) + 1))
    return Problem(tuple(ks)), sig.nodes(v), sig


@pytest.mark.parametrize("bases", [C1_BASES, KINKED_BASES], ids=["c1", "kinked"])
def test_profile_matches_per_kernel_reference(bases):
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        p, y, sig = _random_case(rng, bases)
        ns = NodeSystem(tuple(y))
        part = arcs(ns, sig)
        los = np.asarray([a.lo for a in part.arcs])
        his = np.asarray([a.hi for a in part.arcs])
        prof = profile(p, ns, sig)
        got = (prof.z_trav, prof.m_trav, prof.z_on_boundary_trav, prof.unique_trav)
        assert _bits(*got) == _bits(*_ref_arc_maxima(p, ns.full_positions(), los, his))


def test_slopes_match_per_kernel_deriv():
    """_slopes groups kernels by base; each row equals that kernel's own
    deriv bit for bit, for scalar, 1-d and 2-d points and both sides."""
    tab = table([0.0, 1.0, 3.0, TWO_PI], [0.0, 1.0, 1.5, 0.0])
    ks = (
        log_sine(), weighted(log_sine(), 2.5), weighted(log_sine(), 2.5),
        weighted(log_sine(), 0.3), weighted(weighted(log_sine(), 2.0), 0.7),
        riesz(1.5), riesz(3.0), weighted(riesz(1.5), 4.0),
        tent(), weighted(tent(), 0.5), parabola(), weighted(parabola(), 0.1),
        tab, weighted(tab, 3.0), kernel_sum(tent(), weighted(parabola(), 0.5)),
        approximant(tent(), 10, "bump"), approximant(tent(), 10, "log_cusp"),
        weighted(approximant(tent(), 10, "sqrt_cusp"), 2.0),
        approximant(tent(), 4, "sqrt_cusp"),
    )
    p = Problem(ks)
    # equal bases share one group, so there are fewer groups than kernels
    assert len(p.slope_plan) < len(ks)
    rng = np.random.default_rng(5)
    pos = np.concatenate(([0.0], rng.uniform(0.0, TWO_PI, len(ks) - 1)))
    pts = np.concatenate((rng.uniform(0.0, TWO_PI, 10), pos[:3], [PI, 1.0, TWO_PI]))
    for ts in (float(pts[0]), float(pos[2]), pts, pts.reshape(4, 4)):
        for side in ("left", "right"):
            S = _slopes(p, pos, ts, side)
            assert S.shape == (len(ks),) + np.shape(ts)
            for j, k in enumerate(ks):
                ref = np.asarray(k.deriv(ts - pos[j], side))
                assert S[j].tobytes() == ref.tobytes(), (j, k, side)
            total = _slope_sum(p, pos, ts, side)
            assert total.tobytes() == _ref_slope_sum(p, pos, ts, side).tobytes()


# --- bisection tree: replays the one-level lockstep loop bit for bit ---------

def _one_level_arc_maxima(p, pos, los, his, tol_z=TOL_Z, log=None):
    """The lockstep loop as it was before the tree: one slope call (two when
    the right edges cannot share the "right" call) per bisection step.
    Calls evaluator._slope_sum through the module, so a monkeypatch reaches
    it.  log, when given, collects whether each step shared its call."""
    length = his - los
    degenerate = length <= ANGLE_TOL
    active = ~degenerate
    t_left = los.copy()
    t_right = his.copy()
    if np.any(active):
        dpa = evaluator._slope_sum(p, pos, los, "right")
        dmb = evaluator._slope_sum(p, pos, his, "left")
        span = float(np.max(length[active]))
        iters = max(8, int(math.ceil(math.log2(max(span / max(tol_z, 1e-300), 2.0)))) + 2)
        at_lo, at_hi = dpa <= 0.0, dmb > 0.0
        t_left = np.where(active & ~at_lo & at_hi, his, los)
        L = np.flatnonzero(active & ~at_lo & ~at_hi)
        at_lo, at_hi = dpa < 0.0, dmb >= 0.0
        t_right = np.where(active & ~at_hi & at_lo, los, his)
        R = np.flatnonzero(active & ~at_hi & ~at_lo)
        nl = len(L)
        lo = np.concatenate((los[L], los[R]))
        hi = np.concatenate((his[L], his[R]))
        shared = p.all_c1 and bool(np.all(
            (pos[None, :] <= los[R, None]) | (pos[None, :] >= his[R, None])))
        for _ in range(iters if len(lo) else 0):
            mid = 0.5 * (lo + hi)
            one = shared and float(np.min(hi[nl:] - lo[nl:], initial=math.inf)) > _GLUE_CLEAR
            if log is not None:
                log.append(one)
            if one:
                s = evaluator._slope_sum(p, pos, mid, "right")
            else:
                s = np.empty_like(mid)
                if nl:
                    s[:nl] = evaluator._slope_sum(p, pos, mid[:nl], "right")
                if len(R):
                    s[nl:] = evaluator._slope_sum(p, pos, mid[nl:], "left")
            pred = s >= 0.0
            pred[:nl] = s[:nl] > 0.0
            lo = np.where(pred, mid, lo)
            hi = np.where(pred, hi, mid)
        edge = 0.5 * (lo + hi)
        t_left[L] = edge[:nl]
        t_right[R] = edge[nl:]
    t_right = np.maximum(t_right, t_left)
    z = np.where(degenerate, los, 0.5 * (t_left + t_right))
    m = sum_translates_full(p, pos, z)
    b_tol = max(4.0 * tol_z, 1e-12)
    on_boundary = degenerate | (z - los <= b_tol) | (his - z <= b_tol)
    unique = degenerate | ((t_right - t_left) <= max(8.0 * tol_z, 1e-10))
    return z, m, on_boundary, unique


def _arc_bounds(y, sig):
    ns = NodeSystem(tuple(y))
    part = arcs(ns, sig)
    los = np.asarray([a.lo for a in part.arcs])
    his = np.asarray([a.hi for a in part.arcs])
    return ns.full_positions(), los, his


def test_tree_depth_fills_the_point_budget():
    for brackets in range(1, 90):
        for kernels in (2, 4, 11, 40):
            d = _tree_depth(brackets, kernels)
            assert d >= 1
            assert d == 1 or brackets * kernels * (2**d - 1) <= _TREE_POINTS
            assert brackets * kernels * (2 ** (d + 1) - 1) > _TREE_POINTS
    assert _tree_depth(6, 3) == 5 and _tree_depth(80, 40) == 1


@pytest.mark.parametrize("depth", range(1, 7))
@pytest.mark.parametrize("bases", [C1_BASES, KINKED_BASES], ids=["c1", "kinked"])
def test_tree_matches_one_level_loop(monkeypatch, bases, depth):
    """Every forced depth gives the one-level loop's bits, also when the
    last pass is short (iters % depth != 0) and when a right-edge bracket
    narrows below _GLUE_CLEAR, which ends the shared call, inside a pass."""
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    rng = np.random.default_rng(7000 + depth)
    short_last_pass = shared_ends = 0
    for _ in range(30):
        p, y, sig = _random_case(rng, bases)
        pos, los, his = _arc_bounds(y, sig)
        log = []
        want = _one_level_arc_maxima(p, pos, los, his, log=log)
        assert _bits(*_arc_maxima(p, pos, los, his, TOL_Z)) == _bits(*want)
        short_last_pass += len(log) % depth != 0
        shared_ends += log[:1] == [True] and not log[-1]
    assert short_last_pass or depth in (1, 2)
    assert shared_ends or bases is KINKED_BASES


def _signs_without_order(p, pos, ts, side):
    """Slope signs that jump around at random along every bracket, with
    zeros, so the tree's walk leaves the path a monotone row would take."""
    ts = np.asarray(ts, dtype=float)
    u = np.sin(7919.0 * ts + (0.0 if side == "right" else 1.0))
    return np.where(np.abs(u) < 0.2, 0.0, np.sign(u))


@pytest.mark.parametrize("depth", range(1, 7))
def test_tree_replays_a_non_monotone_sign_pattern(monkeypatch, depth):
    monkeypatch.setattr(evaluator, "_slope_sum", _signs_without_order)
    p = Problem((log_sine(), weighted(riesz(1.5), 2.0), parabola(), log_sine()))
    pos, los, his = _arc_bounds(np.array([1.1, 2.9, 4.0]), Permutation((1, 2, 3)))
    want = _one_level_arc_maxima(p, pos, los, his)
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    assert _bits(*_arc_maxima(p, pos, los, his, TOL_Z)) == _bits(*want)


def _sides_differ_next_to(y):
    """A slope sum, falling left to right, whose two sides differ only
    1e-15 to 6e-15 below the node y, where "right" reads 0 and "left" -1, as
    the true sides of a C1 sum differ only a few ulps from a node.  So the
    right edge of the maximizing set is y - 1e-15 by "right" slopes and
    y - 6e-15 by "left" ones; the left edge is y - 5e-12 by either."""
    def slope_sum(p, pos, ts, side):
        u = y - np.asarray(ts, dtype=float)
        s = np.where(u > 5e-12, 1.0, np.where(u > 6e-15, 0.0, -1.0))
        return np.where((u > 1e-15) & (u <= 6e-15), 0.0, s) if side == "right" else s
    return slope_sum


@pytest.mark.parametrize("depth", range(1, 7))
def test_tree_shares_the_right_call_only_on_clear_brackets(monkeypatch, depth):
    """The right edges share the "right" call only while every interval of
    the pass that gets a midpoint is wider than _GLUE_CLEAR; past that the
    one-level loop reads "left", and so must the tree."""
    p = Problem((log_sine(), riesz(1.5), log_sine()))
    assert p.all_c1
    # arc 1 is 1e-11 wide, so its brackets narrow past _GLUE_CLEAR
    y = np.array([2.0, 2.0 + 1e-11])
    pos, los, his = _arc_bounds(y, Permutation((1, 2)))
    monkeypatch.setattr(evaluator, "_slope_sum", _sides_differ_next_to(y[1]))
    log = []
    want = _one_level_arc_maxima(p, pos, los, his, log=log)
    assert log[0] and not log[-1]
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    assert _bits(*_arc_maxima(p, pos, los, his, TOL_Z)) == _bits(*want)
