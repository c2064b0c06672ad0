import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from equisum import evaluator, torus
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
    # per-column positions (n+1, c): column c of t is placed by pos[:, c]
    pos = np.array([[1.0, 0.0, 3.0], [2.0, 4.0, 5.0]])
    ts = np.array([1.5, 0.3, 6.0])
    assert sum_translates_full(p, pos, ts).tolist() == [
        sum_translates_full(p, pos[:, c], ts[c]) for c in range(3)]


def test_profile_equioscillation_point():
    prof = profile(EX_P, E_POINT, E_SIGMA)
    assert np.allclose(prof.m, E_VALUE, atol=1e-12)
    assert np.allclose(prof.z, [0.0, PI, PI, TWO_PI], atol=1e-9)
    assert prof.labels == (0, 2, 1, 3)
    assert all(prof.z_on_boundary)
    assert math.isclose(prof.m_bar, prof.m_under, abs_tol=1e-12)
    d = delta(prof)
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
    assert prof.cuts[1] - prof.cuts[0] <= ANGLE_TOL


def test_profile_log_sine_pair():
    p = Problem((log_sine(), log_sine()))
    prof = profile(p, [PI], Permutation((1,)))
    assert np.allclose(prof.m, -math.log(2.0), atol=1e-12)
    assert np.allclose(prof.z, [PI / 2, 3 * PI / 2], atol=1e-9)
    assert not any(prof.z_on_boundary)
    assert all(prof.unique)


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
    d = delta(profile(EX_P, E_POINT, E_SIGMA))
    assert np.allclose(d, 0.0, atol=1e-12)
    d2 = delta(profile(EX_P, (PI, PI / 2 + 0.3, 3 * PI / 2), E_SIGMA))
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
        J = jacobian_m(p, prof)
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
        jacobian_m(EX_P, prof)
    # relaxed mode substitutes midpoint slopes at kinks
    J = jacobian_m(EX_P, prof, relaxed=True)
    assert J.shape == (4, 3)
    assert np.all(np.isfinite(J))


def test_jacobian_m_boundary_guard():
    p = Problem((parabola(), parabola()))
    sig = Permutation((1,))
    prof = profile(p, [0.8], sig)
    if any(prof.z_on_boundary):
        with pytest.raises(JacobianUnavailableError):
            jacobian_m(p, prof)
    else:  # pragma: no cover - depends on the kernel pair chosen
        jacobian_m(p, prof)


def test_jacobian_delta_is_row_difference():
    p = Problem((log_sine(), riesz(2.0), parabola()))
    y = (2.0, 4.5)
    sig = Permutation((1, 2))
    prof = profile(p, y, sig)
    Jm = jacobian_m(p, prof)
    Jd = jacobian_delta(p, prof)
    # traversal order equals arc-index order for the identity ordering
    assert np.allclose(Jd, Jm[1:] - Jm[:-1])


def test_profile_positions_are_its_own_reduced_nodes():
    """positions: the fixed node's 0, then the reduced y_j by node index; a
    later in-place move of y (the secant polish makes them) leaves it as is."""
    y = np.array([PI + TWO_PI, PI / 2 - TWO_PI, 3 * PI / 2])
    ys = np.array([y, y])
    profs = [profile(EX_P, y, E_SIGMA)] + profile(EX_P, ys, E_SIGMA)
    want = [0.0, *NodeSystem(tuple(y)).values]
    y += 0.1
    ys += 0.1
    for prof in profs:
        assert prof.positions.tolist() == want


def test_profile_reduces_the_angles_once(monkeypatch):
    """One reduction per call, for one system or a batch: the cuts and the
    positions come from the same reduced angles."""
    calls = []
    reduce = torus.reduce_angle

    def counted(t):
        calls.append(np.shape(t))
        return reduce(t)

    monkeypatch.setattr(torus, "reduce_angle", counted)
    monkeypatch.setattr(evaluator, "reduce_angle", counted, raising=False)
    profile(EX_P, E_POINT, E_SIGMA)
    profile(EX_P, np.array([E_POINT, E_POINT]), E_SIGMA)
    assert calls == [(3,), (2, 3)]


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


def _ref_arc_maxima(p, pos, los, his):
    length = his - los
    degenerate = length <= ANGLE_TOL
    active = ~degenerate
    t_left = los.copy()
    t_right = his.copy()
    if np.any(active):
        dpa = _ref_slope_sum(p, pos, los, "right")
        dmb = _ref_slope_sum(p, pos, his, "left")
        span = float(np.max(length[active]))
        iters = max(8, int(math.ceil(math.log2(max(span / TOL_Z, 2.0)))) + 2)
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
    b_tol = 4.0 * TOL_Z
    on_boundary = degenerate | (z - los <= b_tol) | (his - z <= b_tol)
    unique = degenerate | ((t_right - t_left) <= 1e-10)
    return z, m, on_boundary, unique


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


C1_BASES = (log_sine(), riesz(1.5), riesz(3.0), parabola(),
            approximant(parabola(), 8, "bump"))
KINKED_BASES = (tent(), approximant(tent(), 8, "bump"), approximant(log_sine(), 8, "sqrt_cusp"),
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
        cuts = arcs(ns, sig)
        los, his = cuts[:-1], cuts[1:]
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
        approximant(tent(), 10, "bump"), approximant(log_sine(), 10, "sqrt_cusp"),
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

def _one_level_brackets(p, pos, los, his, log=None):
    """The plain lockstep loop: one bracket per edge, two per arc that needs
    both, one level per step; the left edges read "right" slopes and the
    right edges "left" ones.  Calls evaluator._slope_sum through the module,
    so a monkeypatch reaches it.  log, when given, collects per step whether
    every right-edge bracket was wider than _GLUE_CLEAR.  Returns (t_left,
    t_right, L, R, lo, hi): the edges set without bisection, the arcs whose
    left and right edges were bisected, and where their brackets end, the
    left edges first."""
    length = his - los
    active = length > ANGLE_TOL
    t_left = los.copy()
    t_right = his.copy()
    L = R = np.zeros(0, dtype=int)
    lo = hi = np.zeros(0)
    if np.any(active):
        dpa = evaluator._slope_sum(p, pos, los, "right")
        dmb = evaluator._slope_sum(p, pos, his, "left")
        span = float(np.max(length[active]))
        iters = max(8, int(math.ceil(math.log2(max(span / TOL_Z, 2.0)))) + 2)
        at_lo, at_hi = dpa <= 0.0, dmb > 0.0
        t_left = np.where(active & ~at_lo & at_hi, his, los)
        L = np.flatnonzero(active & ~at_lo & ~at_hi)
        at_lo, at_hi = dpa < 0.0, dmb >= 0.0
        t_right = np.where(active & ~at_hi & at_lo, los, his)
        R = np.flatnonzero(active & ~at_hi & ~at_lo)
        nl = len(L)
        lo = np.concatenate((los[L], los[R]))
        hi = np.concatenate((his[L], his[R]))
        for _ in range(iters if len(lo) else 0):
            mid = 0.5 * (lo + hi)
            if log is not None:
                log.append(float(np.min(hi[nl:] - lo[nl:], initial=math.inf)) > _GLUE_CLEAR)
            s = np.empty_like(mid)
            if nl:
                s[:nl] = evaluator._slope_sum(p, pos, mid[:nl], "right")
            if len(R):
                s[nl:] = evaluator._slope_sum(p, pos, mid[nl:], "left")
            pred = s >= 0.0
            pred[:nl] = s[:nl] > 0.0
            lo = np.where(pred, mid, lo)
            hi = np.where(pred, hi, mid)
    return t_left, t_right, L, R, lo, hi


def _one_level_arc_maxima(p, pos, los, his, log=None):
    """_arc_maxima's results by the plain loop (_one_level_brackets)."""
    t_left, t_right, L, R, lo, hi = _one_level_brackets(p, pos, los, his, log)
    edge = 0.5 * (lo + hi)
    t_left[L] = edge[:len(L)]
    t_right[R] = edge[len(L):]
    degenerate = his - los <= ANGLE_TOL
    t_right = np.maximum(t_right, t_left)
    z = np.where(degenerate, los, 0.5 * (t_left + t_right))
    m = sum_translates_full(p, pos, z)
    b_tol = 4.0 * TOL_Z
    on_boundary = degenerate | (z - los <= b_tol) | (his - z <= b_tol)
    unique = degenerate | ((t_right - t_left) <= 1e-10)
    return z, m, on_boundary, unique


def _arc_bounds(y, sig):
    ns = NodeSystem(tuple(y))
    cuts = arcs(ns, sig)
    return ns.full_positions(), cuts[:-1], cuts[1:]


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
        assert _bits(*_arc_maxima(p, pos[None], los[None], his[None])) == _bits(*want)
        short_last_pass += len(log) % depth != 0
        shared_ends += log[:1] == [True] and not log[-1]
    assert short_last_pass or depth in (1, 2)
    assert shared_ends


def _signs_without_order(p, pos, ts, side):
    """Slope signs that jump around at random along every bracket, with
    zeros, where the two edges of a bracket part, so the tree's walk leaves
    the path a monotone row would take.  Both sides read the same, as they
    do off the kinks of every kernel."""
    u = np.sin(7919.0 * np.asarray(ts, dtype=float))
    return np.where(np.abs(u) < 0.2, 0.0, np.sign(u))


@pytest.mark.parametrize("depth", range(1, 7))
def test_tree_replays_a_non_monotone_sign_pattern(monkeypatch, depth):
    monkeypatch.setattr(evaluator, "_slope_sum", _signs_without_order)
    p = Problem((log_sine(), weighted(riesz(1.5), 2.0), parabola(), log_sine()))
    pos, los, his = _arc_bounds(np.array([1.1, 2.9, 4.0]), Permutation((1, 2, 3)))
    want = _one_level_arc_maxima(p, pos, los, his)
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    assert _bits(*_arc_maxima(p, pos[None], los[None], his[None])) == _bits(*want)


def _sides_differ_next_to(y):
    """A slope sum, falling left to right, whose two sides differ only
    1e-15 to 6e-15 below the node y, where "right" reads 0 and "left" -1, as
    the true sides of a sum differ only a few ulps from a node.  So the
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
    # arc 1 is 1e-11 wide, so its brackets narrow past _GLUE_CLEAR
    y = np.array([2.0, 2.0 + 1e-11])
    pos, los, his = _arc_bounds(y, Permutation((1, 2)))
    monkeypatch.setattr(evaluator, "_slope_sum", _sides_differ_next_to(y[1]))
    log = []
    want = _one_level_arc_maxima(p, pos, los, his, log=log)
    assert log[0] and not log[-1]
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    assert _bits(*_arc_maxima(p, pos[None], los[None], his[None])) == _bits(*want)


# --- guided paths: one slope call tests a path toward the secant root -------

def _guided_args(p, systems, sig):
    """The brackets of the node systems of one cell as _arc_maxima hands
    them to one _guided_levels call, and where the one-level loop leaves
    each edge: (args, want), want[0][arc] and want[1][arc] the bits of the
    (lo, hi) of the left and the right edge of flat arc index arc."""
    k = p.n + 1
    bounds = [_arc_bounds(y, sig) for y in systems]
    pos, los, his = (np.array([b[i] for b in bounds]) for i in range(3))
    want, steps = ({}, {}), {}
    for i, (pos_i, los_i, his_i) in enumerate(bounds):
        _, _, L, R, lo, hi = _one_level_brackets(p, pos_i, los_i, his_i)
        span = float(np.max(his_i - los_i))
        for j, arc in enumerate(np.concatenate((L, R)).tolist()):
            want[j >= len(L)][i * k + arc] = (lo[j].hex(), hi[j].hex())
            steps[i * k + arc] = int(math.ceil(math.log2(span / TOL_Z))) + 2
    both = sorted(set(want[0]) & set(want[1]))
    arcs = np.array(sorted(set(want[0]) - set(both)) + both + sorted(set(want[1]) - set(both)),
                    dtype=int)
    a, b = len(want[0]) - len(both), len(want[0])
    cols = pos[0] if len(systems) == 1 else pos.T[:, np.repeat(np.arange(len(systems)), k)]
    los, his = los.ravel(), his.ravel()
    nodes = pos[arcs[a:] // k]
    clear = bool(np.all((nodes <= los[arcs[a:], None]) | (nodes >= his[arcs[a:], None])))
    ends = (evaluator._slope_sum(p, cols, los, "right")[arcs],
            evaluator._slope_sum(p, cols, his, "left")[arcs])
    args = (cols, arcs, los[arcs], his[arcs]) + ends + (
        a, b, clear, np.array([steps[arc] for arc in arcs.tolist()]))
    return args, want


def _guided_edges(got):
    """The (lo, hi) bits of each left and right edge _guided_levels returns."""
    arcs, lo, hi, a, b = got
    rows = list(zip(arcs.tolist(), (v.hex() for v in lo.tolist()), (v.hex() for v in hi.tolist())))
    assert len(set(arcs[:b].tolist())) == b and len(set(arcs[a:].tolist())) == len(arcs) - a
    return ({arc: (x, y) for arc, x, y in rows[:b]}, {arc: (x, y) for arc, x, y in rows[a:]})


@pytest.mark.parametrize("depth", [1, 3, 5])
@pytest.mark.parametrize("bases", [C1_BASES, KINKED_BASES], ids=["c1", "kinked"])
def test_guided_path_matches_one_level_loop(bases, depth):
    """_guided_levels leaves every edge where plain one-level steps do, for
    one system and for a batch of systems of one cell, C1 or kinked."""
    rng = np.random.default_rng(8000 + depth)
    for _ in range(25):
        p, y, sig = _random_case(rng, bases)
        # more systems of the same cell: the first one moved a little
        systems = [y] + [sig.nodes(np.sort(np.clip(sig.slots(y) + rng.normal(0.0, 0.01, p.n),
                                                    0.0, _LAST))) for _ in range(3)]
        for batch in (systems[:1], systems):
            args, want = _guided_args(p, batch, sig)
            if len(args[1]):
                assert _guided_edges(evaluator._guided_levels(p, *args, depth)) == want


_SECANT_GUESS = evaluator._secant_guess
_BAD_GUESSES = {
    "nan": lambda lo, hi, slo, shi: math.nan,
    "inf": lambda lo, hi, slo, shi: math.inf,
    "minus_inf": lambda lo, hi, slo, shi: -math.inf,
    "below": lambda lo, hi, slo, shi: lo - (hi - lo),
    "above": lambda lo, hi, slo, shi: hi + 1.0,
    "midpoint": lambda lo, hi, slo, shi: 0.5 * (lo + hi),
    # the secant root mirrored through the bracket's middle
    "wrong_side": lambda lo, hi, slo, shi: lo + hi - _SECANT_GUESS(lo, hi, slo, shi),
}

# slope sums with the verdicts of the true ones but ends that give no
# secant root (NaN where the slope falls, or infinite), or exactly 0 near
# every edge, so that each maximizing set is a plateau whose left and right
# edges differ and the two kinds of predicate disagree on it
_BAD_SLOPES = {
    "nan_where_falling": lambda s: np.where(s < 0.0, np.nan, s),
    "infinite": lambda s: np.sign(s) * np.inf,
    "zero_plateau": lambda s: np.where(np.abs(s) < 1e-3, 0.0, s),
}


@pytest.mark.parametrize("guess", sorted(_BAD_GUESSES) + sorted(_BAD_SLOPES))
@pytest.mark.parametrize("bases", [C1_BASES, KINKED_BASES], ids=["c1", "kinked"])
def test_guided_path_survives_any_guess(monkeypatch, bases, guess):
    """Guesses outside the bracket, on its midpoint, on the wrong side of
    the edge or not a number, and plateaus of zero slope, move no bracket
    off one-level bisection."""
    if guess in _BAD_GUESSES:
        monkeypatch.setattr(evaluator, "_secant_guess", _BAD_GUESSES[guess])
    else:
        true_sum, change = evaluator._slope_sum, _BAD_SLOPES[guess]
        monkeypatch.setattr(evaluator, "_slope_sum",
                            lambda p, pos, ts, side: change(true_sum(p, pos, ts, side)))
    rng = np.random.default_rng(9000)
    with np.errstate(invalid="ignore"):
        for _ in range(12):
            p, y, sig = _random_case(rng, bases)
            args, want = _guided_args(p, [y], sig)
            if len(args[1]):
                assert _guided_edges(evaluator._guided_levels(p, *args, 2)) == want
            if bases is C1_BASES:
                pos, los, his = _arc_bounds(y, sig)
                got = _arc_maxima(p, pos[None], los[None], his[None])
                assert _bits(*got) == _bits(*_one_level_arc_maxima(p, pos, los, his))


def _log_clear(monkeypatch):
    """Collect the clear flag of every _edge_slopes call."""
    calls, edge_slopes = [], evaluator._edge_slopes
    monkeypatch.setattr(evaluator, "_edge_slopes", lambda p, pos, pts, a, b, clear: (
        calls.append(clear), edge_slopes(p, pos, pts, a, b, clear))[1])
    return calls


@pytest.mark.parametrize("guess", [None, "midpoint", "wrong_side", "nan"])
def test_guided_path_shares_the_right_call_only_on_clear_brackets(monkeypatch, guess):
    """The right edges stop sharing the "right" call inside the guided
    calls, where their brackets narrow below _GLUE_CLEAR, and every bit is
    the one-level loop's, whatever the guess."""
    p = Problem((log_sine(), riesz(1.5), log_sine()))
    y = np.array([2.0, 2.0 + 1e-11])
    pos, los, his = _arc_bounds(y, Permutation((1, 2)))
    monkeypatch.setattr(evaluator, "_slope_sum", _sides_differ_next_to(y[1]))
    want = _one_level_arc_maxima(p, pos, los, his)
    if guess:
        monkeypatch.setattr(evaluator, "_secant_guess", _BAD_GUESSES[guess])
    calls = _log_clear(monkeypatch)
    assert _bits(*_arc_maxima(p, pos[None], los[None], his[None])) == _bits(*want)
    # the tree pass shares; a later, guided call does not
    assert calls[0] and not calls[-1] and len(calls) > 2


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_c1_tree_alone_matches_one_level_loop(monkeypatch, depth):
    """C1 brackets past _PATH_BRACKETS stay on the tree for every pass: its
    bits are the one-level loop's, also where the right edges stop sharing
    the "right" call inside a pass."""
    monkeypatch.setattr(evaluator, "_PATH_BRACKETS", 0)
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    rng = np.random.default_rng(7100 + depth)
    for _ in range(15):
        p, y, sig = _random_case(rng, C1_BASES)
        pos, los, his = _arc_bounds(y, sig)
        want = _one_level_arc_maxima(p, pos, los, his)
        assert _bits(*_arc_maxima(p, pos[None], los[None], his[None])) == _bits(*want)
    p = Problem((log_sine(), riesz(1.5), log_sine()))
    y = np.array([2.0, 2.0 + 1e-11])
    pos, los, his = _arc_bounds(y, Permutation((1, 2)))
    monkeypatch.setattr(evaluator, "_slope_sum", _sides_differ_next_to(y[1]))
    want = _one_level_arc_maxima(p, pos, los, his)
    assert _bits(*_arc_maxima(p, pos[None], los[None], his[None])) == _bits(*want)


def _weighted_log_sine(n):
    w = np.random.default_rng(0).uniform(0.5, 2.0, n + 1)
    return Problem(tuple(weighted(log_sine(), float(v)) for v in w))


def _equidistant(n):
    return NodeSystem(tuple(TWO_PI * np.arange(1, n + 1) / (n + 1)))


@pytest.mark.parametrize("n, most", [(3, 5), (10, 8), (39, 8)])
def test_guided_path_cuts_the_slope_calls(monkeypatch, n, most):
    """A weighted log-sine profile at the equidistant start takes at most
    `most` bracket calls (7, 13 and 37 by the tree alone), so a silent fall
    back to the tree fails here."""
    p = _weighted_log_sine(n)
    assert p.all_c1
    sig = Permutation.identity(n)
    y = _equidistant(n)
    calls = _log_clear(monkeypatch)
    prof = profile(p, y, sig)
    assert 1 < len(calls) <= most
    monkeypatch.setattr(evaluator, "_PATH_BRACKETS", 0)  # the tree alone
    calls.clear()
    assert _bits(prof.z_trav, prof.m_trav) == _bits(*(lambda q: (q.z_trav, q.m_trav))(
        profile(p, y, sig)))
    assert len(calls) > most


@pytest.mark.parametrize("case, most", [("example", 10), ("log_sine_n39", 9)])
def test_profile_slope_sum_count(monkeypatch, case, most):
    """The evaluator._slope_sum calls of one profile(): the two end-slope
    calls, one per bracket call, one "left" call for the points that land
    on a kink, one for the maxima.  17 and 40 when every arc bisected two
    brackets and every kinked step made a "left" call."""
    p, y, sig = ((EX_P, E_POINT, E_SIGMA) if case == "example" else
                 (_weighted_log_sine(39), _equidistant(39), Permutation.identity(39)))
    calls, slope_sum = [], evaluator._slope_sum
    monkeypatch.setattr(evaluator, "_slope_sum", lambda *args: (
        calls.append(args[-1]), slope_sum(*args))[1])
    profile(p, y, sig)
    assert len(calls) <= most


# --- one bracket per arc: the two edges part where their verdicts differ ----

# sums of tents slope +-1 +-1 +-2: maximizing sets that are plateaus of
# exactly zero slope
TENTS = Problem((tent(), tent(), weighted(tent(), 2.0)))
TENTS_Y = np.array([1.0, 2.5])
# three equal tents at the thirds of the circle: each arc's first midpoint
# is a kink of the tent opposite, where its maximum sits
THIRDS = Problem((tent(), tent(), tent()))
THIRDS_Y = np.array([TWO_PI / 3, 2 * TWO_PI / 3])


def _watch_the_split(monkeypatch):
    """Record whether each _bisect_levels call split a bracket, the kink
    hits of each _kink_hits call and the side of each _slope_sum call."""
    seen = {"split": [], "hits": [], "sides": []}
    bisect, hits, slope_sum = evaluator._bisect_levels, evaluator._kink_hits, evaluator._slope_sum

    def watched_bisect(*args, **kwargs):
        out = bisect(*args, **kwargs)
        seen["split"].append(out[3] is not None)
        return out

    def watched_hits(*args):
        out = hits(*args)
        seen["hits"].append(int(np.count_nonzero(out)))
        return out

    monkeypatch.setattr(evaluator, "_bisect_levels", watched_bisect)
    monkeypatch.setattr(evaluator, "_kink_hits", watched_hits)
    monkeypatch.setattr(evaluator, "_slope_sum", lambda *args: (
        seen["sides"].append(args[-1]), slope_sum(*args))[1])
    return seen


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_bracket_splits_on_a_zero_plateau(monkeypatch, depth):
    """Three tents whose slopes cancel on a plateau: a bracket splits where
    the slope sum is exactly 0, and both edges keep the one-level bits."""
    pos, los, his = _arc_bounds(TENTS_Y, Permutation((1, 2)))
    want = _one_level_arc_maxima(TENTS, pos, los, his)
    assert not all(want[3])  # a maximizing set wider than a point
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    seen = _watch_the_split(monkeypatch)
    assert _bits(*_arc_maxima(TENTS, pos[None], los[None], his[None])) == _bits(*want)
    assert any(seen["split"]) and not any(seen["hits"])


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_bracket_splits_on_a_kink_hit(monkeypatch, depth):
    """Midpoints that land on a tent's kink, where its sides differ: a
    "left" call serves the hit points, a bracket splits there, and every
    bit is the one-level loop's."""
    pos, los, his = _arc_bounds(THIRDS_Y, Permutation((1, 2)))
    want = _one_level_arc_maxima(THIRDS, pos, los, his)
    monkeypatch.setattr(evaluator, "_tree_depth", lambda brackets, kernels: depth)
    seen = _watch_the_split(monkeypatch)
    assert _bits(*_arc_maxima(THIRDS, pos[None], los[None], his[None])) == _bits(*want)
    assert any(seen["split"]) and any(seen["hits"])
    # the end slopes at his, then one "left" call for each call with hits
    assert seen["sides"].count("left") == 1 + sum(h > 0 for h in seen["hits"])


@pytest.mark.parametrize("case", ["zero_plateau", "kink_hit"])
def test_batch_splits_as_each_system_alone(case):
    """A batch whose systems split their brackets, some on the plateau or
    the kink and some moved off it, profiles each system bit for bit as it
    profiles alone."""
    p, y = (TENTS, TENTS_Y) if case == "zero_plateau" else (THIRDS, THIRDS_Y)
    sig = Permutation((1, 2))
    rng = np.random.default_rng(11)
    ys = np.array([y, y] + [y + rng.normal(0.0, 1e-3, len(y)) for _ in range(4)])
    for got, row in zip(profile(p, ys, sig), ys):
        want = profile(p, row, sig)
        assert _bits(got.z_trav, got.m_trav, got.z_on_boundary_trav, got.unique_trav) == _bits(
            want.z_trav, want.m_trav, want.z_on_boundary_trav, want.unique_trav)
        pos, los, his = _arc_bounds(row, sig)
        assert _bits(want.z_trav, want.m_trav) == _bits(*_one_level_arc_maxima(p, pos, los,
                                                                               his)[:2])


# --- batches: one lockstep bisection over many node systems -----------------

_LAST = float(np.nextafter(TWO_PI, 0.0))


@st.composite
def _kernel(draw, bases):
    k = draw(st.sampled_from(bases))
    return weighted(k, draw(st.floats(0.2, 5.0))) if draw(st.booleans()) else k


@st.composite
def _slots(draw, n):
    """Sorted slot angles of one system: spread over the circle, squeezed
    into a narrow window (one long arc, so a longer span and more bisection
    steps than a spread system), on the closed cell's faces (ties and nodes
    on the fixed node: degenerate arcs, -inf maxima next to log-sines), or
    with one pair collapsed to 1e-12..1e-10."""
    kind = draw(st.sampled_from(("spread", "narrow", "closed", "collapsed")))
    u = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if kind == "narrow":
        width = 10.0 ** draw(st.floats(-11.0, -1.0))
        return np.minimum(draw(st.floats(0.0, TWO_PI - 0.1)) + width * u, _LAST)
    v = np.minimum(TWO_PI * u, _LAST)
    if kind == "closed":
        for k in range(n):
            if draw(st.integers(0, 2)) == 0:
                v[k] = v[k - 1] if k else 0.0
    elif kind == "collapsed" and n >= 2:
        k = draw(st.integers(0, n - 2))
        v[k + 1] = min(v[k] + 10.0 ** draw(st.floats(-12.0, -10.0)), _LAST)
    return np.maximum.accumulate(v)


@st.composite
def _batch(draw, first):
    """Kernel 0 from first; the others from first, or from every base when
    first is KINKED_BASES."""
    n = draw(st.integers(1, 5))
    bases = first if first is C1_BASES else KINKED_BASES + C1_BASES
    p = Problem((draw(_kernel(first)),) + tuple(draw(_kernel(bases)) for _ in range(n)))
    sig = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    size = draw(st.integers(1, 40))
    rows = draw(st.lists(_slots(n), min_size=size, max_size=size))
    return p, sig, np.array([sig.nodes(v) for v in rows])


@pytest.mark.parametrize("first", [C1_BASES, KINKED_BASES], ids=["c1", "kinked"])
@settings(max_examples=20, deadline=None, database=None)
@seed(20261018)
@given(data=st.data())
def test_batch_profile_is_each_system_alone(first, data):
    """profile(p, Y, sig)[b] is profile(p, Y[b], sig) bit for bit: the
    brackets of every system are bisected in one lockstep loop, each for its
    own system's steps, under a tree depth and a shared call decided for the
    whole batch."""
    p, sig, ys = data.draw(_batch(first))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        batch = profile(p, ys, sig)
        assert len(batch) == len(ys)
        for y, got in zip(ys, batch):
            want = profile(p, y, sig)
            assert [v.hex() for v in got.z_trav.tolist()] == [v.hex() for v in want.z_trav.tolist()]
            assert [v.hex() for v in got.m_trav.tolist()] == [v.hex() for v in want.m_trav.tolist()]
            assert np.array_equal(got.z_on_boundary_trav, want.z_on_boundary_trav)
            assert np.array_equal(got.unique_trav, want.unique_trav)
            assert np.array_equal(got.cuts, want.cuts) and got.labels == want.labels


@pytest.mark.parametrize("build, message", [
    (lambda: Problem((log_sine(), "tent")), "not a kernel: 'tent'"),
    (lambda: Problem((log_sine(),)), "a problem needs at least two kernels (n >= 1)"),
    (lambda: sum_translates_full(Problem((log_sine(),) * 3), [0.0, 1.0], 0.5),
     "2 positions for 3 kernels"),
    (lambda: sum_translates_full(Problem((log_sine(),) * 3), [0.0, 1.0, 2.0, 3.0], [0.5, 1.5]),
     "4 positions for 3 kernels"),
], ids=["not_a_kernel", "one_kernel", "too_few_positions", "too_many_positions"])
def test_validation_exits_raise_their_message(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message
