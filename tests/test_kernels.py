import math

import numpy as np
import pytest

from equisum import torus
from equisum.kernels import (
    Smoothed,
    approximant,
    from_config,
    kernel_sum,
    kernel_weight,
    log_sine,
    parabola,
    riesz,
    table,
    tent,
    weighted,
)
from equisum.torus import TWO_PI, ValidationError, reduce_angle

PI = math.pi
INF = math.inf

ALL_FAMILIES = [
    log_sine(),
    riesz(2.0),
    tent(),
    parabola(),
    weighted(parabola(), 0.1),
    kernel_sum(tent(), weighted(parabola(), 0.5)),
    approximant(tent(), 10, "bump"),
    approximant(log_sine(), 10, "sqrt_cusp"),
    approximant(tent(), 10, "sqrt_cusp"),
]


def test_known_values():
    assert math.isclose(tent().value(PI), PI)
    assert math.isclose(parabola().value(1.5 * PI), 3 * PI**2 / 4)
    assert math.isclose(log_sine().value(PI), 0.0)  # log|sin(pi/2)| = 0
    assert math.isclose(riesz(1.0).value(PI), -0.5)  # -(2 sin(pi/2))^-1


def test_known_slopes():
    assert tent().deriv(PI / 2, "right") == 1.0
    assert tent().deriv(3 * PI / 2, "right") == -1.0
    assert parabola().deriv(PI) == 0.0
    assert math.isclose(log_sine().deriv(PI), 0.0, abs_tol=1e-15)


def test_endpoint_behaviour():
    assert log_sine().value(0.0) == -math.inf
    assert riesz(2.0).value(0.0) == -math.inf
    assert tent().value(0.0) == 0.0
    assert parabola().value(0.0) == 0.0
    # right slope at the glue point is >= 0 >= left slope for every family
    for k in ALL_FAMILIES:
        assert k.deriv(0.0, "right") >= 0.0
        assert k.deriv(0.0, "left") <= 0.0


def test_classify_table():
    ls = log_sine().classify()
    assert ls.cond_inf and ls.cond_inf_prime and ls.c1 and ls.strictly_concave

    pb = parabola().classify()
    assert not pb.cond_inf and pb.c1 and pb.strictly_concave
    assert not pb.cond_inf_prime

    tn = tent().classify()
    assert not tn.cond_inf and not tn.c1 and not tn.strictly_concave

    sm = approximant(tent(), 7, "bump").classify()
    assert sm.strictly_concave
    assert sm.cond_inf_prime


def test_class_flags_match_the_glue_point():
    for k in ALL_FAMILIES:
        c = k.classify()
        assert c.cond_inf == (k.value(0.0) == -math.inf), k
        assert c.cond_inf_prime == (k.deriv(0.0, "right") == math.inf) \
            == (k.deriv(0.0, "left") == -math.inf), k
        assert c.cond_inf_prime or not c.cond_inf, k


def test_concavity_random_triples():
    """K(mid) >= chord for random 0 < a < mid < b < 2*pi, every family."""
    rng = np.random.default_rng(17)
    for k in ALL_FAMILIES:
        for _ in range(200):
            a, b = np.sort(rng.uniform(1e-3, TWO_PI - 1e-3, size=2))
            if b - a < 1e-6:
                continue
            lam = rng.uniform(0.05, 0.95)
            mid = lam * a + (1 - lam) * b
            chord = lam * k.value(a) + (1 - lam) * k.value(b)
            assert k.value(mid) >= chord - 1e-9


def test_slope_monotone_nonincreasing():
    ts = np.linspace(0.05, TWO_PI - 0.05, 300)
    for k in ALL_FAMILIES:
        d = k.deriv(ts, "right")
        assert np.all(np.diff(d) <= 1e-9), k


def test_deriv_matches_fd_where_c1():
    rng = np.random.default_rng(23)
    h = 1e-7
    for k in ALL_FAMILIES:
        if not k.classify().c1:
            continue
        for _ in range(50):
            t = rng.uniform(0.1, TWO_PI - 0.1)
            fd = (k.value(t + h) - k.value(t - h)) / (2 * h)
            assert math.isclose(k.deriv(t), fd, rel_tol=1e-5, abs_tol=1e-5)


def test_left_right_slopes_agree_where_smooth():
    rng = np.random.default_rng(31)
    for _ in range(50):
        t = rng.uniform(0.1, TWO_PI - 0.1)
        if abs(t - PI) < 1e-3:
            continue
        assert tent().deriv(t, "left") == tent().deriv(t, "right")
    # and disagree exactly at the kink
    assert tent().deriv(PI, "left") == 1.0
    assert tent().deriv(PI, "right") == -1.0


def test_c1_kernels_have_one_slope_off_the_glue_point():
    """A C1 kernel's two one-sided slopes agree at every t whose reduced
    angle is not 0, including t next to 0 and 2*pi, and deriv(t, "both")
    returns one array for them."""
    c1 = [k for k in ALL_FAMILIES + [
        riesz(0.5), riesz(7.0), weighted(weighted(log_sine(), 2.0), 0.3),
        approximant(parabola(), 10, "bump"), approximant(log_sine(), 3, "bump"),
        kernel_sum(log_sine(), riesz(1.0), weighted(parabola(), 0.2)),
    ] if k.classify().c1]
    assert len(c1) >= 9
    rng = np.random.default_rng(43)
    ts = np.concatenate((rng.uniform(0.0, TWO_PI, 400), [
        5e-324, 1e-300, 1e-12, PI, np.nextafter(TWO_PI, 0.0), TWO_PI - 1e-12,
        -1e-12, -3.0, TWO_PI + 1e-9, 20.0]))
    ts = ts[reduce_angle(ts) != 0.0]
    for k in c1:
        left, right = k.deriv(ts, "left"), k.deriv(ts, "right")
        assert left.tobytes() == right.tobytes(), k
        left, right = k.deriv(ts, "both")
        assert left is right, k


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_TABLE = table([0.0, 1.0, PI, 5.0, TWO_PI], [0.0, 0.9, 1.2, 0.7, 0.0])
_REDUCE_ONCE = ALL_FAMILIES + [
    riesz(0.5), _TABLE, weighted(riesz(3.0), 2.0),
    approximant(weighted(log_sine(), 2.0), 8, "bump"),
    approximant(riesz(1.0), 5, "sqrt_cusp"), approximant(_TABLE, 4, "sqrt_cusp"),
    kernel_sum(log_sine(), _TABLE, approximant(parabola(), 3, "sqrt_cusp")),
]


# each family's breakpoints: the reduced angles, other than the glue point
# 0, where its two one-sided slopes differ
_CUSP4, _CUSP3 = 1.0 / 4.0**2, 1.0 / 3.0**2
_KINKS = [
    (log_sine(), ()), (riesz(2.0), ()), (tent(), (PI,)), (parabola(), ()),
    (_TABLE, (1.0, PI, 5.0)), (weighted(tent(), 0.3), (PI,)),
    (kernel_sum(tent(), _TABLE, weighted(parabola(), 0.5)), (1.0, PI, 5.0)),
    (approximant(_TABLE, 10, "bump"), (1.0, PI, 5.0)),
    (approximant(log_sine(), 4, "sqrt_cusp"), (_CUSP4, TWO_PI - _CUSP4)),
    (approximant(weighted(tent(), 2.0), 3, "sqrt_cusp"), (_CUSP3, PI, TWO_PI - _CUSP3)),
]


@pytest.mark.parametrize("k, kinks", _KINKS, ids=[k.family for k, _ in _KINKS])
def test_sides_agree_off_the_declared_kinks(k, kinks):
    """deriv(t, "both") gives both one-sided slopes from one call, each with
    the bits of the call for that side alone, at random t, at t on and
    within 4 ulps of each breakpoint, and at the glue point.  It returns one
    array only where the two sides are bit-equal, always one array off the
    breakpoints and the glue point, and two at every breakpoint, where the
    slope drops."""
    rng = np.random.default_rng(61)
    ts = [rng.uniform(0.0, TWO_PI, 400), [5e-324, np.nextafter(TWO_PI, 0.0), -1e-12, 20.0]]
    for kink in kinks + (0.0, TWO_PI):
        up = down = kink
        ts.append([kink, kink - TWO_PI])
        for _ in range(4):
            up, down = np.nextafter(up, INF), np.nextafter(down, -INF)
            ts.append([up, down, up - TWO_PI, down + TWO_PI])
    ts = np.concatenate(ts)
    with np.errstate(over="ignore"):
        left, right = k.deriv(ts, "both")
        # the glue point is among ts, so each side comes from its own formula
        assert left is not right
        assert left.tobytes() == k.deriv(ts, "left").tobytes()
        assert right.tobytes() == k.deriv(ts, "right").tobytes()
        for t, lt, rt in zip(ts, left, right):
            one_l, one_r = k.deriv(np.array([t]), "both")
            assert one_l is not one_r or lt.tobytes() == rt.tobytes(), t
            pair = k.deriv(t, "both")
            assert _same_bits(pair, (lt, rt)) and (pair[0] is pair[1]) == (one_l is one_r), t
        r = reduce_angle(ts)
        off = ts[(r != 0.0) & ~np.isin(r, kinks)]
        left, right = k.deriv(off, "both")
        assert left is right
        assert bool(kinks) != k.classify().c1
        for kink in kinks:
            left, right = k.deriv(np.array([kink]), "both")
            assert left is not right and left[0] > right[0], kink


@pytest.mark.parametrize("k", _REDUCE_ONCE, ids=lambda k: k.family)
def test_public_calls_equal_calls_at_reduced_angles(k):
    """value/deriv reduce t once and evaluate there: the same bits as a call
    at reduce_angle(t), for scalars and for arrays on both sides of the
    reduction's size threshold."""
    rng = np.random.default_rng(59)
    edges = [0.0, -0.0, -1e-300, 5e-324, PI, -PI, TWO_PI, -TWO_PI,
             np.nextafter(TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0), 3 * TWO_PI + 1.0, -20.0]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for t in edges:
            assert _same_bits(k.value(t), k.value(reduce_angle(t)))
            for side in ("left", "right", "both"):
                assert _same_bits(k.deriv(t, side), k.deriv(reduce_angle(t), side))
        for size, scale in ((40, 20.0), (torus._CHEAP_MIN, TWO_PI), (torus._CHEAP_MIN, 20.0)):
            ts = rng.uniform(-scale, scale, size)
            ts[:4] = [-0.0, -1e-300, np.nextafter(-TWO_PI, 0.0), np.nextafter(TWO_PI, 0.0)]
            ts = ts.reshape(2, -1)
            assert _same_bits(k.value(ts), k.value(reduce_angle(ts)))
            for side in ("left", "right", "both"):
                assert _same_bits(k.deriv(ts, side), k.deriv(reduce_angle(ts), side))


def test_weighted_scales_everything():
    base = parabola()
    k = weighted(base, 0.25)
    ts = np.linspace(0.1, TWO_PI - 0.1, 20)
    assert np.allclose(k.value(ts), 0.25 * base.value(ts))
    assert np.allclose(k.deriv(ts), 0.25 * base.deriv(ts))
    assert kernel_weight(k) == 0.25
    with pytest.raises(ValidationError):
        weighted(base, -1.0)


def test_sum_kernel_adds():
    k = kernel_sum(tent(), parabola())
    ts = np.linspace(0.1, TWO_PI - 0.1, 20)
    assert np.allclose(k.value(ts), tent().value(ts) + parabola().value(ts))
    cls = k.classify()
    assert cls.strictly_concave  # one strictly concave term is enough
    assert not cls.c1  # the tent term spoils C1


def test_table_kernel_interpolates():
    ts = np.array([0.0, PI / 2, PI, 3 * PI / 2, TWO_PI])
    vs = tent().value(ts)
    k = table(ts, vs)
    assert math.isclose(k.value(PI / 2), PI / 2)
    assert math.isclose(k.value(PI / 4), PI / 4)  # linear between samples
    assert not k.classify().c1


def test_table_kernel_rejects_mismatched_ends():
    with pytest.raises(ValidationError):
        table([0.0, PI, TWO_PI], [0.0, 1.0, 0.5])


# ----------------------------------------------------------- approximants

def test_bump_peak_value():
    # bump adds (1/level) sqrt(pi^2 - (t - pi)^2); peak pi/level at t = pi
    k = approximant(tent(), 1, "bump")
    assert math.isclose(k.value(PI), PI + PI)
    k2 = approximant(tent(), 4, "bump")
    assert math.isclose(k2.value(PI), PI + PI / 4)


def test_bump_term_in_place_keeps_the_expression_bits():
    """On arrays the bump term is computed in place; it must give the bits of
    the one-line expression, which scalars still use, at every point."""
    k = approximant(weighted(parabola(), 0.1), 7, "bump")  # 1/7 rounds
    rng = np.random.default_rng(61)
    ts = np.concatenate(([0.0, 5e-324, PI, np.nextafter(TWO_PI, 0.0)],
                         rng.uniform(0.0, TWO_PI, 60))).reshape(4, -1)
    u = ts - PI
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.sqrt(np.maximum(PI * PI - u * u, 0.0)) / k.level
        slope = -u / (k.level * np.sqrt(np.maximum(PI * PI - u * u, 0.0)))
        assert _same_bits(k._term_value(ts), value)
        assert all(_same_bits(k._term_value(t), v) for t, v in zip(ts.flat, value.flat))
        for i, glue in ((0, -math.inf), (1, math.inf)):
            want = np.where(ts == 0.0, glue, slope)
            assert _same_bits(k._term_derivs(ts)[i], want)
            assert all(_same_bits(k._term_derivs(t)[i], w) for t, w in zip(ts.flat, want.flat))


def test_sqrt_cusp_outside_window_is_exact():
    base = parabola()
    for level in (3, 10, 50):
        k = approximant(base, level, "sqrt_cusp")
        for t in (1.0, PI, TWO_PI - 1.0, 1.5 / level**2):
            assert math.isclose(k.value(t), base.value(t), rel_tol=0, abs_tol=1e-12)


def test_sqrt_cusp_uniform_closeness():
    """K - 1/level <= approximant <= K on a fine grid."""
    ts = np.linspace(1e-6, TWO_PI - 1e-6, 4001)
    for base in (tent(), parabola()):
        for level in (4, 16, 64):
            k = approximant(base, level, "sqrt_cusp")
            lo = base.value(ts) - 1.0 / level
            hi = base.value(ts)
            v = k.value(ts)
            assert np.all(v >= lo - 1e-12)
            assert np.all(v <= hi + 1e-12)


def test_smoothed_stays_concave():
    rng = np.random.default_rng(41)
    for kind in Smoothed.KINDS:
        k = approximant(tent(), 6, kind)
        for _ in range(200):
            a, b = np.sort(rng.uniform(1e-3, TWO_PI - 1e-3, size=2))
            if b - a < 1e-6:
                continue
            mid = 0.5 * (a + b)
            assert k.value(mid) >= 0.5 * (k.value(a) + k.value(b)) - 1e-9


# ----------------------------------------------------------- config parsing

def test_from_config_round_trip():
    for k in ALL_FAMILIES:
        k2 = from_config(k.spec())
        ts = np.linspace(0.3, TWO_PI - 0.3, 7)
        assert np.allclose(k.value(ts), k2.value(ts))


def test_from_config_rejects_garbage():
    with pytest.raises(ValidationError):
        from_config({"family": "banana"})
    with pytest.raises(ValidationError):
        from_config(["tent"])
    with pytest.raises(ValidationError):
        from_config({"family": "riesz"})  # missing p


# ----------------------------------------------------------- validation exits

_NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: tent().deriv(1.0, "up"), "side must be 'left', 'right' or 'both', got 'up'"),
    (lambda: riesz(0.0), "riesz exponent must be finite and > 0, got 0.0"),
    (lambda: riesz(-1.5), "riesz exponent must be finite and > 0, got -1.5"),
    (lambda: table([0.0, PI, TWO_PI], [0.0, 1.0]),
     "table kernel needs matching 1-d arrays, >= 3 points"),
    (lambda: table([0.0, TWO_PI], [0.0, 0.0]),
     "table kernel needs matching 1-d arrays, >= 3 points"),
    (lambda: table([0.0, PI, TWO_PI], [0.0, _NAN, 0.0]), "table kernel samples must be finite"),
    (lambda: table([0.1, PI, TWO_PI], [0.0, 1.0, 0.0]),
     "table grid must start at 0 and end at 2*pi"),
    (lambda: table([0.0, PI, PI, TWO_PI], [0.0, 1.0, 1.0, 0.0]),
     "table grid must be strictly increasing"),
    (lambda: table([0.0, 1.0, 2.0, TWO_PI], [0.0, 0.1, 2.0, 0.0]),
     "table kernel is not concave: slopes increase"),
    (lambda: kernel_sum(), "sum kernel needs at least one term"),
    (lambda: Smoothed(tent(), 0.5), "smoothing level must be >= 1, got 0.5"),
    (lambda: Smoothed(tent(), 4, "spline"),
     "unknown smoothing kind 'spline', pick from ('bump', 'sqrt_cusp')"),
    (lambda: from_config({"family": "table"}),
     "table kernel config needs 'points': [[t, v], ...]"),
    (lambda: from_config({"family": "table", "points": [0.0, PI, TWO_PI]}),
     "table points must be [t, value] pairs"),
    (lambda: from_config({"family": "table", "points": [[0.0, 0.0, 1.0], [TWO_PI, 0.0, 1.0]]}),
     "table points must be [t, value] pairs"),
    (lambda: from_config({"family": "weighted", "base": {"family": "tent"}}),
     "weighted kernel config needs 'base' and 'weight'"),
    (lambda: from_config({"family": "weighted", "weight": 2.0}),
     "weighted kernel config needs 'base' and 'weight'"),
    (lambda: from_config({"family": "smoothed", "base": {"family": "tent"}}),
     "smoothed kernel config needs 'base' and 'level'"),
    (lambda: from_config({"family": "smoothed", "level": 4}),
     "smoothed kernel config needs 'base' and 'level'"),
], ids=[
    "slope_side", "riesz_p_zero", "riesz_p_negative", "table_shapes", "table_two_points",
    "table_nan", "table_grid_ends", "table_grid_order", "table_convex", "empty_sum",
    "smoothed_level", "smoothed_kind", "config_table_no_points", "config_table_flat_points",
    "config_table_triples", "config_weighted_no_weight", "config_weighted_no_base",
    "config_smoothed_no_level", "config_smoothed_no_base",
])
def test_validation_exits_raise_their_message(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message
