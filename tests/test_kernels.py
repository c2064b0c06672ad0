import math

import numpy as np
import pytest

from equisum.kernels import (
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
from equisum.torus import TWO_PI, ValidationError

PI = math.pi

ALL_FAMILIES = [
    log_sine(),
    riesz(2.0),
    tent(),
    parabola(),
    weighted(parabola(), 0.1),
    kernel_sum(tent(), weighted(parabola(), 0.5)),
    approximant(tent(), 10, "bump"),
    approximant(tent(), 10, "log_cusp"),
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
    assert not ls.finite_at_zero

    pb = parabola().classify()
    assert pb.finite_at_zero and pb.c1 and pb.strictly_concave
    assert not pb.cond_inf_prime

    tn = tent().classify()
    assert tn.finite_at_zero and not tn.c1 and not tn.strictly_concave

    sm = approximant(tent(), 7, "bump").classify()
    assert sm.strictly_concave
    assert sm.cond_inf_prime_minus and sm.cond_inf_prime_plus


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


def test_sqrt_cusp_outside_window_is_exact():
    base = parabola()
    for level in (3, 10, 50):
        k = approximant(base, level, "sqrt_cusp")
        for t in (1.0, PI, TWO_PI - 1.0, 1.5 / level**2):
            assert math.isclose(k.value(t), base.value(t), rel_tol=0, abs_tol=1e-12)


def test_log_cusp_pins_minus_inf_at_zero():
    k = approximant(tent(), 5, "log_cusp")
    assert k.value(0.0) == -math.inf


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


def test_approximant_level_none_is_identity():
    base = tent()
    assert approximant(base, None) is base
    assert approximant(base, math.inf) is base


def test_smoothed_stays_concave():
    rng = np.random.default_rng(41)
    for kind in ("bump", "log_cusp", "sqrt_cusp"):
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
