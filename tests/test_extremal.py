import dataclasses
import math

import numpy as np
import pytest

import equisum.extremal
from equisum.extremal import (
    BojanovProblem,
    GtpProblem,
    eval_gap,
    gtp_value,
    solve_bojanov,
    solve_doubled_symmetric,
    solve_gtp,
    transfer_to_interval,
    transference_identity_check,
)
from equisum.torus import TWO_PI, ValidationError

PI = math.pi
SQRT2 = math.sqrt(2.0)


def test_gtp_value_closed_form():
    # single unit factor: |sin((t - 0)/2)| at t = pi is 1
    assert math.isclose(gtp_value(PI, [0.0], [1.0]), 1.0, abs_tol=1e-15)
    # product over equally spaced nodes at a midpoint
    v = gtp_value(PI / 3, [0.0, 2 * PI / 3, 4 * PI / 3], [1.0, 1.0, 1.0])
    expect = abs(math.sin(PI / 6) * math.sin(-PI / 6) * math.sin(-PI / 2))
    assert math.isclose(v, expect, rel_tol=1e-12)
    arr = gtp_value(np.array([0.0, PI]), [0.0], [2.0])
    assert arr[0] == 0.0 and math.isclose(arr[1], 1.0)


def test_gtp_problem_validates():
    with pytest.raises(ValidationError):
        GtpProblem((1.0,))
    with pytest.raises(ValidationError):
        GtpProblem((1.0, 0.0))
    assert GtpProblem((1.0, 2.0, 3.0)).n == 2


def test_solve_gtp_unit_weights():
    """Three unit sine factors: nodes equally spaced, norm 1/4, strict
    interlacing of arc maximizers."""
    res = solve_gtp(GtpProblem((1.0, 1.0, 1.0)))
    assert math.isclose(res.norm, 0.25, abs_tol=1e-10)
    assert np.allclose(res.nodes, [0.0, 2 * PI / 3, 4 * PI / 3], atol=1e-8)
    assert np.allclose(res.maximizers, [PI / 3, PI, 5 * PI / 3], atol=1e-7)
    assert res.interlacing
    d = res.to_dict()
    assert d["norm"] == res.norm and len(d["nodes"]) == 3


def test_doubled_single_weight():
    res = solve_doubled_symmetric((1.0,))
    assert np.allclose(res.nodes, [PI / 2, 3 * PI / 2], atol=1e-9)
    assert math.isclose(res.value, -math.log(2.0), abs_tol=1e-10)
    assert res.symmetric and res.flags["maximizers_symmetric"]
    assert np.allclose(res.maximizers, [0.0, PI], atol=1e-9)
    assert res.weights == (1.0, 1.0)


def test_doubled_unequal_weights():
    res = solve_doubled_symmetric((1.0, 2.0))
    assert res.weights == (2.0, 1.0, 1.0, 2.0)
    assert res.symmetry_residual <= 1e-10
    assert res.maximizer_symmetry_residual <= 1e-10
    # nodes mirror around pi in pairs
    assert np.allclose(res.nodes + res.nodes[::-1], TWO_PI, atol=1e-10)
    # the four maximizers include both poles of the symmetry axis
    assert np.allclose(res.maximizers[0], 0.0, atol=1e-9)
    assert np.allclose(res.maximizers[2], PI, atol=1e-9)
    assert math.isclose(res.value, -3.0278870843830474, abs_tol=1e-9)


def test_transfer_to_interval_roundtrip():
    q = BojanovProblem(-1.0, 1.0, (1.0, 1.0))
    t_nodes = [PI / 4, 3 * PI / 4, 5 * PI / 4, 7 * PI / 4]
    x = transfer_to_interval(t_nodes, q)
    assert np.allclose(x, [-1 / SQRT2, 1 / SQRT2], atol=1e-12)
    with pytest.raises(ValidationError):
        transfer_to_interval([PI / 4, 3 * PI / 4], q)  # wrong count
    with pytest.raises(ValidationError):
        transfer_to_interval([0.3, 1.0, 2.0, 5.0], q)  # not symmetric


def test_transfer_to_interval_refuses_coincident_nodes():
    """Mirror-symmetric torus nodes with a repeated angle map to a repeated
    interval node."""
    q = BojanovProblem(-1.0, 1.0, (1.0, 1.0))
    with pytest.raises(ValidationError, match="not strictly increasing"):
        transfer_to_interval([1.0, 1.0, TWO_PI - 1.0, TWO_PI - 1.0], q)


def test_bojanov_refuses_a_missing_alternation_angle(monkeypatch):
    """n + 1 alternation angles must span [0, pi]; a doubled solution with a
    maximizer dropped leaves n."""
    solve = equisum.extremal.solve_doubled_symmetric

    def drop_one(exponents, opts=None):
        dbl = solve(exponents, opts)
        return dataclasses.replace(dbl, maximizers=dbl.maximizers[1:])

    monkeypatch.setattr(equisum.extremal, "solve_doubled_symmetric", drop_one)
    with pytest.raises(ValidationError, match="expected 3 alternation angles"):
        solve_bojanov(BojanovProblem(-1.0, 1.0, (1.0, 1.0)))


def test_bojanov_chebyshev_pair():
    q = BojanovProblem(-1.0, 1.0, (1.0, 1.0))
    poly = solve_bojanov(q)
    assert np.allclose(poly.nodes, [-1 / SQRT2, 1 / SQRT2], atol=1e-8)
    assert math.isclose(poly.norm, 0.5, abs_tol=1e-10)
    assert np.allclose(poly.alternation, [-1.0, 0.0, 1.0], atol=1e-8)
    assert poly.flags["equioscillates"] and poly.flags["interlacing"]
    # the gap product attains the norm on the whole alternation set
    assert np.allclose(poly(poly.alternation), poly.norm, atol=1e-12)


def test_bojanov_chebyshev_triple():
    q = BojanovProblem(-1.0, 1.0, (1.0, 1.0, 1.0))
    poly = solve_bojanov(q)
    cheb = np.sort(np.cos((2 * np.arange(1, 4) - 1) * PI / 6))
    assert np.allclose(poly.nodes, cheb, atol=1e-8)
    assert math.isclose(poly.norm, 0.25, abs_tol=1e-10)


def test_bojanov_unequal_exponents():
    q = BojanovProblem(-1.0, 1.0, (1.0, 2.0))
    poly = solve_bojanov(q)
    assert np.allclose(poly.nodes, [-0.83684188, 0.54078953], atol=1e-7)
    assert math.isclose(poly.alternation[1], -0.37763141, abs_tol=1e-7)
    assert math.isclose(poly.norm, 0.387342663351, abs_tol=1e-9)
    # interior alternation value matches the direct product evaluation
    v = eval_gap(poly.alternation[1], (poly.nodes, q.exponents))
    assert math.isclose(v, poly.norm, rel_tol=1e-10)


def test_bojanov_affine_covariance():
    nu = (1.0, 2.0)
    base = solve_bojanov(BojanovProblem(-1.0, 1.0, nu))
    shifted = solve_bojanov(BojanovProblem(0.0, 2.0, nu))
    assert np.allclose(shifted.nodes, base.nodes + 1.0, atol=1e-8)
    assert math.isclose(shifted.norm, base.norm, rel_tol=1e-9)
    scaled = solve_bojanov(BojanovProblem(0.0, 1.0, nu))
    assert np.allclose(scaled.nodes, (base.nodes + 1.0) / 2.0, atol=1e-8)
    assert math.isclose(scaled.norm, base.norm * 0.5 ** sum(nu), rel_tol=1e-9)


def test_bojanov_single_node():
    poly = solve_bojanov(BojanovProblem(-1.0, 1.0, (1.0,)))
    assert np.allclose(poly.nodes, [0.0], atol=1e-9)
    assert np.allclose(poly.alternation, [-1.0, 1.0], atol=1e-9)
    assert math.isclose(poly.norm, 1.0, abs_tol=1e-10)


def test_transference_identity():
    q = BojanovProblem(-1.0, 1.0, (1.0, 2.0))
    poly = solve_bojanov(q)
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, TWO_PI, 100)
    res = transference_identity_check(ts, q, poly.doubled.nodes)
    assert float(np.max(res)) <= 1e-12
    scalar = transference_identity_check(1.234, q, poly.doubled.nodes)
    assert isinstance(scalar, float) and scalar <= 1e-12


def test_transference_identity_validates():
    q = BojanovProblem(-1.0, 1.0, (1.0, 1.0))
    with pytest.raises(ValidationError):
        transference_identity_check(0.5, q, [1.0, 2.0, 3.0])  # wrong count
    with pytest.raises(ValidationError):
        transference_identity_check(0.5, q, [0.3, 1.0, 2.0, 5.0])


def test_eval_gap_forms():
    nodes, nu = [0.0, 0.5], (1.0, 2.0)
    v = eval_gap(1.0, (nodes, nu))
    assert math.isclose(v, 1.0 * 0.25)
    arr = eval_gap(np.array([0.0, 0.5, 1.0]), (nodes, nu))
    assert arr[0] == 0.0 and arr[1] == 0.0 and math.isclose(arr[2], 0.25)


def test_bojanov_problem_validates():
    with pytest.raises(ValidationError):
        BojanovProblem(1.0, -1.0, (1.0,))
    with pytest.raises(ValidationError):
        BojanovProblem(-1.0, 1.0, ())
    with pytest.raises(ValidationError):
        BojanovProblem(-1.0, 1.0, (1.0, -2.0))
    q = BojanovProblem(0.0, 4.0, (1.0, 1.0))
    assert np.allclose(q.affine([-1.0, 0.0, 1.0]), [0.0, 2.0, 4.0])
