import json
import math

import numpy as np
import pytest

from equisum import torus
from equisum.cli import run
from equisum.evaluator import Problem, profile, sum_translates
from equisum.kernels import log_sine
from equisum.oracle import check_sandwich, convergence_probe, grid_minimax, grid_profile, grid_sup
from equisum.solver import SolveOptions, maximin, minimax, solve_equioscillation
from equisum.torus import (
    TWO_PI,
    NodeSystem,
    Permutation,
    ValidationError,
    arcs,
    as_permutation,
    locate,
    min_gap,
    node_dist,
    reduce_angle,
    torus_dist,
)


def test_reduce_angle_basic():
    assert reduce_angle(0.0) == 0.0
    assert reduce_angle(TWO_PI) == 0.0
    assert math.isclose(reduce_angle(-0.5), TWO_PI - 0.5)
    assert math.isclose(reduce_angle(3 * TWO_PI + 1.0), 1.0)


def test_reduce_angle_array():
    out = reduce_angle(np.array([-1.0, 0.0, TWO_PI + 1.0]))
    assert out.shape == (3,)
    assert np.all((out >= 0.0) & (out < TWO_PI))


def _reference_reduce(t):
    """np.mod plus the >= 2*pi fix: the bits every branch of reduce_angle keeps."""
    with np.errstate(invalid="ignore"):
        r = np.mod(np.asarray(t, dtype=float), TWO_PI)
    return np.where(r >= TWO_PI, r - TWO_PI, r)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_EDGES = [
    -0.0, 0.0, -1e-300, 1e-300, -5e-324, 5e-324, 1.0, -1.0, math.pi, -math.pi,
    TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0),
    2 * TWO_PI, -2 * TWO_PI, 1e300, -1e300,
]
_NONFINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("v", _EDGES + _NONFINITE)
@pytest.mark.parametrize("kind", [float, np.float64, np.array])
def test_reduce_angle_scalar_bits(v, kind):
    with np.errstate(invalid="ignore"):
        out = reduce_angle(kind(v))
    assert type(out) is float
    assert _same_bits(out, _reference_reduce(v))


# both edges of the cheap branch's threshold, plus fixed sizes that keep
# their names when the threshold moves
@pytest.mark.parametrize("size", sorted({1, 7, 1023, 1024, 3077,
                                         torus._CHEAP_MIN - 1, torus._CHEAP_MIN,
                                         3 * torus._CHEAP_MIN + 5}))
@pytest.mark.parametrize("spread", ["in_range", "two_pi", "below", "above", "wide",
                                    "nonfinite"])
def test_reduce_angle_array_bits(size, spread):
    """Below and above the cheap branch's size threshold, inside (-2*pi, 2*pi]
    (where the cheap branch applies) and outside it, the bits are np.mod's."""
    rng = np.random.default_rng(size)
    inside = [v for v in _EDGES if abs(v) < TWO_PI]
    # one side at most one turn out: the range test alone must send it to np.mod
    edges, lo, hi = {
        "in_range": (inside, -TWO_PI, TWO_PI),
        # exactly 2*pi, as at the end of a grid over the last arc
        "two_pi": ([TWO_PI] + inside, -TWO_PI, TWO_PI),
        "below": (inside + [-TWO_PI, -2 * TWO_PI], -2 * TWO_PI, TWO_PI),
        "above": (inside + [TWO_PI, 2 * TWO_PI], -TWO_PI, 2 * TWO_PI),
        "wide": (_EDGES, -50.0, 50.0),
        "nonfinite": (_EDGES + _NONFINITE, -50.0, 50.0),
    }[spread]
    t = rng.uniform(lo, hi, size)
    t[:min(size, len(edges))] = edges[:size]
    rng.shuffle(t)
    with np.errstate(invalid="ignore"):
        out = reduce_angle(t)
        assert _same_bits(out, _reference_reduce(t))
        assert _same_bits(reduce_angle(t.reshape(1, -1, 1)), out.reshape(1, -1, 1))


def test_reduce_angle_array_leaves_input_alone():
    t = np.linspace(-1.0, 1.0, 2 * torus._CHEAP_MIN)
    before = t.copy()
    out = reduce_angle(t)
    assert out is not t and _same_bits(t, before)
    assert reduce_angle(np.empty((0, 3))).shape == (0, 3)


def test_torus_dist_symmetry_and_wrap():
    assert math.isclose(torus_dist(0.1, TWO_PI - 0.1), 0.2)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = rng.uniform(0, TWO_PI, 2)
        assert math.isclose(torus_dist(a, b), torus_dist(b, a))
        assert torus_dist(a, b) <= math.pi + 1e-15


def test_node_dist_shape_mismatch():
    with pytest.raises(ValidationError):
        node_dist([1.0, 2.0], [1.0])


@pytest.mark.parametrize("x, y, message", [
    ([1.0, 2.0], [1.0], "node systems have different sizes: (2,) vs (1,)"),
    (NodeSystem((1.0,)), (1.0, 2.0, 3.0), "node systems have different sizes: (1,) vs (3,)"),
    ([[1.0, 2.0]], [1.0, 2.0], "node systems have different sizes: (1, 2) vs (2,)"),
], ids=["list", "node_system", "batch"])
def test_node_dist_refuses_different_sizes(x, y, message):
    with pytest.raises(ValidationError) as exc:
        node_dist(x, y)
    assert str(exc.value) == message


def test_node_dist_of_two_empty_systems_is_zero():
    assert node_dist([], []) == 0.0


def test_node_system_reduces_and_rejects():
    ns = NodeSystem((TWO_PI + 0.5, -1.0))
    assert math.isclose(ns.values[0], 0.5)
    assert math.isclose(ns.values[1], TWO_PI - 1.0)
    assert ns.n == 2
    with pytest.raises(ValidationError):
        NodeSystem((float("nan"),))
    with pytest.raises(ValidationError):
        NodeSystem(())


LOGSINE_3 = Problem((log_sine(), log_sine(), log_sine()))
# every library entry point that takes the nodes of LOGSINE_3 (n = 2)
NODE_ENTRY_POINTS = {
    "sum_translates": lambda y: sum_translates(LOGSINE_3, y, 1.0),
    "profile": lambda y: profile(LOGSINE_3, y, (1, 2)),
    "start": lambda y: solve_equioscillation(LOGSINE_3, (1, 2), SolveOptions(start=y)),
    "grid_sup": lambda y: grid_sup(LOGSINE_3, y, 4096),
    "grid_profile": lambda y: grid_profile(LOGSINE_3, y, (1, 2)),
    "convergence_probe": lambda y: convergence_probe(LOGSINE_3, y, levels=(4,)),
    "sandwich_include": lambda y: check_sandwich(LOGSINE_3, (1, 2), m_estimate=0.0,
                                                 samples=1, include=[y]),
}


@pytest.mark.parametrize("y", [(2.0, 3.0, 4.0), (2.0,)], ids=["extra", "missing"])
@pytest.mark.parametrize("entry", [*NODE_ENTRY_POINTS, "cli"])
def test_every_entry_point_checks_the_node_count(entry, y, tmp_path, capsys):
    """Every way nodes come in rejects a count other than the problem's n
    with the one message of node_angles: an extra node would cut an arc
    whose kernel is never summed, and a missing one would index past the
    nodes."""
    message = f"node system has {len(y)} nodes, problem expects 2"
    if entry == "cli":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernels": [{"family": "log_sine"}] * 3}))
        assert run(["profile", "--config", str(cfg), "--nodes", ",".join(map(str, y))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            NODE_ENTRY_POINTS[entry](y)


# every library entry point that takes an ordering of LOGSINE_3's nodes
SIGMA_ENTRY_POINTS = {
    "arcs": lambda s: arcs((2.0, 4.0), s),
    "profile": lambda s: profile(LOGSINE_3, (2.0, 4.0), s),
    "grid_profile": lambda s: grid_profile(LOGSINE_3, (2.0, 4.0), s),
    "grid_minimax": lambda s: grid_minimax(LOGSINE_3, s),
    "check_sandwich": lambda s: check_sandwich(LOGSINE_3, s, m_estimate=0.0, samples=1),
    "solve_equioscillation": lambda s: solve_equioscillation(LOGSINE_3, s),
    "minimax": lambda s: minimax(LOGSINE_3, s),
    "maximin": lambda s: maximin(LOGSINE_3, s),
    "permutation": lambda s: profile(LOGSINE_3, (2.0, 4.0), Permutation(s)),
}


@pytest.mark.parametrize("sigma", [(1, 2, 3), (1,)], ids=["extra", "missing"])
@pytest.mark.parametrize("entry", [*SIGMA_ENTRY_POINTS, "cli"])
def test_every_entry_point_checks_the_sigma_size(entry, sigma, tmp_path, capsys):
    """Every way an ordering comes in rejects a size other than the
    problem's n with the one message of as_permutation; an extra slot
    indexed past the nodes with a bare IndexError."""
    message = f"sigma has size {len(sigma)}, expected 2"
    if entry == "cli":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernels": [{"family": "log_sine"}] * 3}))
        assert run(["equioscillate", "--config", str(cfg),
                    "--sigma", ",".join(map(str, sigma))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SIGMA_ENTRY_POINTS[entry](sigma)


def test_node_angles_checks_and_reduces():
    assert torus.node_angles([TWO_PI + 0.5, -1.0], 2).tolist() == [0.5, TWO_PI - 1.0]
    batch = torus.node_angles(np.array([[1.0, 7.0], [2.0, -3.0]]), 2)
    assert batch.tolist() == [[1.0, 7.0 - TWO_PI], [2.0, TWO_PI - 3.0]]
    assert torus.node_positions(batch).tolist() == [[0.0, *batch[0]], [0.0, *batch[1]]]
    for bad, name in ((math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")):
        with pytest.raises(ValidationError, match=f"not finite: {name}$"):
            torus.node_angles([1.0, bad])
        with pytest.raises(ValidationError, match=f"not finite: {name}$"):
            NodeSystem((bad,))
    with pytest.raises(ValidationError, match="at least one free node"):
        torus.node_angles(np.empty((3, 0)))


def test_full_positions_has_anchor():
    ns = NodeSystem((1.0, 2.0))
    pos = ns.full_positions()
    assert pos[0] == 0.0
    assert np.allclose(pos[1:], [1.0, 2.0])


def test_permutation_validation():
    Permutation((2, 1, 3))
    with pytest.raises(ValidationError):
        Permutation((0, 1, 2))
    with pytest.raises(ValidationError):
        Permutation((1, 1, 2))
    assert Permutation.identity(3).sigma == (1, 2, 3)


def test_permutation_labels():
    assert Permutation((2, 1, 3)).labels() == (0, 2, 1, 3)


def test_as_permutation_identity_default():
    assert as_permutation(None, 4).sigma == (1, 2, 3, 4)
    assert as_permutation([3, 1, 2]).sigma == (3, 1, 2)
    with pytest.raises(ValidationError):
        as_permutation(None)


def test_locate_interior():
    assert locate([3.0, 1.0, 4.0]) == Permutation((2, 1, 3))
    # free nodes within ANGLE_TOL tie: a cell face; just beyond it, a cell
    assert locate([1.0, 1.0 + 2e-12]) == Permutation((1, 2))
    assert locate([1.0, 1.0 + 5e-13]) is None
    assert locate([1.0, 1.0]) is None
    assert locate([1.0] * 8) is None


def test_locate_anchor_touch_is_boundary():
    assert locate([0.0, 2.0]) is None
    assert locate([TWO_PI - 1e-15, 2.0]) is None


def test_arcs_partition_round_trip():
    cuts = arcs([3.0, 1.0, 4.0], (2, 1, 3))
    # traversal arc k is [cuts[k], cuts[k+1]]: arc 0 from the anchor, arc 2
    # (slot 1) from y_2 = 1.0, the last one ends at 2*pi
    assert cuts.tolist() == [0.0, 1.0, 3.0, 4.0, TWO_PI]
    assert math.isclose(float(np.sum(np.diff(cuts))), TWO_PI)
    # angles are reduced, node systems are accepted as they are
    assert arcs([3.0 + TWO_PI, 1.0 - TWO_PI, 4.0], (2, 1, 3)).tolist() == pytest.approx(cuts)
    assert np.array_equal(arcs(NodeSystem((3.0, 1.0, 4.0)), (2, 1, 3)), cuts)


def test_arcs_rejects_incompatible_order():
    with pytest.raises(ValidationError, match="slot 2 has 3.0 < 4.0"):
        arcs([3.0, 1.0, 4.0], (3, 1, 2))
    with pytest.raises(ValidationError, match="sigma has size 2"):
        arcs([3.0, 1.0, 4.0], (1, 2))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="not finite"):
            arcs([1.0, bad], (1, 2))


def test_arcs_degenerate_on_face():
    lengths = np.diff(arcs([2.0, 2.0], (1, 2)))
    assert lengths[1] == 0.0
    assert lengths[0] > 0.0
    # an inversion within ANGLE_TOL is clamped to the running maximum
    assert arcs([2.0, 2.0 - 1e-13], (1, 2)).tolist() == [0.0, 2.0, 2.0, TWO_PI]


def test_arcs_batch_is_each_row_alone():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5):
        sig = Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
        slots = np.sort(rng.uniform(0.0, TWO_PI, (6, n)), axis=1)
        ys = np.array([sig.nodes(v) for v in slots]) + TWO_PI * rng.integers(-2, 3, (6, n))
        cuts = arcs(ys, sig)
        assert cuts.shape == (6, n + 2)
        for y, row in zip(ys, cuts):
            assert np.array_equal(row, arcs(y, sig))


def test_arcs_batch_with_one_incompatible_row_raises():
    sig = Permutation((2, 1, 3))
    ys = np.array([[3.0, 1.0, 4.0], [3.5, 1.5, 4.5], [3.0, 1.0, 2.0], [3.0, 2.0, 5.0]])
    with pytest.raises(ValidationError, match="row 2: slot 3 has 2.0 < 3.0"):
        arcs(ys, sig)
    assert arcs(np.delete(ys, 2, axis=0), sig).shape == (3, 5)


def test_min_gap_counts_anchor_and_wrap():
    assert math.isclose(min_gap([1.0, 2.0]), 1.0)
    assert math.isclose(min_gap([TWO_PI - 0.25]), 0.25)
