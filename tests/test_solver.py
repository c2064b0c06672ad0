import math
from dataclasses import replace

import numpy as np
import pytest

from equisum.evaluator import Problem, profile, jacobian_delta
from equisum.kernels import approximant, log_sine, parabola, riesz, table, tent, weighted
from equisum.oracle import check_mmatrix, grid_minimax
from equisum.solver import (
    BOUNDARY_SUSPECTED,
    CONVERGED,
    JACOBIAN_SINGULAR,
    MAX_ITER,
    NoAdmissibleDirection,
    SolveOptions,
    _newton_stage,
    _secant_stage,
    descent_direction,
    equidistant_nodes,
    maximin,
    minimax,
    minimax_global,
    pull_apart,
    solve_equioscillation,
)
from equisum.torus import TWO_PI, Permutation, ValidationError, node_dist

PI = math.pi

EX_KERNELS = (tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1))
EX_P = Problem(EX_KERNELS)
E_POINT = (PI, PI / 2, 3 * PI / 2)
E_SIGMA = Permutation((2, 1, 3))
E_VALUE = PI + 0.15 * PI**2


def unit_problem(count):
    return Problem(tuple(log_sine() for _ in range(count)))


def test_equidistant_nodes_respects_sigma():
    ns = equidistant_nodes(3, E_SIGMA)
    # slot order 2,1,3 at angles pi/2, pi, 3pi/2
    assert np.allclose(ns.values, E_POINT)


def test_solve_example_from_equidistant():
    rep = solve_equioscillation(EX_P, E_SIGMA)
    assert rep.status == CONVERGED
    assert node_dist(rep.nodes, E_POINT) < 1e-7
    assert math.isclose(rep.objective, E_VALUE, abs_tol=1e-9)
    assert rep.residual <= 1e-10


def test_solve_example_perturbed_starts():
    # the tent mix has a quadratically-flat direction at the solution, so
    # node accuracy is capped near sqrt(residual) along it
    rng = np.random.default_rng(2024)
    for _ in range(5):
        start = np.asarray(E_POINT) + rng.uniform(-0.2, 0.2, size=3)
        opts = SolveOptions(start=tuple(start))
        rep = solve_equioscillation(EX_P, E_SIGMA, opts)
        assert rep.status == CONVERGED
        assert node_dist(rep.nodes, E_POINT) < 1e-4
        assert math.isclose(rep.objective, E_VALUE, abs_tol=1e-9)


def test_solve_log_sine_perturbed_starts():
    p = unit_problem(4)
    sig = Permutation((1, 2, 3))
    target = equidistant_nodes(3, sig)
    rng = np.random.default_rng(77)
    for _ in range(5):
        start = target.array + rng.uniform(-0.3, 0.3, size=3)
        rep = solve_equioscillation(p, sig, SolveOptions(start=tuple(start)))
        assert rep.status == CONVERGED
        assert node_dist(rep.nodes, target) < 1e-7
        assert math.isclose(rep.objective, -3 * math.log(2.0), abs_tol=1e-10)


def test_solution_jacobian_is_m_matrix():
    p = unit_problem(4)
    sig = Permutation((1, 2, 3))
    rep = solve_equioscillation(p, sig)
    J = jacobian_delta(p, rep.nodes, sig)
    assert check_mmatrix(J).ok


def test_report_to_dict_round_trip():
    rep = solve_equioscillation(EX_P, E_SIGMA)
    d = rep.to_dict()
    for key in ("status", "nodes", "sigma", "residual", "objective",
                "iterations", "flags"):
        assert key in d
    assert d["sigma"] == [2, 1, 3]


def test_solver_is_deterministic():
    opts = SolveOptions(seed=5)
    a = solve_equioscillation(EX_P, E_SIGMA, opts)
    b = solve_equioscillation(EX_P, E_SIGMA, opts)
    assert a.nodes.values == b.nodes.values
    assert a.trace == b.trace


def test_solve_flat_cell_is_honest():
    """sigma=(3,2,1) has its equalizer on the cell boundary; the solver must
    not claim an interior equioscillation point there."""
    opts = SolveOptions(max_iter=40, homotopy_levels=(), secant_sweeps=20)
    rep = solve_equioscillation(EX_P, Permutation((3, 2, 1)), opts)
    assert rep.status != CONVERGED
    assert math.isfinite(rep.residual)


@pytest.mark.parametrize("sweeps", (2, 4, 5))
def test_secant_stage_returns_profile_of_its_nodes(sweeps):
    sig = Permutation((1, 2, 3))
    start = equidistant_nodes(3, sig).array
    y, _, _, prof = _secant_stage(EX_P, sig, start, SolveOptions(secant_sweeps=sweeps))
    assert np.array_equal(prof.m_trav, profile(EX_P, y, sig).m_trav)


def test_node_spread_restart_recovers_from_collapse():
    """Both nodes start on one point: the first pass collapses them and the
    spread-apart restart finds the interior solution."""
    p = Problem((weighted(log_sine(), 0.40262226273469925),
                 weighted(parabola(), 4.4793591385824785),
                 weighted(log_sine(), 1.1138282570095432)))
    start = (3.8400739768867376, 3.8400739768867376)
    rep = solve_equioscillation(p, Permutation((2, 1)), SolveOptions(start=start))
    assert any(e["stage"] == "restart" for e in rep.trace)
    assert rep.status == CONVERGED


def test_secant_stage_stops_when_a_sweep_only_ties():
    """riesz(40) x 4 stalls at the float floor; a sweep whose best move only
    ties the residual is no progress, so the polish stops there."""
    p = Problem((riesz(40.0),) * 4)
    rep = solve_equioscillation(p, Permutation.identity(3))
    assert rep.status == MAX_ITER
    assert rep.residual == 5.093170329928398e-10
    assert sum(e["stage"] == "secant" for e in rep.trace) <= 2


def test_newton_stage_ends_jacobian_singular_on_tents():
    """Three tents in cell (1,2) from [2, 4]: the midpoint slopes make the
    Jacobian of Delta singular within a few steps, which ends the stage."""
    p = Problem((tent(),) * 3)
    y, status, trace, _ = _newton_stage(p, Permutation((1, 2)), np.array([2.0, 4.0]),
                                        SolveOptions(), "direct")
    assert status == JACOBIAN_SINGULAR
    assert 1 <= len(trace) < SolveOptions().max_iter
    assert all(math.isfinite(e["residual"]) for e in trace)
    assert np.all(np.isfinite(y))


def test_newton_stage_ends_boundary_suspected_at_fixed_node():
    """Three log-sines in cell (1,2) with node 1 on the fixed node: an arc
    maximum is -inf, so the stage stops at once; the solve then restarts
    from spread-apart nodes."""
    p = unit_problem(3)
    sig = Permutation((1, 2))
    _, status, trace, _ = _newton_stage(p, sig, np.array([0.0, 3.0]), SolveOptions(), "direct")
    assert status == BOUNDARY_SUSPECTED
    assert [e["residual"] for e in trace] == [math.inf]
    rep = solve_equioscillation(p, sig, SolveOptions(start=(0.0, 3.0)))
    assert rep.trace[1] == {"stage": "restart", "iter": 1, "note": "nodes spread apart"}


def test_coarse_grid_start_matches_equidistant():
    p = Problem(tuple(weighted(log_sine(), w) for w in (1.0, 1.6, 0.7)))
    sig = Permutation((1, 2))
    grid = solve_equioscillation(p, sig, SolveOptions(start="coarse_grid"))
    equi = solve_equioscillation(p, sig)
    assert grid.status == CONVERGED and equi.status == CONVERGED
    assert math.isclose(grid.objective, equi.objective, abs_tol=1e-9)


def test_homotopy_levels_skip_non_finite():
    opts = SolveOptions(max_iter=2, secant_sweeps=1)
    with_none = solve_equioscillation(EX_P, Permutation((3, 2, 1)),
                                      replace(opts, homotopy_levels=(4, None)))
    without = solve_equioscillation(EX_P, Permutation((3, 2, 1)),
                                    replace(opts, homotopy_levels=(4,)))
    assert any(e["stage"] == "level:4" for e in without.trace)
    assert with_none.to_dict() == without.to_dict()


@pytest.mark.filterwarnings("error")
def test_relaxed_jacobian_at_singular_node_is_silent():
    """A maximizer on the log-sine node makes the relaxed slope +inf + -inf;
    the nan ends direct Newton without a RuntimeWarning and the ladder
    takes over."""
    p = Problem((weighted(log_sine(), 3.3332789317528775), tent(), tent()))
    start = (0.7271015297493361, 0.7271015297493361)
    rep = solve_equioscillation(p, Permutation((2, 1)), SolveOptions(start=start))
    assert rep.status == CONVERGED


def test_minimax_smooth_certifies():
    p = unit_problem(3)
    sig = Permutation((1, 2))
    rep = minimax(p, sig)
    assert rep.status == CONVERGED
    assert rep.flags["preconditions_met"]
    assert rep.flags["local_min_certified"]
    assert rep.flags["certificate"] == "gordan"
    assert math.isclose(rep.objective, -2 * math.log(2.0), abs_tol=1e-10)
    target = equidistant_nodes(2, sig)
    assert node_dist(rep.nodes, target) < 1e-8


def test_minimax_preconditions_flag_for_tent_mix():
    rep = minimax(EX_P, E_SIGMA)
    assert not rep.flags["preconditions_met"]
    # e is a genuine local minimum inside this cell
    assert rep.flags["local_min_certified"]
    assert rep.flags["certificate"] == "probes"


def test_minimax_flags_survive_multistart():
    """The multistart report carries every flag, not only its own two."""
    p = Problem((table([0, 2.924865122344172, 5.494740058217614, TWO_PI],
                       [0, 4.291894072194975, 5.342795065782247, 0]),
                 tent(),
                 weighted(parabola(), 1.5320965858668274),
                 weighted(log_sine(), 0.002508212516841592)))
    rep = minimax(p, Permutation((2, 3, 1)))
    assert rep.flags["multistart_improved"]
    assert rep.flags["preconditions_met"] is False
    assert rep.flags["local_min_certified"] == ("certificate_failures" not in rep.flags)


def test_minimax_failed_certificate_is_flagged():
    p = Problem((weighted(table([0, 2.6982200315014477, 5.745752213661757, TWO_PI],
                                [0, 5.007477049120271, 3.781253103975902, 0]),
                          4.480089939041198),
                 weighted(tent(), 0.05401640372287535),
                 weighted(parabola(), 0.07341934827781785)))
    rep = minimax(p, Permutation((1, 2)))
    assert not rep.flags["local_min_certified"]
    assert len(rep.flags["certificate_failures"]) == 1
    assert rep.status == MAX_ITER


def test_minimax_equals_maximin_smooth():
    for count in (3, 4):
        p = unit_problem(count)
        sig = Permutation.identity(count - 1)
        lo = maximin(p, sig)
        hi = minimax(p, sig)
        assert lo.status == CONVERGED
        assert hi.status == CONVERGED
        assert math.isclose(lo.objective, hi.objective, abs_tol=1e-8)


def test_maximin_from_bad_start():
    p = unit_problem(3)
    sig = Permutation((1, 2))
    opts = SolveOptions(start=(0.4, 5.9))
    rep = maximin(p, sig, opts)
    assert rep.status == CONVERGED
    assert math.isclose(rep.objective, -2 * math.log(2.0), abs_tol=1e-8)
    assert rep.flags["objective_kind"] == "m_under"


def test_maximin_example_exceeds_minimax():
    """In the Example's cell the maximin value sits strictly above the
    minimax value; the equioscillation value lower-bounds the former."""
    rep = maximin(EX_P, E_SIGMA)
    assert rep.objective >= E_VALUE - 1e-9
    gm = grid_minimax(EX_P, E_SIGMA, node_resolution=60)
    assert gm.value < rep.objective


@pytest.mark.parametrize("kernels, sigma, floor", [
    # active maximizers on tent kinks, where the relaxed slope LP stalls
    ((weighted(parabola(), 0.11), tent(), tent()), (2, 1), 4.0770),
    # a 2001-point node grid of oracle.grid_profile reaches 6.85008
    ((table([0, 1.5577036703507876, 4.9750406710964645, TWO_PI],
            [0, 2.6922960206142297, 3.30089515788466, 0]),
      weighted(tent(), 2.1011967870864185)), (1,), 6.8500),
    # random sampling of the cell reaches 46.33
    ((weighted(parabola(), 3.546804628089854), parabola(), parabola(), parabola()),
     (1, 3, 2), 46.33),
], ids=["tent_kinks", "table_n1", "parabolas"])
def test_maximin_reaches_brute_force_height(kernels, sigma, floor):
    opts = SolveOptions()
    rep = maximin(Problem(kernels), Permutation(sigma), opts)
    assert rep.objective >= floor
    if rep.converged:
        assert rep.profile.m_bar - rep.profile.m_under <= 2.0 * opts.tol_residual


def test_maximin_starts_at_equioscillation_point():
    """Singular kernels: the equioscillation point is the maximin point, so
    one ascent step certifies it."""
    count = 7
    p = Problem(tuple(weighted(log_sine(), w) for w in (1.0, 1.6, 0.7, 1.3, 0.8, 1.2, 0.9)))
    sig = Permutation.identity(count - 1)
    lo = maximin(p, sig)
    hi = minimax(p, sig)
    assert lo.status == CONVERGED
    assert math.isclose(lo.objective, hi.objective, abs_tol=1e-10)
    assert [e["stage"] for e in lo.trace].count("ascent") == 1


def test_minimax_global_sweeps_cells():
    p = unit_problem(3)
    glob = minimax_global(p)
    assert len(glob.per_sigma) == 2
    assert math.isclose(glob.objective, -2 * math.log(2.0), abs_tol=1e-10)
    assert glob.best.converged


def test_minimax_global_cap():
    p = unit_problem(6)
    with pytest.raises(ValidationError):
        minimax_global(p, max_permutations=10)


def test_descent_direction_strictly_improves():
    p = unit_problem(3)
    y = np.array([1.7, 4.9])  # away from the optimum
    sig = Permutation((1, 2))
    d = descent_direction(p, y, sig)
    assert not d.neutral
    base = profile(p, y, sig).m_bar
    step = 1e-4
    moved = profile(p, y + step * d.a, sig).m_bar
    assert moved < base - 1e-9


def test_descent_direction_infeasible_at_equioscillation():
    with pytest.raises(NoAdmissibleDirection):
        descent_direction(EX_P, E_POINT, E_SIGMA)


def test_descent_direction_respects_frozen():
    p = unit_problem(4)
    y = np.array([1.2, 2.9, 4.8])
    sig = Permutation((1, 2, 3))
    d = descent_direction(p, y, sig, frozen=[[0.0, 1.0, 0.0]])
    assert abs(d.a[1]) <= 1e-12


def test_descent_direction_lowers_every_active_maximum():
    """Random weighted log-sine problems with explicit active arcs: a
    direction that is not neutral has every margin positive."""
    rng = np.random.default_rng(2024)
    nonneutral = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = Problem(tuple(weighted(log_sine(), w) for w in rng.uniform(0.2, 5.0, n + 1)))
        sig = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        y = sig.nodes(np.sort(rng.uniform(0.3, TWO_PI - 0.3, n)))
        active = rng.choice(n + 1, size=int(rng.integers(2, n + 1)), replace=False)
        try:
            d = descent_direction(p, y, sig, active=active)
        except NoAdmissibleDirection:
            continue
        if not d.neutral:
            nonneutral += 1
            assert np.all(d.margins > 0), d.margins
    assert nonneutral > 50


def test_descent_direction_accepts_maximizer_between_close_nodes():
    """Nodes 4.2e-3 apart: the bisection leaves slope sums of about 1e-9 at
    the maximizers, which is within tolerance for slopes this large."""
    w = (4.815954529586176, 3.6789917157129617, 2.7978889066276844,
         1.52907777941778, 0.971129642120609)
    y = np.array([0.9584857464012457, 3.2329134028826556, 3.2371394094847616,
                  5.812265857450013])
    p = Problem(tuple(weighted(log_sine(), v) for v in w))
    sig = Permutation((1, 2, 3, 4))
    d = descent_direction(p, y, sig, active=[0, 1, 2, 3])
    assert not d.neutral and np.all(d.margins > 0)
    base = profile(p, y, sig).m[:4]
    assert np.all(profile(p, y + 1e-6 * d.a, sig).m[:4] < base)


def test_pull_apart_increases_gap():
    p = unit_problem(3)
    y = np.array([2.0, 2.05])
    out = pull_apart(p, y, 1, 2, 0.1)
    assert out.values[1] - out.values[0] > 0.05
    with pytest.raises(ValidationError):
        pull_apart(p, y, 1, 1, 0.1)
    with pytest.raises(ValidationError):
        pull_apart(p, y, 0, 2, 0.1)  # the anchor never moves


def test_smoothed_example_solver_matches_grid():
    """Bump-smoothed Example, sigma=(2,1,3): interior minimax from the solver
    agrees with the brute-force oracle at grid accuracy."""
    level = 50
    p = Problem(tuple(approximant(k, level, "bump") for k in EX_KERNELS))
    rep = minimax(p, E_SIGMA)
    assert rep.status == CONVERGED
    gm = grid_minimax(p, E_SIGMA, node_resolution=40)
    assert rep.objective <= gm.value + 1e-9
    assert math.isclose(rep.objective, gm.value, abs_tol=1e-4)
