import math

import numpy as np
import pytest

from equisum import solver
from equisum.evaluator import Problem, profile, jacobian_delta
from equisum.kernels import approximant, log_sine, parabola, riesz, table, tent, weighted
from equisum.oracle import check_mmatrix, grid_minimax, grid_profile, grid_sup
from equisum.solver import (
    BOUNDARY_SUSPECTED,
    CONVERGED,
    JACOBIAN_SINGULAR,
    MAX_ITER,
    SolveOptions,
    _coarse_grid_start,
    _newton_stage,
    _project_cell,
    _secant_stage,
    equidistant_nodes,
    maximin,
    minimax,
    minimax_global,
    solve_equioscillation,
)
from equisum.torus import TWO_PI, Permutation, ValidationError, locate, min_gap, node_dist

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
    J = jacobian_delta(p, rep.profile)
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


def test_example_cell_123_has_an_interior_equioscillation_point():
    """The Example's cell (1,2,3) holds an equioscillation point at level
    4.57785413 with every node well apart and every maximizer inside its
    arc; a coarse-grid start reaches it, and the grid oracle agrees."""
    sig = Permutation((1, 2, 3))
    rep = solve_equioscillation(EX_P, sig, SolveOptions(start="coarse_grid"))
    assert rep.status == CONVERGED
    assert rep.objective == pytest.approx(4.57785413, abs=1e-8)
    assert min_gap(rep.nodes) > 0.6
    assert not np.any(rep.profile.z_on_boundary_trav)
    labels, _, m = grid_profile(EX_P, rep.nodes, sig, 4096)
    assert labels == rep.profile.labels
    assert np.allclose(m, rep.profile.m_trav, rtol=0.0, atol=1e-6)
    assert float(np.max(m) - np.min(m)) <= 1e-6


def test_solve_flat_cell_is_honest(monkeypatch):
    """sigma=(3,2,1) holds an interior equioscillation point (level
    4.57785413), but from the default start Newton with midpoint rows at the
    kinks misses it; a capped solve that misses it must not claim it."""
    monkeypatch.setattr(solver, "HOMOTOPY_LEVELS", ())
    monkeypatch.setattr(solver, "SECANT_SWEEPS", 20)
    opts = SolveOptions(max_iter=40)
    rep = solve_equioscillation(EX_P, Permutation((3, 2, 1)), opts)
    assert rep.status != CONVERGED
    assert math.isfinite(rep.residual)


@pytest.mark.parametrize("sweeps", (2, 4, 5))
def test_secant_stage_returns_profile_of_its_nodes(sweeps, monkeypatch):
    monkeypatch.setattr(solver, "SECANT_SWEEPS", sweeps)
    sig = Permutation((1, 2, 3))
    start = equidistant_nodes(3, sig).array
    y, _, _, prof = _secant_stage(EX_P, sig, start, SolveOptions())
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


@pytest.mark.parametrize("failing", ["cond", "solve"])
def test_newton_stage_ends_jacobian_singular_on_a_linalg_error(monkeypatch, failing):
    """numpy documents LinAlgError for cond and solve; either ends the stage
    jacobian_singular where it stands."""
    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, failing, refuse)
    y0 = np.array([2.0, 4.0])
    y, status, trace, _ = _newton_stage(unit_problem(3), Permutation((1, 2)), y0,
                                        SolveOptions(), "direct")
    assert status == JACOBIAN_SINGULAR
    assert len(trace) == 1 and trace[0]["residual"] > 0.0
    assert y.tolist() == y0.tolist()


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


def test_secant_stage_ends_boundary_suspected_at_fixed_node():
    """With max_iter 0 every Newton stage ends at its start, so the secant
    polish opens at node 1 on the fixed node, where an arc maximum is -inf;
    it stops at once and the solve restarts from spread-apart nodes."""
    sig = Permutation((1, 2))
    y, status, trace, _ = _secant_stage(unit_problem(3), sig, np.array([0.0, 3.0]),
                                        SolveOptions())
    assert status == BOUNDARY_SUSPECTED
    assert trace == [{"stage": "secant", "iter": 0, "residual": math.inf}]
    assert list(y) == [0.0, 3.0]
    rep = solve_equioscillation(unit_problem(3), sig, SolveOptions(start=(0.0, 3.0), max_iter=0))
    stages = [e["stage"] for e in rep.trace]
    first = stages.index("secant")
    assert rep.trace[first]["residual"] == math.inf
    assert stages[first + 1] == "restart"


def test_secant_stage_skips_a_node_on_its_pad_bound(monkeypatch):
    """Node 1 sits on its pad bound, 1e-3 of its gap above the fixed node,
    and Delta pushes it down: its clipped probe equals its start, so the
    stage moves on to node 2 with no profile of the unchanged system."""
    p = Problem((weighted(tent(), 1e-6), weighted(tent(), 1e-6), tent()))
    sig = Permutation((1, 2))
    start = np.array([1e-3 * PI, PI])
    profiled, original = [], solver.profile
    monkeypatch.setattr(solver, "profile",
                        lambda p, y, sig: profiled.append(np.array(y)) or original(p, y, sig))
    _secant_stage(p, sig, start, SolveOptions())
    assert profiled[0].tolist() == start.tolist()
    assert profiled[1][0] == start[0] and profiled[1][1] != start[1]


def test_maximin_ends_boundary_suspected_at_fixed_node():
    """Every node of the start sits on the fixed node.  The equioscillation
    solve fails there, and its spread-apart restarts keep two nodes on one
    point, so its last iterate too has an arc maximum of -inf: whichever of
    the two the ascent starts at, it ends at once."""
    p = unit_problem(4)
    sig = Permutation((1, 2, 3))
    opts = SolveOptions(start=(0.0, 0.0, 0.0))
    equi = solve_equioscillation(p, sig, opts)
    assert equi.status == BOUNDARY_SUSPECTED and equi.profile.m_under == -math.inf
    rep = maximin(p, sig, opts)
    ascent = [e for e in rep.trace if e["stage"] == "ascent"]
    assert rep.status == BOUNDARY_SUSPECTED
    assert ascent == [{"stage": "ascent", "iter": 0, "m_under": -math.inf, "spread": math.inf}]
    assert rep.objective == rep.profile.m_under == -math.inf


@pytest.mark.parametrize("iterate, start", [((0.3, 6.0), (2.0, 4.0)), ((2.0, 4.0), (0.3, 6.0))],
                         ids=["start_higher", "iterate_higher"])
def test_maximin_ascends_from_the_higher_point_it_holds(monkeypatch, iterate, start):
    """After a failed equioscillation solve the ascent opens at whichever of
    the solve's last iterate and the configured start has the larger m_under."""
    p, sig = unit_problem(3), Permutation((1, 2))
    last = profile(p, np.array(iterate), sig)
    failed = solver.SolveReport(status=MAX_ITER, residual=1.0, objective=last.m_bar,
                                profile=last, iterations=1, trace=[], seed=0)
    monkeypatch.setattr(solver, "solve_equioscillation", lambda p, sig, opts: failed)
    rep = maximin(p, sig, SolveOptions(start=start))
    opened = next(e for e in rep.trace if e["stage"] == "ascent")["m_under"]
    other = profile(p, np.array(start), sig).m_under
    assert opened == max(last.m_under, other) and last.m_under != other


def test_maximin_ends_jacobian_singular_on_coincident_nodes(monkeypatch):
    """Bump-smoothed tents have infinite one-sided slopes at 0 but finite
    values.  From the coincident start (2, 2) the capped equioscillation
    solve fails; the ascent's degenerate arc is active and its maximizer sits
    on both nodes, where the midpoint slope is (-inf + inf) / 2 = nan."""
    monkeypatch.setattr(solver, "HOMOTOPY_LEVELS", ())
    monkeypatch.setattr(solver, "SECANT_SWEEPS", 0)
    p = Problem(tuple(approximant(tent(), 4, "bump") for _ in range(3)))
    opts = SolveOptions(start=(2.0, 2.0), max_iter=1)
    rep = maximin(p, Permutation((1, 2)), opts)
    ascent = [e for e in rep.trace if e["stage"] == "ascent"]
    assert rep.status == JACOBIAN_SINGULAR
    assert len(ascent) == 1 and math.isfinite(ascent[0]["m_under"])
    assert list(rep.nodes.values) == [2.0, 2.0]


def test_settled_start_with_collapsed_nodes_is_boundary_suspected():
    """Tents weighted (1, 1/2, 1/2) with both nodes at pi: F is pi on every
    arc, so the direct stage settles at its start, but the nodes coincide."""
    p = Problem((tent(), weighted(tent(), 0.5), weighted(tent(), 0.5)))
    rep = solve_equioscillation(p, Permutation((1, 2)), SolveOptions(start=(PI, PI)))
    assert rep.residual == 0.0
    assert rep.status == BOUNDARY_SUSPECTED


def test_project_cell_keeps_nodes_below_two_pi_at_a_tiny_margin():
    """A margin below half an ulp of 2*pi must not clamp a node onto 2*pi:
    profile() would reduce it to 0, outside the cell (wide-corpus cell
    048/3412)."""
    sig = Permutation((1, 2))
    y = _project_cell(np.array([3.0, TWO_PI + 1e-3]), sig, 8.9e-19)
    assert y[0] == 3.0 and y[1] == np.nextafter(TWO_PI, 0.0)
    prof = profile(unit_problem(3), y, sig)
    assert prof.m_trav.shape == (3,)


def test_coarse_grid_start_matches_equidistant():
    p = Problem(tuple(weighted(log_sine(), w) for w in (1.0, 1.6, 0.7)))
    sig = Permutation((1, 2))
    grid = solve_equioscillation(p, sig, SolveOptions(start="coarse_grid"))
    equi = solve_equioscillation(p, sig)
    assert grid.status == CONVERGED and equi.status == CONVERGED
    assert math.isclose(grid.objective, equi.objective, abs_tol=1e-9)


def test_coarse_grid_start_draws_from_the_seed_above_n3():
    """From n = 4 the coarse grid is 80 seeded random draws: the same seed
    gives the same start, inside the cell, and the solve from it converges."""
    p = Problem(tuple(weighted(log_sine(), w) for w in (1.3, 0.8, 1.1, 0.7, 1.5)))
    sig = Permutation((2, 1, 4, 3))
    opts = SolveOptions(start="coarse_grid", seed=5)
    start = _coarse_grid_start(p, sig, opts)
    assert np.array_equal(start, _coarse_grid_start(p, sig, opts))
    assert not np.array_equal(start, equidistant_nodes(4, sig).array)
    assert locate(start) == sig
    assert solve_equioscillation(p, sig, opts).status == CONVERGED


def test_coarse_grid_start_falls_back_to_equidistant():
    """At n = 39 no draw keeps every gap above 0.05, so no candidate is
    left and the start is the equidistant one."""
    p = unit_problem(40)
    sig = Permutation.identity(39)
    start = _coarse_grid_start(p, sig, SolveOptions(start="coarse_grid"))
    assert np.array_equal(start, equidistant_nodes(39, sig).array)


# bench/workloads.py's LADDER_N5 in its cell: direct Newton stalls, and the
# bump ladder plus the exact endgame converge it
LADDER_N5 = Problem((weighted(log_sine(), 1.2405), weighted(log_sine(), 0.7694),
                     weighted(riesz(1.8066), 1.6704), weighted(log_sine(), 0.9832),
                     weighted(riesz(0.8304), 1.4156), weighted(parabola(), 0.1754)))
LADDER_SIGMA = Permutation((2, 5, 3, 4, 1))


def _stage_ends(rep):
    """{stage label: residual of the stage's last trace entry}."""
    return {e["stage"]: e["residual"] for e in rep.trace if "residual" in e}


def test_intermediate_rungs_stop_at_the_rung_tolerance():
    """Each rung before the last stops once its residual is at most
    max(tol_residual, level**-2); the last rung is held to tol_residual,
    since the exact stages start from it."""
    opts = SolveOptions()
    ends = _stage_ends(solve_equioscillation(EX_P, Permutation((1, 2, 3)), opts))
    *intermediate, last = solver.HOMOTOPY_LEVELS
    for level in intermediate:
        assert ends[f"level:{level:g}"] <= max(opts.tol_residual, level ** -2.0)
    # the rule is active: some rung stops short of tol_residual
    assert any(ends[f"level:{level:g}"] > opts.tol_residual for level in intermediate)
    assert ends[f"level:{last:g}"] <= opts.tol_residual


def test_ladder_n5_converges_through_the_ladder():
    rep = solve_equioscillation(LADDER_N5, LADDER_SIGMA)
    assert rep.status == CONVERGED
    assert {"level:4", "level:256", "exact"} <= set(_stage_ends(rep))
    assert grid_sup(LADDER_N5, rep.nodes, 4096) == pytest.approx(rep.objective, abs=1e-8)


def test_one_level_ladder_is_held_to_tol_residual(monkeypatch):
    """A one-level ladder's rung is its last, so it runs to tol_residual as
    every rung did before intermediate rungs were loosened: the report's
    bits are those recorded then."""
    monkeypatch.setattr(solver, "HOMOTOPY_LEVELS", (4,))
    rep = solve_equioscillation(LADDER_N5, LADDER_SIGMA)
    assert (rep.status, rep.iterations) == (CONVERGED, 11)
    assert rep.residual.hex() == "0x1.d000000000000p-43"
    assert rep.objective.hex() == "-0x1.a98f15358a766p+1"
    assert [v.hex() for v in rep.nodes.values] == [
        "0x1.5cf0ad5078c46p+2", "0x1.74e5f2302249ep+0", "0x1.add9194b7b927p+1",
        "0x1.1ea43d278867dp+2", "0x1.57f035797d03dp+1"]


def test_final_profile_after_a_ladder_rung_is_on_the_exact_kernels(monkeypatch):
    """Every rung ends boundary_suspected, so each pass, restarts included,
    ends on a rung whose profile is of the bump-smoothed kernels; the report
    re-profiles the last iterate on the exact ones."""
    rungs = []

    def stage(q, sig, y, opts, label):
        y, status, trace, prof = _newton_stage(q, sig, y, opts, label)
        if label.startswith("level:"):
            rungs.append(prof)
            status = BOUNDARY_SUSPECTED
        return y, status, trace, prof

    monkeypatch.setattr(solver, "_newton_stage", stage)
    sig = Permutation((1, 2, 3))
    rep = solve_equioscillation(EX_P, sig, SolveOptions(max_iter=1))
    assert rep.status == BOUNDARY_SUSPECTED
    exact = profile(EX_P, rep.nodes, sig)
    for name in ("positions", "cuts", "z_trav", "m_trav", "z_on_boundary_trav", "unique_trav"):
        assert np.array_equal(getattr(rep.profile, name), getattr(exact, name)), name
    assert np.array_equal(rungs[-1].positions, exact.positions)
    assert not np.array_equal(rungs[-1].m_trav, exact.m_trav)
    assert [e["stage"] for e in rep.trace].count("restart") == 2


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


def test_iterations_are_trace_rows_less_restart_markers():
    """Three log-sines in cell (1,2) from (0, 3): the solve restarts once, so
    its 9 trace rows hold 8 iterations; maximin adds one ascent row and
    counts 9, not the 10 rows of its trace."""
    p = unit_problem(3)
    opts = SolveOptions(start=(0.0, 3.0))
    equi = solve_equioscillation(p, (1, 2), opts)
    assert (equi.status, len(equi.trace), equi.iterations) == (CONVERGED, 9, 8)
    assert [e["stage"] for e in equi.trace].count("restart") == 1
    lo = maximin(p, (1, 2), opts)
    assert (lo.status, len(lo.trace), lo.iterations) == (CONVERGED, 10, 9)
    assert [e["stage"] for e in lo.trace].count("ascent") == 1


@pytest.mark.parametrize("solve", (solve_equioscillation, minimax, maximin),
                         ids=lambda f: f.__name__)
def test_unknown_start_string_is_refused(solve):
    with pytest.raises(ValidationError) as exc:
        solve(unit_problem(3), (1, 2), SolveOptions(start="banana"))
    assert str(exc.value) == "unknown start 'banana'"


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
