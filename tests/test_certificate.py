"""The minimax certificate: Gordan's alternative on the arc-maxima Jacobian
for C1 problems, the axis probes everywhere else, and maximin's certified
start."""
import numpy as np
import pytest

import equisum.solver as solver
from equisum.evaluator import Problem
from equisum.extremal import BojanovProblem, solve_bojanov
from equisum.kernels import log_sine, parabola, riesz, tent, weighted
from equisum.oracle import grid_profile
from equisum.solver import (
    CONVERGED,
    _gordan,
    _probe_failures,
    maximin,
    minimax,
    solve_equioscillation,
)
from equisum.torus import Permutation

PATTERN = (1.3, 0.8, 1.1, 0.7, 1.5)
EXAMPLE = Problem((tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1)))


def _c1_corpus(count, seed=11):
    """(problem, cell): weighted log-sine, riesz (p <= 4) and parabola kernels,
    n = 1..4, random cells."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        ks = []
        for _ in range(n + 1):
            family = int(rng.integers(3))
            base = (log_sine(), riesz(float(rng.uniform(0.2, 4.0))), parabola())[family]
            ks.append(weighted(base, float(np.exp(rng.uniform(-1.5, 1.5)))))
        yield Problem(tuple(ks)), Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))


def _log_sine_39():
    return Problem(tuple(weighted(log_sine(), PATTERN[j % 5]) for j in range(40)))


def _unit_report():
    p = Problem((log_sine(),) * 3)
    sig = Permutation((1, 2))
    rep = solve_equioscillation(p, sig)
    assert rep.status == CONVERGED
    return p, sig, rep


def _count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(solver, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def test_gordan_verdict_equals_probe_verdict_on_c1_corpus():
    for p, sig in _c1_corpus(24):
        rep = solve_equioscillation(p, sig)
        assert rep.status == CONVERGED
        verdict = _gordan(p, rep)
        assert verdict is not None
        assert (verdict == []) == (_probe_failures(p, rep) == [])


def test_gordan_refuses_mixed_sign_null_vector(monkeypatch):
    """Left null vector (1, 1, -1): some direction lowers every arc maximum."""
    p, sig, rep = _unit_report()
    Jm = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    monkeypatch.setattr(solver, "jacobian_m", lambda *args, **kwargs: Jm)
    (failure,) = _gordan(p, rep)
    a = np.asarray(failure["direction"])
    assert np.max(np.abs(a)) == 1.0
    assert np.all(Jm @ a < 0.0)
    assert failure["rates"] == [float(v) for v in Jm @ a]
    # a refusal sends minimax into its multistart, as a failed probe does
    restarts = _count_calls(monkeypatch, "solve_equioscillation")
    mm = minimax(p, sig)
    assert restarts[0] == 1 + solver.MULTISTART
    assert mm.flags["certificate"] == "gordan"
    assert not mm.flags["local_min_certified"]
    assert mm.flags["certificate_failures"] == [failure]


def test_natural_c1_refusal_lowers_every_arc_maximum():
    """A C1 equioscillation point that is no local minimum of m_bar, found by
    a random search: the direction of the refusal lowers every arc maximum
    at its first-order rate, by the grid oracle.  No single-node probe
    lowers m_bar, so the probes alone certified this point."""
    p = Problem((weighted(parabola(), 0.1), weighted(log_sine(), 0.01),
                 weighted(parabola(), 0.002), weighted(riesz(3.0), 3.0)))
    sig = Permutation.identity(3)
    rep = solve_equioscillation(p, sig)
    assert rep.status == CONVERGED
    (failure,) = _gordan(p, rep)
    assert _probe_failures(p, rep) == []
    h, y = 1e-4, rep.nodes.array
    labels, _, m0 = grid_profile(p, y, sig)
    _, _, m1 = grid_profile(p, y + h * np.asarray(failure["direction"]), sig)
    rates = np.asarray(failure["rates"])[list(labels)]
    assert np.all(rates < 0.0)
    assert np.allclose(m1 - m0, h * rates, rtol=1e-2)


@pytest.mark.parametrize("Jm", [
    np.outer([1.0, 2.0, -3.0], [1.0, 1.0]),
    np.zeros((3, 2)),
    # rank 2, left null vector (1, 1, 0): one entry has no sign
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
], ids=["rank1", "zero", "unsigned"])
def test_no_verdict_falls_back_to_probes(monkeypatch, Jm):
    p, sig, rep = _unit_report()
    monkeypatch.setattr(solver, "jacobian_m", lambda *args, **kwargs: Jm)
    assert _gordan(p, rep) is None
    # the probed node systems, one row each, reach _mbar_closure in one batch
    probed = []
    original = solver._mbar_closure
    monkeypatch.setattr(solver, "_mbar_closure",
                        lambda p, sig, ys: probed.extend(ys) or original(p, sig, ys))
    mm = minimax(p, sig)
    assert len(probed) == 2 * p.n
    assert mm.flags["certificate"] == "probes"
    assert mm.flags["local_min_certified"]


def test_kinks_and_unconverged_reports_get_no_verdict():
    sig = Permutation((2, 1, 3))
    assert _gordan(EXAMPLE, solve_equioscillation(EXAMPLE, sig)) is None
    p, sig, rep = _unit_report()
    rep.status = solver.MAX_ITER
    assert _gordan(p, rep) is None


def test_minimax_n39_makes_no_profile_beyond_its_solve(monkeypatch):
    p, sig = _log_sine_39(), Permutation.identity(39)
    profiles = _count_calls(monkeypatch, "profile")
    solve_equioscillation(p, sig)
    solve_only = profiles[0]
    rep = minimax(p, sig)
    assert profiles[0] == 2 * solve_only
    assert rep.flags["certificate"] == "gordan"
    assert rep.flags["local_min_certified"]


def test_bojanov_n20_makes_at_most_ten_profiles(monkeypatch):
    profiles = _count_calls(monkeypatch, "profile")
    poly = solve_bojanov(BojanovProblem(-1.0, 1.0, tuple(PATTERN[j % 5] for j in range(20))))
    assert poly.flags["converged"]
    assert profiles[0] <= 10


def test_minimax_same_seed_same_report():
    p, sig = next(_c1_corpus(1, seed=3))
    assert minimax(p, sig).to_dict() == minimax(p, sig).to_dict()


def test_maximin_certified_start_skips_the_lp(monkeypatch):
    """The certified start converges with no LP, at the same bits as the LP."""
    p = Problem(tuple(weighted(log_sine(), w) for w in PATTERN[:4]))
    sig = Permutation((2, 3, 1))
    lps = _count_calls(monkeypatch, "_steepest_lp")
    rep = maximin(p, sig)
    assert lps[0] == 0
    assert rep.trace[-1] == {"stage": "ascent", "iter": 0, "m_under": rep.objective,
                             "spread": rep.profile.m_bar - rep.profile.m_under,
                             "note": "gordan certificate"}
    monkeypatch.setattr(solver, "_gordan", lambda *args: None)
    ref = maximin(p, sig)
    assert lps[0] == 1
    assert (rep.status, rep.objective, rep.residual) == (ref.status, ref.objective, ref.residual)
    assert rep.nodes.values == ref.nodes.values
    assert rep.profile.to_dict() == ref.profile.to_dict()


def test_maximin_kinked_start_keeps_the_lp(monkeypatch):
    lps = _count_calls(monkeypatch, "_steepest_lp")
    rep = maximin(EXAMPLE, Permutation((3, 1, 2)))
    assert lps[0] >= 1
    assert all("note" not in e for e in rep.trace if e["stage"] == "ascent")
