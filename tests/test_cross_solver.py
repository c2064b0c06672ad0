"""Invariants that tie the three solvers of one ordering cell together.

A failure names a solver that reports what the others refute: a
`converged` maximin below a point the equioscillation solve already held
or with arc maxima that are not level, or singular kernels whose minimax,
maximin and equioscillation values come apart.
"""
import itertools
import math

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from equisum.evaluator import Problem
from equisum.kernels import kernel_sum, log_sine, parabola, riesz, tent, weighted
from equisum.solver import (CONVERGED, MAX_ITER, SolveOptions, maximin, minimax,
                            solve_equioscillation)
from equisum.torus import Permutation

# in each of its six cells the equioscillation solve ends max_iter at
# m_under 13.63449, far above where an ascent from the equidistant start stops
TENTS = (0.171, 0.677, 0.158, 4.34)
# the README Example; its identity cell's ascent stops at an LP-stationary
# point with spread 4.5e-10, which the polish levels
EXAMPLE = (tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1))

_BASES = {"tent": tent(), "parabola": parabola(), "log_sine": log_sine(), "riesz": riesz(2.0)}


@st.composite
def _cell(draw, families, weights):
    """(problem, sigma): n = 1..3, each kernel a family of `families` with a
    weight drawn from `weights`."""
    n = draw(st.integers(1, 3))
    kernels = tuple(weighted(_BASES[draw(st.sampled_from(families))], draw(weights))
                    for _ in range(n + 1))
    sigma = draw(st.permutations(range(1, n + 1)))
    return Problem(kernels), Permutation(tuple(sigma))


@settings(max_examples=30, deadline=None, database=None)
@seed(20261020)
@given(case=_cell(sorted(_BASES), st.floats(0.1, 5.0)))
@example(case=(Problem(tuple(weighted(tent(), w) for w in TENTS)), Permutation((3, 2, 1))))
def test_converged_maximin_is_not_below_the_equioscillation_iterate(case):
    """maximin's ascent only rises from the higher of the failed solve's
    last iterate and the configured start, so a `converged` maximin is at
    least the m_under of solve_equioscillation's final profile."""
    p, sig = case
    with np.errstate(all="ignore"):
        equi = solve_equioscillation(p, sig)
        rep = maximin(p, sig)
    if rep.status == CONVERGED:
        assert rep.objective >= equi.profile.m_under
    ascent = [e for e in rep.trace if e["stage"] == "ascent"]
    assert ascent[0]["m_under"] >= equi.profile.m_under


@settings(max_examples=30, deadline=None, database=None)
@seed(20261020)
@given(case=_cell(sorted(_BASES), st.floats(0.1, 5.0)))
@example(case=(Problem(EXAMPLE), Permutation((1, 2, 3))))
def test_converged_maximin_is_settled(case):
    """`converged` means the arc maxima agree, for maximin as for the
    equioscillation solve: spread m_bar - m_under <= 2 tol_residual."""
    p, sig = case
    with np.errstate(all="ignore"):
        rep = maximin(p, sig)
    if rep.status == CONVERGED:
        assert rep.profile.m_bar - rep.profile.m_under <= 2.0 * SolveOptions().tol_residual


def test_weighted_tents_report_max_iter_at_the_iterate_level():
    """Every cell of the weighted tents: the solve stalls at 13.63449, and
    maximin reports max_iter at or above it, not converged near 8."""
    p = Problem(tuple(weighted(tent(), w) for w in TENTS))
    for sigma in itertools.permutations((1, 2, 3)):
        rep = maximin(p, Permutation(sigma))
        assert rep.status == MAX_ITER
        assert rep.objective >= 13.6344


def _singular_kernel(family, w):
    if family == "log_sine":
        return weighted(log_sine(), w)
    return kernel_sum(weighted(log_sine(), w), riesz(0.5 if family == "riesz_half" else 2.0))


@st.composite
def _singular_cell(draw):
    """Every kernel cond_inf: weighted log-sines, some summed with a riesz
    kernel of p = 0.5 or 2."""
    n = draw(st.integers(1, 3))
    kernels = tuple(_singular_kernel(draw(st.sampled_from(("log_sine", "riesz_half", "riesz_two"))),
                                     draw(st.floats(0.5, 2.0)))
                    for _ in range(n + 1))
    sigma = draw(st.permutations(range(1, n + 1)))
    return Problem(kernels), Permutation(tuple(sigma))


@settings(max_examples=30, deadline=None, database=None)
@seed(20261020)
@given(case=_singular_cell())
def test_singular_kernels_make_the_three_values_agree(case):
    """Where every kernel is singular at its node (cond_inf), the
    equioscillation point is the cell's minimax and maximin point, so the
    three solvers report one value."""
    p, sig = case
    assert all(c.cond_inf for c in p.classifications())
    reps = [solve(p, sig) for solve in (solve_equioscillation, minimax, maximin)]
    assert [r.status for r in reps] == [CONVERGED] * 3
    values = [r.objective for r in reps]
    assert max(values) - min(values) <= 1e-9, values
    assert all(math.isfinite(v) for v in values)
