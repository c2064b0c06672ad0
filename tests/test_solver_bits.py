"""Golden bits of the solver paths that profile many node systems at once.

The Newton and maximin line searches, the minimax axis probes and the
coarse-grid start each hand their node systems to profile() as one batch.
tests/data/solver_bits.json was recorded from the same calls made when each
of those systems was profiled alone, one profile() call per system.  Every
case below must reproduce it exactly: statuses, traces, residuals, nodes,
profiles and certificates, compared as JSON text (floats as repr, which
round-trips every bit).  Regenerate the file only for a change that means to
move the results, and say so where the change is recorded.
"""
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from equisum.evaluator import Problem, profile
from equisum.kernels import log_sine, parabola, riesz, table, tent, weighted
from equisum.solver import (
    MIN_STEP,
    SolveOptions,
    _coarse_grid_start,
    _line_search,
    _newton_stage,
    _probe_failures,
    _project_cell,
    equidistant_nodes,
    maximin,
    minimax,
    solve_equioscillation,
)
from equisum.torus import TWO_PI, Permutation

BITS = Path(__file__).parent / "data" / "solver_bits.json"
PI = math.pi

EXAMPLE = Problem((tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1)))
TENTS = Problem((weighted(parabola(), 0.11), tent(), tent()))
LOG_SINES = Problem((log_sine(), weighted(log_sine(), 1.6), riesz(1.5), weighted(log_sine(), 0.7)))
TABLE_TENT = Problem((table([0, 1.5577036703507876, 4.9750406710964645, TWO_PI],
                            [0, 2.6922960206142297, 3.30089515788466, 0]),
                      weighted(tent(), 2.1011967870864185)))


def _hex(values):
    return [float(v).hex() for v in values]


def _stage(p, sigma, y):
    y, status, trace, prof = _newton_stage(p, Permutation(sigma), np.asarray(y), SolveOptions(),
                                           "direct")
    return {"y": _hex(y), "status": status, "trace": trace, "profile": prof.to_dict()}


def _probes(p, sigma, y):
    """Every probe's m_bar: against an infinite base m_bar each probe fails."""
    prof = SimpleNamespace(m_bar=math.inf, sigma=Permutation(sigma),
                           positions=np.concatenate(([0.0], y)))
    return _probe_failures(p, SimpleNamespace(profile=prof))


# the first search accepts alpha = 1, the second 1/16, the third stalls
def _example_123_direct_stall():
    sig = Permutation((1, 2, 3))
    return _stage(EXAMPLE, sig.sigma, equidistant_nodes(3, sig).array)


# the first search accepts alpha = 1/8, every later one alpha = 1
def _example_perturbed_backtrack():
    return _stage(EXAMPLE, (2, 1, 3), (3.155981, 1.570798, 4.715628))


# the ladder's searches accept alpha = 1/256 (rung 64) and 1/1024 (rung 256)
# several times
def _table_ladder_backtracks():
    return solve_equioscillation(TABLE_TENT, Permutation((1,))).to_dict()


def _example_probe_certificate():
    rep = minimax(EXAMPLE, Permutation((2, 1, 3)))
    return {"probes": _probes(EXAMPLE, (2, 1, 3), (PI, PI / 2, 3 * PI / 2)),
            "minimax": rep.to_dict()}


def _coarse_grid_n3():
    sig = Permutation((2, 3, 1))
    opts = SolveOptions(start="coarse_grid")
    return {"start": _hex(_coarse_grid_start(LOG_SINES, sig, opts)),
            "solve": solve_equioscillation(LOG_SINES, sig, opts).to_dict()}


# the direct solve fails in two iterations, so the ascent starts at `start`;
# its one line search accepts alpha = 1/4
def _maximin_ascent_backtrack():
    opts = SolveOptions(max_iter=2, homotopy_levels=(), secant_sweeps=0, start=(4.0, 1.0))
    return maximin(TENTS, Permutation((2, 1)), opts).to_dict()


# the ascent's fifth search accepts alpha / 2, its sixth runs every halving
# down to the floor and stops
def _maximin_ascent_stall():
    opts = SolveOptions(max_iter=10, homotopy_levels=(), secant_sweeps=0, start=(3.5, 0.3, 6.0))
    return maximin(EXAMPLE, Permutation((2, 1, 3)), opts).to_dict()


CASES = {
    "example_123_direct_stall": _example_123_direct_stall,
    "example_perturbed_backtrack": _example_perturbed_backtrack,
    "example_probe_certificate": _example_probe_certificate,
    "table_ladder_backtracks": _table_ladder_backtracks,
    "coarse_grid_n3": _coarse_grid_n3,
    "maximin_ascent_backtrack": _maximin_ascent_backtrack,
    "maximin_ascent_stall": _maximin_ascent_stall,
}


def observe():
    """Every case's result, as recorded in BITS."""
    return {name: case() for name, case in CASES.items()}


def test_cases_match_recorded_set():
    assert sorted(CASES) == sorted(json.loads(BITS.read_text()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_bits_unchanged(name):
    want = json.loads(BITS.read_text())[name]
    assert json.dumps(CASES[name](), sort_keys=True) == json.dumps(want, sort_keys=True)


def test_line_search_yields_every_halving_in_order():
    """The batches of a line search hand out alpha, alpha/2, ... down to the
    floor, each once and in order, with the profile of its own trial point."""
    sig = Permutation((1, 2, 3))
    y = equidistant_nodes(3, sig).array
    step = np.array([0.4, -0.3, 0.2])
    got = list(_line_search(EXAMPLE, sig, y, step, 1e-3, 1.0, MIN_STEP))
    assert [alpha for alpha, _, _ in got] == [2.0 ** -k for k in range(31)]
    for alpha, y_try, prof in got:
        assert y_try.tolist() == _project_cell(y + alpha * step, sig, 1e-3).tolist()
        want = profile(EXAMPLE, y_try, sig)
        assert _hex(prof.z_trav) == _hex(want.z_trav) and _hex(prof.m_trav) == _hex(want.m_trav)
