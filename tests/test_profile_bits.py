"""Golden bits of profile() and of the profile Jacobians on fixed problems.

tests/data/profile_bits.json holds float.hex of z_trav and m_trav for each
case below.  The hot path of profile() must reproduce them exactly, so a
change to how slopes are grouped, summed or bisected cannot shift a bit
unnoticed.  tests/data/jacobian_bits.json holds, for the same cases and one
whose nodes are given unreduced, the bits of jacobian_delta(relaxed=True)
and of jacobian_m: strict where every kernel is C1 and no maximizer sits on
an arc boundary, relaxed otherwise.  Regenerate the file only for a change that means to move the
results, and say so where the change is recorded.  The bits were recorded
with numpy 2.4 on x86-64; a numpy build whose sin, tan or log round
differently needs its own recording, made from the unchanged code.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from equisum.evaluator import Problem, jacobian_delta, jacobian_m, profile
from equisum.kernels import approximant, log_sine, parabola, riesz, table, tent, weighted
from equisum.torus import TWO_PI, Permutation

PI = math.pi
BITS = Path(__file__).parent / "data" / "profile_bits.json"
JACOBIAN_BITS = Path(__file__).parent / "data" / "jacobian_bits.json"

EXAMPLE = (tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1))


def _spread(n, sigma=None):
    """Unequally spaced nodes in the cell of sigma (identity by default)."""
    sig = Permutation(sigma or tuple(range(1, n + 1)))
    k = np.arange(1, n + 1)
    return sig.nodes(TWO_PI * (k + 0.31 * np.sin(1.7 * k)) / (n + 1)), sig


def _log_sines(n):
    return tuple(weighted(log_sine(), 1.0 + 0.37 * math.sin(j)) for j in range(n + 1))


def _case(kernels, y, sig):
    return Problem(tuple(kernels)), y, sig


def _cases():
    out = {}
    for n in (2, 3, 10, 39):
        out[f"log_sine_n{n}"] = _case(_log_sines(n), *_spread(n))
    out["mixed"] = _case((log_sine(), riesz(2.0), weighted(parabola(), 0.3), riesz(1.5)),
                         *_spread(3, (2, 3, 1)))
    out["riesz_p"] = _case((riesz(1.0), riesz(3.0), weighted(riesz(1.0), 2.0)),
                           *_spread(2, (2, 1)))
    out["example_213"] = _case(EXAMPLE, *_spread(3, (2, 1, 3)))
    out["example_123"] = _case(EXAMPLE, *_spread(3, (1, 2, 3)))
    out["example_equioscillation"] = _case(EXAMPLE, (PI, PI / 2, 3 * PI / 2),
                                           Permutation((2, 1, 3)))
    for kind in ("bump", "sqrt_cusp"):
        out[f"example_{kind}"] = _case(tuple(approximant(k, 16, kind) for k in EXAMPLE),
                                       *_spread(3, (2, 1, 3)))
    tab = table([0.0, 1.0, PI, 5.0, TWO_PI], [0.0, 1.0, PI, 5.0 - 2 * (5.0 - PI), 0.0])
    out["table_tent"] = _case((tab, weighted(tab, 0.5), tent()), *_spread(2))
    # the maximum sits on a kink at the first bisection midpoint of its arc,
    # where the left and right slopes of F have opposite signs
    kink = table([0.0, 1.0, TWO_PI], [0.0, 1.0, 0.0])
    out["table_kink_at_midpoint"] = _case((kink, kink), np.array([2.0]), Permutation((1,)))
    y, sig = _spread(3)
    y[1] = y[0] + 3e-11  # two nodes nearly collapsed
    out["log_sine_collapsed_pair"] = _case(_log_sines(3), y, sig)
    out["parabola_at_fixed_node"] = _case(
        (parabola(), weighted(parabola(), 2.0), parabola()), np.array([2e-12, 2.5]),
        Permutation((1, 2)))
    return out


CASES = _cases()


def _hex(arr):
    return [float(v).hex() for v in arr]


def test_cases_match_recorded_set():
    assert sorted(CASES) == sorted(json.loads(BITS.read_text()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_bits_unchanged(name):
    p, y, sig = CASES[name]
    prof = profile(p, y, sig)
    want = json.loads(BITS.read_text())[name]
    assert _hex(prof.z_trav) == want["z"]
    assert _hex(prof.m_trav) == want["m"]


def _jacobian_cases():
    out = dict(CASES)
    p, y, sig = CASES["log_sine_n3"]
    # the node positions come from profile()'s reduction of these angles
    out["log_sine_n3_unreduced"] = (p, y - TWO_PI, sig)
    return out


JACOBIAN_CASES = _jacobian_cases()


def test_jacobian_cases_match_recorded_set():
    assert sorted(JACOBIAN_CASES) == sorted(json.loads(JACOBIAN_BITS.read_text()))


@pytest.mark.parametrize("name", sorted(JACOBIAN_CASES))
def test_jacobian_bits_unchanged(name):
    p, y, sig = JACOBIAN_CASES[name]
    prof = profile(p, y, sig)
    want = json.loads(JACOBIAN_BITS.read_text())[name]
    relaxed = not p.all_c1 or bool(np.any(prof.z_on_boundary_trav))
    assert relaxed == want["m_relaxed"]
    assert [_hex(row) for row in jacobian_m(p, prof, relaxed=relaxed)] == want["jacobian_m"]
    assert [_hex(row) for row in jacobian_delta(p, prof, relaxed=True)] == want["jacobian_delta"]
