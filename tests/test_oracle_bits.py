"""Golden bits of the brute-force oracles on fixed problems.

tests/data/oracle_bits.json holds float.hex of what grid_sup, grid_profile,
grid_minimax, check_sandwich and convergence_probe return for each case
below.  The oracles must reproduce them exactly, so a change to how their
grids and zoom levels are batched cannot shift a bit unnoticed.
Regenerate the file only for a change that means to move the results, and
say so where the change is recorded.  The bits were recorded with numpy 2.4
on x86-64; a numpy build whose sin, tan or log round differently needs its
own recording, made from the unchanged code.
"""
import json
import math
from pathlib import Path

import pytest

from equisum.evaluator import Problem
from equisum.kernels import log_sine, parabola, riesz, tent, weighted
from equisum.oracle import (
    check_sandwich,
    convergence_probe,
    grid_minimax,
    grid_profile,
    grid_sup,
)
from equisum.torus import Permutation

PI = math.pi
SQRT2 = math.sqrt(2.0)
BITS = Path(__file__).parent / "data" / "oracle_bits.json"

EX_P = Problem((tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1)))
E_POINT = (PI, PI / 2, 3 * PI / 2)
E_SIGMA = Permutation((2, 1, 3))
STEP2_POINT = (PI + (3 - 2 * SQRT2) * 0.1 * PI**2, (2 * SQRT2 - 2) * PI, 0.0)
STEP2_SUP = PI + 0.1 * PI**2 * (6 * SQRT2 - 7)


def _log_sines(n, weights=False):
    return Problem(tuple(weighted(log_sine(), 1.0 + 0.37 * math.sin(j)) if weights
                         else log_sine() for j in range(n + 1)))


def _equidistant(n):
    return [2 * PI * k / (n + 1) for k in range(1, n + 1)]


def _hex(values):
    return [float(v).hex() for v in values]


def _sup(p, y, resolution):
    return lambda: {"refined": grid_sup(p, y, resolution).hex()}


def _profile(p, y, sigma, resolution=512):
    def run():
        labels, z, m = grid_profile(p, y, sigma, resolution)
        return {"labels": list(labels), "z": _hex(z), "m": _hex(m)}
    return run


def _minimax(p, sigma, node_resolution):
    def run():
        gm = grid_minimax(p, sigma, node_resolution=node_resolution)
        return {"value": gm.value.hex(), "nodes": _hex(gm.nodes.values),
                "coarse_value": gm.coarse_value.hex(),
                "coarse_nodes": _hex(gm.coarse_nodes.values),
                "tolerance": gm.tolerance.hex()}
    return run


def _sandwich():
    rep = check_sandwich(EX_P, E_SIGMA, m_estimate=STEP2_SUP, samples=10,
                         include=[E_POINT])
    return {"violations": [[v["point"], v["kind"], v["margin"].hex(), _hex(v["nodes"])]
                           for v in rep.violations]}


def _probe(p, y):
    return lambda: {"deviations": _hex(convergence_probe(p, y).deviations())}


MIXED = Problem((log_sine(), riesz(2.0), weighted(parabola(), 0.3), tent()))

CASES = {
    "sup_example_equioscillation": _sup(EX_P, E_POINT, 4096),
    "sup_example_boundary": _sup(EX_P, STEP2_POINT, 4096),
    **{f"sup_log_sine_n{n}": _sup(_log_sines(n), _equidistant(n), 8192) for n in (2, 3, 4)},
    "sup_weighted_log_sine_n3": _sup(_log_sines(3, True), (0.9, 2.6, 4.4), 4096),
    "profile_example_equioscillation": _profile(EX_P, E_POINT, E_SIGMA),
    "profile_example_generic": _profile(EX_P, (2.3, 1.1, 4.9), E_SIGMA, 2048),
    "profile_log_sine_n2": _profile(_log_sines(2), _equidistant(2), (1, 2)),
    "profile_mixed": _profile(MIXED, (4.1, 0.8, 2.2), (2, 3, 1)),
    "minimax_n1": _minimax(Problem((weighted(log_sine(), 1.3), tent())), (1,), 24),
    "minimax_n2": _minimax(Problem((tent(), weighted(parabola(), 0.2), log_sine())),
                           (2, 1), 16),
    "minimax_log_sine_n2": _minimax(_log_sines(2, True), (1, 2), 20),
    "sandwich_example_witness": _sandwich,
    "probe_example": _probe(EX_P, E_POINT),
    "probe_tents": _probe(Problem((tent(), tent(), tent())), (PI / 2, PI)),
}


def test_cases_match_recorded_set():
    assert sorted(CASES) == sorted(json.loads(BITS.read_text()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_bits_unchanged(name):
    assert CASES[name]() == json.loads(BITS.read_text())[name]


if __name__ == "__main__":
    # python tests/test_oracle_bits.py > tests/data/oracle_bits.json
    print("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(run())}"
                              for name, run in sorted(CASES.items())) + "\n}")
