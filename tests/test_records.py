"""A result record's JSON form is its fields, in declaration order."""
import dataclasses
import json
import math

import pytest

from equisum import cli
from equisum.evaluator import Problem, jacobian_delta, profile
from equisum.extremal import BojanovProblem, GtpProblem, solve_bojanov, solve_gtp
from equisum.kernels import log_sine
from equisum.oracle import check_mmatrix, check_sandwich, convergence_probe, grid_minimax
from equisum.torus import Permutation, Record

PI = math.pi
LOGSINE_3 = Problem((log_sine(), log_sine(), log_sine()))
EQ_2 = (2 * PI / 3, 4 * PI / 3)
NAMES = ("GridMinimax", "SandwichReport", "MMatrixReport", "ProbeRow", "ProbeTable",
         "GtpResult", "DoubledResult", "ExtremalPolynomial")


@pytest.fixture(scope="module")
def records():
    """One record of each kind, each from a real call."""
    poly = solve_bojanov(BojanovProblem(-1.0, 2.0, (1.0, 2.0)))
    tab = convergence_probe(LOGSINE_3, EQ_2, levels=(4, 16))
    prof = profile(LOGSINE_3, EQ_2, Permutation((1, 2)))
    return {
        "GridMinimax": grid_minimax(LOGSINE_3, (1, 2), node_resolution=12),
        "SandwichReport": check_sandwich(LOGSINE_3, (1, 2), m_estimate=-2 * math.log(2.0),
                                         samples=3),
        "MMatrixReport": check_mmatrix(jacobian_delta(LOGSINE_3, prof)),
        "ProbeRow": tab.rows[0],
        "ProbeTable": tab,
        "GtpResult": solve_gtp(GtpProblem((1.0, 2.0, 1.0))),
        "DoubledResult": poly.doubled,
        "ExtremalPolynomial": poly,
    }


@pytest.mark.parametrize("name", NAMES)
def test_record_keys_are_its_fields_in_order(records, name):
    r = records[name]
    assert type(r).__name__ == name and isinstance(r, Record)
    assert "to_dict" not in vars(type(r))  # the one rule, not a copy of it
    d = r.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(r)]
    json.dumps(cli._jsonify(d))


def test_nested_records_serialize_by_their_own_rule(records):
    poly = records["ExtremalPolynomial"]
    assert poly.to_dict()["doubled"] == poly.doubled.to_dict()
    tab = records["ProbeTable"]
    assert tab.to_dict()["rows"] == [row.to_dict() for row in tab.rows]
    gm = records["GridMinimax"]
    assert gm.to_dict()["nodes"] == list(gm.nodes.values)
