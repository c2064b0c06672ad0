import io
import json
import math
import os
import runpy
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import equisum
from equisum import cli, solver
from equisum.cli import run

PI = math.pi
E_VALUE = PI + 0.15 * PI**2

EX_CONFIG = {
    "kernels": [
        {"family": "tent"},
        {"family": "tent"},
        {"family": "weighted", "weight": 0.1, "base": {"family": "parabola"}},
        {"family": "weighted", "weight": 0.1, "base": {"family": "parabola"}},
    ],
    "nodes": [PI, PI / 2, 3 * PI / 2],
}

LOGSINE_CONFIG = {
    "kernels": [{"family": "log_sine"}, {"family": "log_sine"}, {"family": "log_sine"}],
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_json(capsys, argv):
    code = run(argv + ["--no-timestamp"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "equisum" in capsys.readouterr().out


def test_run_reuses_one_parser(capsys):
    """run() parses with one parser built per process; build_parser() still
    returns a fresh one, and both give the same namespaces and usage errors."""
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    argv = ["minimax", "--sigma", "2,1", "--all-sigma", "--tol", "1e-9", "--no-timestamp"]
    assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    errors = []
    for parse in (run, run, cli.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(["bogus"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert errors[0].startswith("usage: equisum")


def test_eval_at_known_point(tmp_path, capsys):
    cfg = dict(EX_CONFIG, t=0.0)
    code, doc = run_json(capsys, ["eval", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert doc["schema"] == 1 and doc["command"] == "eval"
    assert "timestamp" not in doc
    assert math.isclose(doc["result"]["F"][0], E_VALUE, abs_tol=1e-12)


def test_profile_reports_equioscillation(tmp_path, capsys):
    code, doc = run_json(capsys, ["profile", "--config", write_config(tmp_path, EX_CONFIG)])
    assert code == 0
    res = doc["result"]
    assert res["sigma"] == [2, 1, 3]  # located automatically
    assert math.isclose(res["m_bar"], E_VALUE, abs_tol=1e-9)
    assert math.isclose(res["m_under"], E_VALUE, abs_tol=1e-9)
    assert all(abs(d) <= 1e-9 for d in res["delta"])


def test_profile_writes_non_finite_values_as_strings(tmp_path, capsys):
    # y_1 on the fixed node: arc 0 is degenerate and its log-sine maximum -inf
    cfg = dict(LOGSINE_CONFIG, nodes=[0.0, 3.0], sigma=[1, 2])
    code, doc = run_json(capsys, ["profile", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    res = doc["result"]
    assert res["profile"]["m"][0] == "-inf"
    assert res["delta"][0] == "inf"
    assert all(isinstance(v, float) for v in res["profile"]["m"][1:] + res["delta"][1:])


def test_equioscillate_converges(tmp_path, capsys):
    cfg = {"kernels": EX_CONFIG["kernels"], "sigma": [2, 1, 3]}
    code, doc = run_json(capsys, ["equioscillate", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    res = doc["result"]
    assert res["status"] == "converged"
    assert math.isclose(res["objective"], E_VALUE, abs_tol=1e-9)


def test_solver_options_reach_the_report(tmp_path, capsys, monkeypatch):
    """--tol, --max-iter and --seed, and the config's start list, all reach
    the solve; a one-rung ladder and a 3-sweep polish keep the trace short."""
    monkeypatch.setattr(solver, "HOMOTOPY_LEVELS", (4,))
    monkeypatch.setattr(solver, "SECANT_SWEEPS", 3)
    options = {"start": [2.5, 1.0, 4.5]}
    cfg = {"kernels": EX_CONFIG["kernels"], "sigma": [2, 1, 3], "options": options}
    code, doc = run_json(capsys, ["equioscillate", "--config", write_config(tmp_path, cfg),
                                  "--tol", "1e-9", "--max-iter", "3", "--seed", "7"])
    assert code == 0
    res = doc["result"]
    assert doc["seed"] == res["seed"] == 7
    assert res["status"] == "converged" and res["residual"] <= 1e-9
    stages = [e["stage"] for e in res["trace"]]
    assert set(stages) == {"direct", "level:4", "secant"}
    # max_iter 3: three steps and the cap entry per Newton stage
    assert stages.count("direct") == 4 and stages.count("level:4") <= 4
    assert stages.count("secant") <= 3


@pytest.mark.parametrize("cfg, seed", [
    ({"seed": 7}, 7),
    ({"options": {"seed": 3}}, 3),
    ({"seed": 7, "options": {"seed": 3}}, 3),
], ids=["top_level", "options", "options_over_top_level"])
def test_report_names_the_seed_its_solve_used(tmp_path, capsys, cfg, seed):
    """--seed, else options.seed, else the config's seed: the document's seed
    is the one the solve drew from."""
    code, doc = run_json(capsys, ["minimax", "--config",
                                  write_config(tmp_path, dict(LOGSINE_CONFIG, **cfg))])
    assert code == 0
    assert doc["seed"] == doc["result"]["seed"] == seed


def test_sandwich_draws_from_the_options_seed(tmp_path, capsys):
    cfg = dict(LOGSINE_CONFIG, m_estimate=-2 * math.log(2.0), samples=2, seed=7,
               options={"seed": 3})
    code, doc = run_json(capsys, ["verify", "--config", write_config(tmp_path, cfg),
                                  "--check", "sandwich", "--sigma", "1,2"])
    assert code == 0
    assert doc["seed"] == doc["result"]["seed"] == 3


def test_minimax_and_maximin_agree_for_smooth_kernels(tmp_path, capsys):
    path = write_config(tmp_path, LOGSINE_CONFIG)
    code1, doc1 = run_json(capsys, ["minimax", "--config", path])
    code2, doc2 = run_json(capsys, ["maximin", "--config", path])
    assert code1 == 0 and code2 == 0
    target = -2 * math.log(2.0)
    assert math.isclose(doc1["result"]["objective"], target, abs_tol=1e-8)
    assert math.isclose(doc2["result"]["objective"], target, abs_tol=1e-8)
    assert doc1["result"]["flags"]["local_min_certified"]


def test_minimax_reports_precondition_flag(tmp_path, capsys):
    # kink kernels: the uniqueness hypotheses fail but the local probe
    # certificate legitimately passes (m_bar does not drop near the point)
    cfg = {"kernels": EX_CONFIG["kernels"], "sigma": [2, 1, 3]}
    code, doc = run_json(capsys, ["minimax", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert not doc["result"]["flags"]["preconditions_met"]
    assert doc["result"]["flags"]["local_min_certified"]


def test_minimax_refused_by_gordan_exits_two(tmp_path, capsys):
    """A converged C1 minimax that Gordan's test refuses (the natural refusal
    of tests/test_certificate.py) is finished but flagged: exit 2."""
    def weighted(base, w):
        return {"family": "weighted", "weight": w, "base": base}
    par = {"family": "parabola"}
    cfg = {"kernels": [weighted(par, 0.1), weighted({"family": "log_sine"}, 0.01),
                       weighted(par, 0.002), weighted({"family": "riesz", "p": 3.0}, 3.0)],
           "sigma": [1, 2, 3]}
    code, doc = run_json(capsys, ["minimax", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    res = doc["result"]
    assert res["status"] == "converged"
    assert res["flags"]["certificate"] == "gordan"
    assert not res["flags"]["local_min_certified"]


def test_verify_mmatrix_flags_kink_point(tmp_path, capsys):
    # relaxed difference Jacobian at the kink equioscillation point does not
    # have the M-matrix sign structure; the run finishes but is flagged
    code, doc = run_json(capsys, ["verify", "--config", write_config(tmp_path, EX_CONFIG),
                                  "--check", "mmatrix"])
    assert code == 2
    assert not doc["result"]["ok"]


def test_minimax_all_sigma(tmp_path, capsys):
    code, doc = run_json(capsys, ["minimax", "--config", write_config(tmp_path, LOGSINE_CONFIG),
                                  "--all-sigma"])
    assert code == 0
    res = doc["result"]
    assert len(res["per_sigma"]) == 2
    assert res["best_sigma"] in ([1, 2], [2, 1])
    assert math.isclose(res["objective"], -2 * math.log(2.0), abs_tol=1e-8)


def test_minimax_all_sigma_flags_an_uncertified_best(tmp_path, capsys, monkeypatch):
    """A failed certificate of the sweep's best cell exits 2, as for one cell."""
    sweep = cli.minimax_global

    def uncertified(*args, **kwargs):
        glob = sweep(*args, **kwargs)
        glob.best.flags["local_min_certified"] = False
        return glob

    monkeypatch.setattr(cli, "minimax_global", uncertified)
    code, doc = run_json(capsys, ["minimax", "--config", write_config(tmp_path, LOGSINE_CONFIG),
                                  "--all-sigma"])
    assert code == 2
    assert doc["result"]["best"]["flags"]["local_min_certified"] is False


@pytest.mark.parametrize("start", [{"nodes": [2.0, 4.0]}, {"options": {"start": [2.0, 4.0]}}],
                         ids=["nodes", "options.start"])
def test_minimax_all_sigma_refuses_start_nodes(tmp_path, capsys, monkeypatch, start):
    """One start lies in one ordering cell, so --all-sigma with start nodes
    is refused before any cell is solved."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a cell")
    monkeypatch.setattr(cli, "minimax_global", no_solve)
    cfg = dict(start, kernels=[{"family": "tent"}] * 3)
    code = run(["minimax", "--all-sigma", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: --all-sigma") and "start nodes" in captured.err


def test_jsonify_refuses_unknown_types():
    doc = {"a": (np.float64(1.5), -math.inf, 2, None)}
    assert cli._jsonify(doc) == {"a": [1.5, "-inf", 2, None]}
    with pytest.raises(TypeError, match="ndarray"):
        cli._jsonify({"a": np.zeros(2)})


def test_jsonify_writes_non_finite_floats_as_strings():
    doc = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf")]
    assert cli._jsonify(doc) == ["nan", "inf", "-inf", "nan", "inf"]


def test_gtp_command(capsys):
    code, doc = run_json(capsys, ["gtp", "--exponents", "1,1,1"])
    assert code == 0
    res = doc["result"]
    assert math.isclose(res["norm"], 0.25, abs_tol=1e-9)
    assert res["interlacing"]


def test_bojanov_command(capsys):
    code, doc = run_json(capsys, ["bojanov", "--interval=-1,1",
                                  "--exponents", "1,1"])
    assert code == 0
    res = doc["result"]
    assert math.isclose(res["norm"], 0.5, abs_tol=1e-9)
    assert math.isclose(res["nodes"][0], -1 / math.sqrt(2), abs_tol=1e-7)
    assert res["flags"]["equioscillates"] and res["flags"]["interlacing"]


def test_sample_csv_stdout(tmp_path, capsys):
    cfg = dict(EX_CONFIG, resolution=64)
    code = run(["sample", "--config", write_config(tmp_path, cfg), "--no-timestamp"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,F"
    assert len(lines) == 65  # header + resolution rows


def test_sample_csv_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, doc = run_json(capsys, ["sample", "--config", write_config(tmp_path, EX_CONFIG),
                                  "--resolution", "100", "--emit-samples", str(target)])
    assert code == 0
    assert doc["result"] == {"rows": 100, "path": str(target)}
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 101


@pytest.mark.parametrize("argv, header", [
    (["minimax", "--sigma", "1,2"], "t,F"),
    (["gtp", "--exponents", "1,1,1"], "t,T"),
    (["bojanov", "--interval=-1,1", "--exponents", "1,1"], "x,P"),
])
def test_emit_samples_beside_report(tmp_path, capsys, argv, header):
    target = tmp_path / "curve.csv"
    config = ["--config", write_config(tmp_path, LOGSINE_CONFIG)] if argv[0] == "minimax" else []
    code, doc = run_json(capsys, argv + config + ["--resolution", "50",
                                                  "--emit-samples", str(target)])
    assert code == 0
    assert doc["result"]["samples_written"] == 50
    lines = target.read_text().strip().splitlines()
    assert lines[0] == header
    assert len(lines) == 51


def test_verify_sandwich_clean(tmp_path, capsys):
    cfg = dict(LOGSINE_CONFIG, m_estimate=-2 * math.log(2.0), samples=20)
    code, doc = run_json(capsys, ["verify", "--config", write_config(tmp_path, cfg),
                                  "--check", "sandwich", "--sigma", "1,2"])
    assert code == 0
    assert doc["result"]["ok"]


def test_verify_sandwich_flags_witness(tmp_path, capsys):
    m_cell = PI + 0.1 * PI**2 * (6 * math.sqrt(2) - 7)
    cfg = {"kernels": EX_CONFIG["kernels"], "m_estimate": m_cell,
           "samples": 5, "include": [[PI, PI / 2, 3 * PI / 2]]}
    code, doc = run_json(capsys, ["verify", "--config", write_config(tmp_path, cfg),
                                  "--check", "sandwich", "--sigma", "2,1,3"])
    assert code == 2
    assert not doc["result"]["ok"]
    assert any(v["point"] == "include[0]" for v in doc["result"]["violations"])


def test_verify_mmatrix_at_smooth_solution(tmp_path, capsys):
    cfg = dict(LOGSINE_CONFIG, nodes=[2 * PI / 3, 4 * PI / 3])
    code, doc = run_json(capsys, ["verify", "--config", write_config(tmp_path, cfg),
                                  "--check", "mmatrix"])
    assert code == 0
    assert doc["result"]["ok"]
    assert len(doc["result"]["jacobian"]) == 2


def test_verify_convergence(tmp_path, capsys):
    code, doc = run_json(capsys, ["verify", "--config", write_config(tmp_path, EX_CONFIG),
                                  "--check", "convergence"])
    assert code == 0
    res = doc["result"]
    assert res["decreasing"] and res["bound_ok"]
    assert len(res["rows"]) == 4


def test_verify_grid_minimax(tmp_path, capsys):
    cfg = {"kernels": [{"family": "log_sine"}, {"family": "log_sine"}],
           "node_resolution": 24}
    code, doc = run_json(capsys, ["verify", "--config", write_config(tmp_path, cfg),
                                  "--check", "grid-minimax", "--sigma", "1"])
    assert code == 0
    assert math.isclose(doc["result"]["value"], -math.log(2.0), abs_tol=1e-8)


@pytest.mark.parametrize("degrees", [False, True], ids=["radians", "degrees"])
def test_nodes_flag_matches_config_nodes(tmp_path, capsys, degrees):
    nodes = [170.0, 95.0, 260.0] if degrees else EX_CONFIG["nodes"]
    flags = ["--no-timestamp"] + (["--degrees"] if degrees else [])
    outs = []
    for cfg, extra in ((dict(EX_CONFIG, nodes=nodes), []),
                       ({"kernels": EX_CONFIG["kernels"]}, ["--nodes", ",".join(map(repr, nodes))])):
        assert run(["profile", "--config", write_config(tmp_path, cfg)] + flags + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["result"]["nodes"] == pytest.approx(nodes)


def test_no_timestamp_is_byte_stable(tmp_path, capsys):
    path = write_config(tmp_path, dict(EX_CONFIG, t=[0.0, 1.0]))
    run(["eval", "--config", path, "--no-timestamp"])
    first = capsys.readouterr().out
    run(["eval", "--config", path, "--no-timestamp"])
    second = capsys.readouterr().out
    assert first == second


def test_degrees_round_trip(tmp_path, capsys):
    cfg = {"kernels": EX_CONFIG["kernels"], "nodes": [180.0, 90.0, 270.0], "t": [0.0]}
    code, doc = run_json(capsys, ["eval", "--config", write_config(tmp_path, cfg),
                                  "--degrees"])
    assert code == 0
    assert doc["units"] == "degrees"
    assert math.isclose(doc["result"]["nodes"][0], 180.0, abs_tol=1e-9)
    assert math.isclose(doc["result"]["F"][0], E_VALUE, abs_tol=1e-12)


# Each command on one problem, as (argv, config with angles in degrees); the
# radian run gets the same config with every angle through math.radians.
# The configs set "resolution", so --emit-samples takes it from there.
TORUS_KEYS = {"nodes", "z", "maximizers", "lo", "hi", "t", "coarse_nodes"}
TENT3 = [{"family": "tent"}] * 3
DEGREE_RUNS = {
    "eval": (["eval"], dict(EX_CONFIG, nodes=[170.0, 95.0, 260.0], t=[0.0, 45.0, 200.0])),
    "profile": (["profile"], dict(EX_CONFIG, nodes=[170.0, 95.0, 260.0])),
    "equioscillate": (["equioscillate", "--sigma", "1,2"],
                      {"kernels": TENT3, "options": {"start": [100.0, 200.0]}}),
    "minimax": (["minimax", "--sigma", "1,2"], dict(LOGSINE_CONFIG, nodes=[100.0, 250.0])),
    "maximin": (["maximin", "--sigma", "2,1"], LOGSINE_CONFIG),
    "gtp": (["gtp", "--exponents", "1,2,1"], {}),
    "bojanov": (["bojanov", "--interval=-1,2", "--exponents", "1,2"], {}),
    "sample": (["sample"], dict(EX_CONFIG, nodes=[170.0, 95.0, 260.0])),
    "sandwich": (["verify", "--check", "sandwich", "--sigma", "2,1,3"],
                 {"kernels": EX_CONFIG["kernels"], "m_estimate": 4.6081, "samples": 3,
                  "include": [[180.0, 90.0, 270.0]]}),
    "mmatrix": (["verify", "--check", "mmatrix"], dict(LOGSINE_CONFIG, nodes=[120.0, 250.0])),
    "convergence": (["verify", "--check", "convergence"],
                    dict(EX_CONFIG, nodes=[170.0, 95.0, 260.0], levels=[4, 16])),
    "grid-minimax": (["verify", "--check", "grid-minimax", "--sigma", "1"],
                     {"kernels": LOGSINE_CONFIG["kernels"][:2], "node_resolution": 24}),
}


def rad(v):
    return math.radians(v) if isinstance(v, float) else [rad(x) for x in v]


def in_radians(cfg):
    out = dict(cfg, resolution=40)
    for key in ("nodes", "t", "include"):
        if key in cfg:
            out[key] = rad(cfg[key])
    if "options" in cfg:
        out["options"] = {"start": rad(cfg["options"]["start"])}
    return out


def assert_degrees_of(deg, rad, key=None, torus=True):
    """deg is rad with every torus angle times 180/pi and all else equal."""
    if isinstance(rad, dict):
        assert deg.keys() == rad.keys()
        for k in rad:
            # bojanov's interval coordinates are not angles; its doubled report is
            assert_degrees_of(deg[k], rad[k], k, torus or k == "doubled")
    elif isinstance(rad, list):
        assert len(deg) == len(rad)
        for d, r in zip(deg, rad):
            assert_degrees_of(d, r, key, torus)
    elif torus and key in TORUS_KEYS:
        assert math.isclose(deg, rad * 180.0 / PI, rel_tol=1e-12), (key, deg, rad)
    else:
        assert deg == rad, (key, deg, rad)


@pytest.mark.parametrize("name", sorted(DEGREE_RUNS))
def test_degrees_convert_exactly_the_torus_angles(tmp_path, capsys, name):
    """The same problem in radians and with --degrees: torus angles in the
    report and the CSV t column convert; every other value is identical."""
    argv, cfg = DEGREE_RUNS[name]
    runs = {}
    for units, config, extra in (("rad", in_radians(cfg), []),
                                 ("deg", dict(cfg, resolution=40), ["--degrees"])):
        csv = tmp_path / f"{units}.csv"
        code = run(argv + ["--config", write_config(tmp_path, config, f"{units}.json"),
                           "--emit-samples", str(csv), "--no-timestamp"] + extra)
        doc = json.loads(capsys.readouterr().out)
        rows = [line.split(",") for line in csv.read_text().splitlines()] if csv.exists() else []
        runs[units] = code, doc, rows
    (code_r, doc_r, rows_r), (code_d, doc_d, rows_d) = runs["rad"], runs["deg"]
    assert code_d == code_r == (2 if name == "sandwich" else 0)  # include[0] is a witness
    assert "units" not in doc_r and doc_d.pop("units") == "degrees"
    res_r, res_d = doc_r["result"], doc_d["result"]
    if name == "sample":
        res_r["path"] = res_d["path"]
    assert_degrees_of(res_d, res_r, torus=name != "bojanov")
    assert {k: v for k, v in doc_d.items() if k != "result"} == \
        {k: v for k, v in doc_r.items() if k != "result"}
    assert len(rows_d) == len(rows_r) == (0 if name == "sandwich" else 41)
    if rows_r:
        assert rows_d[0] == rows_r[0]
        for d, r in zip(rows_d[1:], rows_r[1:]):
            assert_degrees_of(float(d[0]), float(r[0]), rows_r[0][0])
            assert d[1:] == r[1:]


def test_config_from_stdin(monkeypatch, capsys):
    cfg = dict(EX_CONFIG, t=0.0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cfg)))
    code, doc = run_json(capsys, ["eval", "--config", "-"])
    assert code == 0
    assert math.isclose(doc["result"]["F"][0], E_VALUE, abs_tol=1e-12)


def test_error_paths_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["eval", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err

    # eval without t
    assert run(["eval", "--config", write_config(tmp_path, EX_CONFIG)]) == 1
    assert "error:" in capsys.readouterr().err

    # sigma of the wrong length
    assert run(["profile", "--config", write_config(tmp_path, EX_CONFIG, "c2.json"),
                "--sigma", "1,2"]) == 1
    assert "error:" in capsys.readouterr().err

    # a resolution below one row
    for resolution in ("-5", "0"):
        assert run(["sample", "--config", write_config(tmp_path, EX_CONFIG, "c7.json"),
                    "--resolution", resolution]) == 1
        assert "resolution must be positive" in capsys.readouterr().err

    # coincident free nodes lie on a cell face, which needs --sigma, however many
    for n in (2, 8):
        cfg = {"kernels": [{"family": "log_sine"}] * (n + 1), "nodes": [1.0] * n}
        assert run(["profile", "--config", write_config(tmp_path, cfg, "c9.json")]) == 1
        captured = capsys.readouterr()
        assert "cell face" in captured.err and captured.out == ""

    # the ladder's levels and the polish's sweep cap are solver constants
    for knob, val in (("homotopy_levels", [4, 16]), ("secant_sweeps", 80)):
        cfg = {"kernels": LOGSINE_CONFIG["kernels"], "options": {knob: val}}
        assert run(["equioscillate", "--config", write_config(tmp_path, cfg, "c10.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown solver option '{knob}'\n" and captured.out == ""

    # a convergence check with no level has nothing to check
    cfg = dict(EX_CONFIG, levels=[])
    assert run(["verify", "--config", write_config(tmp_path, cfg, "c11.json"),
                "--check", "convergence"]) == 1
    assert "error: convergence_probe needs at least one level" in capsys.readouterr().err

    # a non-finite node is named as given, not as its reduction (nan)
    cfg = dict(EX_CONFIG, t=0.0)
    assert run(["eval", "--config", write_config(tmp_path, cfg, "c12.json"),
                "--nodes", "inf"]) == 1
    assert capsys.readouterr().err == "error: node angle not finite: inf\n"

    # a sandwich include point with one node too many
    cfg = dict(LOGSINE_CONFIG, m_estimate=0.0, samples=1, include=[[2.0, 3.0, 4.0]])
    assert run(["verify", "--config", write_config(tmp_path, cfg, "c6.json"),
                "--check", "sandwich", "--sigma", "1,2"]) == 1
    assert "3 nodes, problem expects 2" in capsys.readouterr().err

    # unknown verify check
    assert run(["verify", "--config", write_config(tmp_path, EX_CONFIG, "c3.json"),
                "--check", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err

    # strict mmatrix check: the exact slope formula fails at a maximizer on an arc end
    par = {"family": "parabola"}
    cfg = {"kernels": [par, {"family": "weighted", "weight": 5.0, "base": par}],
           "nodes": [0.3], "relaxed": False}
    assert run(["verify", "--config", write_config(tmp_path, cfg, "c5.json"),
                "--check", "mmatrix"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""

    # unknown solver option, and a tuning that is a module constant, not an option
    for knob in ("bogus_knob", "probe_h"):
        cfg = {"kernels": LOGSINE_CONFIG["kernels"], "options": {knob: 1}}
        assert run(["minimax", "--config", write_config(tmp_path, cfg, "c4.json")]) == 1
        assert "error:" in capsys.readouterr().err

    # the cell sweep is minimax's; the other solvers refuse it
    for command in ("maximin", "equioscillate"):
        assert run([command, "--config", write_config(tmp_path, LOGSINE_CONFIG, "c8.json"),
                    "--all-sigma"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --all-sigma") and captured.out == ""


_LOGSINES = LOGSINE_CONFIG["kernels"]


@pytest.mark.parametrize("config, argv, message", [
    ([1.0, 2.0], ["eval"], "config must be a JSON object"),
    ({"nodes": [1.0]}, ["eval"], "config needs a 'kernels' list"),
    ({"kernels": [], "nodes": [1.0]}, ["eval"], "config needs a 'kernels' list"),
    ({"kernels": _LOGSINES, "t": 0.5}, ["eval"], "no nodes given (config 'nodes' or --nodes)"),
    ({}, ["gtp"], "gtp needs --exponents r0,r1,..."),
    ({}, ["bojanov", "--exponents", "1,2"], "bojanov needs --interval a,b and --exponents nu1,..."),
    ({}, ["bojanov", "--interval=-1,1"], "bojanov needs --interval a,b and --exponents nu1,..."),
    ({"kernels": _LOGSINES}, ["verify"],
     "verify needs --check sandwich|mmatrix|convergence|grid-minimax"),
    ({"kernels": _LOGSINES}, ["verify", "--check", "sandwich"], "sandwich check needs --sigma"),
    ({"kernels": _LOGSINES}, ["verify", "--check", "grid-minimax"], "grid-minimax check needs --sigma"),
], ids=["config_not_object", "no_kernels", "empty_kernels", "no_nodes", "gtp_no_exponents",
        "bojanov_no_interval", "bojanov_no_exponents", "verify_no_check", "sandwich_no_sigma",
        "grid_minimax_no_sigma"])
def test_validation_exits_print_one_error_line(tmp_path, capsys, config, argv, message):
    assert run(argv + ["--config", write_config(tmp_path, config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_python_m_equisum_exits_with_the_run_code(tmp_path, capsys, monkeypatch):
    """`python -m equisum` calls cli.main(), which exits with run()'s code,
    here run in this process."""
    path = write_config(tmp_path, dict(EX_CONFIG, t=0.0))
    for argv, code in ((["eval", "--config", path, "--no-timestamp"], 0),
                       (["eval", "--config", str(tmp_path / "missing.json")], 1)):
        monkeypatch.setattr(sys, "argv", ["equisum"] + argv)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("equisum", run_name="__main__")
        assert exc.value.code == code
        out = capsys.readouterr().out
        if code == 0:
            assert math.isclose(json.loads(out)["result"]["F"][0], E_VALUE, abs_tol=1e-12)


def test_timestamp_is_utc_iso8601(tmp_path, capsys):
    path = write_config(tmp_path, dict(EX_CONFIG, t=0.0))
    before = datetime.now(timezone.utc)
    assert run(["eval", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["schema", "command", "timestamp", "seed", "result"]
    stamp = datetime.fromisoformat(doc["timestamp"])
    assert stamp.utcoffset() == timedelta(0)
    assert before <= stamp <= datetime.now(timezone.utc)


def test_installed_script_smoke(tmp_path):
    cfg = dict(EX_CONFIG, t=0.0)
    path = write_config(tmp_path, cfg)
    # the child imports the same package as this process, installed or not
    src = str(Path(equisum.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "equisum", "eval", "--config", path, "--no-timestamp"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert math.isclose(doc["result"]["F"][0], E_VALUE, abs_tol=1e-12)


def test_commands_run_without_scipy(tmp_path):
    """maximin on the Example's cell (3,1,2), whose ascent runs the LP, and
    minimax --all-sigma on three tents exit as usual in a process where
    every import of scipy fails."""
    argvs = [
        ["maximin", "--sigma", "3,1,2", "--no-timestamp",
         "--config", write_config(tmp_path, {"kernels": EX_CONFIG["kernels"]}, "ex.json")],
        ["minimax", "--all-sigma", "--no-timestamp",
         "--config", write_config(tmp_path, {"kernels": TENT3}, "tents.json")],
    ]
    child = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from equisum.cli import run\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(run(argv))\n"
        "print(json.dumps(codes))\n"
    )
    src = str(Path(equisum.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0]
