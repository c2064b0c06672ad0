import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equisum
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


def test_equioscillate_converges(tmp_path, capsys):
    cfg = {"kernels": EX_CONFIG["kernels"], "sigma": [2, 1, 3]}
    code, doc = run_json(capsys, ["equioscillate", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    res = doc["result"]
    assert res["status"] == "converged"
    assert math.isclose(res["objective"], E_VALUE, abs_tol=1e-9)


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

    # unknown verify check
    assert run(["verify", "--config", write_config(tmp_path, EX_CONFIG, "c3.json"),
                "--check", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err

    # unknown solver option, and a tuning that is a module constant, not an option
    for knob in ("bogus_knob", "probe_h"):
        cfg = {"kernels": LOGSINE_CONFIG["kernels"], "options": {knob: 1}}
        assert run(["minimax", "--config", write_config(tmp_path, cfg, "c4.json")]) == 1
        assert "error:" in capsys.readouterr().err


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
