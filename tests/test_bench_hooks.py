"""The traced benchmark run wraps package functions by name (bench/spans.py).

A rename in the package would drop a hook and silently zero the counters
built on it, so the hooks are checked here against the package itself.
"""
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import equisum.cli as cli
import equisum.solver as solver
from equisum.evaluator import Problem
from equisum.kernels import Kernel, approximant, from_config, log_sine, parabola, tent, weighted
from equisum.solver import SolveOptions, _newton_stage, minimax, solve_equioscillation
from equisum.torus import Permutation

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_function_exists():
    for modname, attr, _ in _load("spans")._FUNCTIONS:
        assert hasattr(importlib.import_module(modname), attr), f"{modname}.{attr}"


def test_every_kernel_class_owns_value_and_deriv():
    # the tracer wraps value/deriv found in each subclass's own namespace
    classes = _load("spans")._subclasses(Kernel)
    assert len(classes) >= 8
    for cls in classes:
        assert "value" in cls.__dict__ and "deriv" in cls.__dict__, cls.__name__


def test_wrapped_kernel_call_reduces_angles_once():
    k = approximant(weighted(tent(), 2.0), 8)
    tr = _load("spans").Tracer()
    tr.install()
    try:
        tr.begin_task(0)
        k.value(np.linspace(-1.0, 7.0, 50))
        tr.end_task()
    finally:
        tr.uninstall()
    assert not tr.missing
    assert tr.n("torus.reduce_angle") == 1
    assert tr.n("kernels.value") == 1


def test_newton_stage_label_is_fifth_argument():
    # the tracer tells ladder rungs from other Newton stages by args[4]
    assert list(inspect.signature(_newton_stage).parameters)[4] == "label"


def test_ladder_and_certificate_counters_fire(monkeypatch):
    """The spans behind solver.ladder_iters and solver.certificate_profiles."""
    monkeypatch.setattr(solver, "HOMOTOPY_LEVELS", (4,))
    monkeypatch.setattr(solver, "SECANT_SWEEPS", 1)
    example = Problem((tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1)))
    tr = _load("spans").Tracer()
    tr.install()
    try:
        tr.begin_task(0)
        # from the default start, Newton with midpoint rows misses this cell's
        # interior point: direct Newton stops at max_iter, the ladder follows
        solve_equioscillation(example, Permutation((3, 2, 1)),
                              SolveOptions(max_iter=2))
        # tent kinks: no Gordan verdict, so the axis probes certify
        minimax(example, Permutation((2, 1, 3)))
        tr.end_task()
    finally:
        tr.uninstall()
    assert not tr.missing
    assert tr.pair("evaluator.jacobian_delta", "solver.ladder_stage") > 0
    assert tr.pair("evaluator.profile", "solver.certificate_probe") > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_solve_workload_keeps_a_kinked_minimax(seed):
    """bench/run.py requires solver.certificate_profiles > 0 on `solve`; only
    a minimax on a kernel that is not C1 still runs the probes."""
    tasks = _load("workloads").build("solve", seed)
    assert any(t.command[0] == "minimax"
               and not Problem(tuple(from_config(k) for k in t.config["kernels"])).all_c1
               for t in tasks)


@pytest.mark.parametrize("seed", [1, 2])
def test_solve_workload_reaches_the_ladder_and_the_secant_stage(seed, tmp_path, capsys):
    """bench/run.py requires solver.ladder_iters > 0 and solver.secant_sweeps > 0
    on `solve`; some equioscillate or single-cell minimax task must still
    reach a ladder rung and the secant stage."""
    stages = set()
    for i, t in enumerate(_load("workloads").build("solve", seed)):
        if t.command not in (["equioscillate"], ["minimax"]):
            continue
        path = tmp_path / f"{i:03d}.json"
        path.write_text(json.dumps(t.config))
        capsys.readouterr()
        cli.run(list(t.command) + ["--config", str(path), "--no-timestamp"])
        stages |= {e["stage"] for e in json.loads(capsys.readouterr().out)["result"]["trace"]}
    assert any(s.startswith("level:") for s in stages)
    assert "secant" in stages


def test_c1_minimax_runs_no_probe(monkeypatch):
    calls = []
    original = solver._mbar_closure
    monkeypatch.setattr(solver, "_mbar_closure",
                        lambda *args: calls.append(1) or original(*args))
    rep = minimax(Problem((log_sine(), weighted(log_sine(), 1.6), log_sine())), Permutation((2, 1)))
    assert rep.flags["local_min_certified"]
    assert calls == []
