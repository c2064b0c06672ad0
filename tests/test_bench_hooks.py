"""The traced benchmark run wraps package functions by name (bench/spans.py).

A rename in the package would drop a hook and silently zero the counters
built on it, so the hooks are checked here against the package itself.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

from equisum.evaluator import Problem
from equisum.kernels import log_sine, parabola, tent, weighted
from equisum.solver import SolveOptions, _newton_stage, minimax, solve_equioscillation
from equisum.torus import Permutation

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_function_exists():
    for modname, attr, _ in _spans()._FUNCTIONS:
        assert hasattr(importlib.import_module(modname), attr), f"{modname}.{attr}"


def test_newton_stage_label_is_fifth_argument():
    # the tracer tells ladder rungs from other Newton stages by args[4]
    assert list(inspect.signature(_newton_stage).parameters)[4] == "label"


def test_ladder_and_certificate_counters_fire():
    """The spans behind solver.ladder_iters and solver.certificate_profiles."""
    example = Problem((tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1)))
    tr = _spans().Tracer()
    tr.install()
    try:
        tr.begin_task(0)
        # a boundary cell: direct Newton stops at max_iter, the ladder follows
        solve_equioscillation(example, Permutation((3, 2, 1)),
                              SolveOptions(max_iter=2, homotopy_levels=(4,), secant_sweeps=1))
        minimax(Problem((log_sine(), log_sine(), log_sine())), Permutation((1, 2)))
        tr.end_task()
    finally:
        tr.uninstall()
    assert not tr.missing
    assert tr.pair("evaluator.jacobian_delta", "solver.ladder_stage") > 0
    assert tr.pair("evaluator.profile", "solver.certificate_probe") > 0
