"""Self-test of the benchmark's answer checker.

    python3 bench/selftest.py

Runs a few real tasks of each workload through ``equisum.cli.run`` and
requires the checker to pass them; then corrupts each answer (a shifted
node, a status flipped to converged, a dropped sandwich witness, a nudged
sample, ...) and requires the checker to count every corrupted answer as a
failure.  Exits 0 when every verdict is right.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys

import run
import workloads
from checker import check


def _json_edit(fn):
    def corrupt(code, out):
        doc = json.loads(out)
        code = fn(doc["result"], code)
        return code, json.dumps(doc)
    return corrupt


def _shift_node(res, code):
    res["nodes"][0] += 1e-3
    return code


def _to_converged(res, code):
    res["status"] = "converged"
    return 0


def _to_max_iter(res, code):
    res["status"] = "max_iter"
    return code


def _nudge_objective(res, code):
    res["objective"] += 1e-6
    return code


def _bojanov_node(res, code):
    res["nodes"][0] += 1e-4
    return code


def _gtp_norm(res, code):
    res["norm"] *= 1.001
    return code


def _drop_witness(res, code):
    res["violations"] = []
    res["ok"] = True
    return 0


def _grid_value(res, code):
    res["value"] += 1e-3
    res["grid_sup_at_nodes"] += 1e-3
    return code


def _flip_decreasing(res, code):
    res["decreasing"] = not res["decreasing"]
    return code


def _nudge_sample(code, out):
    lines = out.splitlines()
    t, f = lines[5].split(",")
    lines[5] = f"{t},{float(f) + 1e-6!r}"
    return code, "\n".join(lines) + "\n"


def _exit_one(code, out):
    return 1, out


def _raised(code, out):
    return None, out


# (workload, task label, corruptions the checker must reject)
CASES = (
    ("solve", "minimax_ls_n2", (_shift_node, _to_max_iter, _nudge_objective)),
    ("solve", "minimax_ls_equal_n3", (_shift_node, _nudge_objective)),
    ("solve", "maximin_ls_n1", (_shift_node, _nudge_objective)),
    ("solve", "bojanov_n2", (_bojanov_node,)),
    ("solve", "gtp_n2", (_gtp_norm,)),
    ("solve", "example_equi_123", (_to_converged, _shift_node)),
    ("solve", "example_equi_213", (_shift_node, _nudge_objective)),
    ("solve", "minimax_ls_n3", (_shift_node, _to_max_iter)),
    ("solve", "example_perturbed_start", (_nudge_objective, _to_max_iter)),
    ("solve", "minimax_all_sigma_tents_n2", (_exit_one,)),
    ("oracle_verify", "sandwich_example_witness", (_drop_witness,)),
    ("oracle_verify", "convergence_example", (_flip_decreasing,)),
    ("oracle_verify", "grid_minimax_ls_n1", (_grid_value,)),
    ("oracle_verify", "sample_log_sine_n2", (_nudge_sample, _raised)),
    ("oracle_verify", "sample_mixed_n3", (_nudge_sample,)),
)
RAW = {_nudge_sample, _exit_one, _raised}


def main():
    cli_run = run.import_package()
    picked = []
    for workload, label, corruptions in CASES:
        task = next(t for t in workloads.build(workload, 1) if t.label == label)
        picked.append((task, corruptions))
    workdir = run.WORK / "selftest"
    paths = run.write_configs([t for t, _ in picked], workdir)
    wrong = 0
    try:
        for (task, corruptions), path in zip(picked, paths):
            _, code, out = run.run_task(cli_run, task, path)
            problems = check(task, code, out)
            print(f"{'ok  ' if not problems else 'BAD '} real answer    {task.label}"
                  + (f": {problems}" if problems else ""))
            wrong += bool(problems)
            for corrupt in corruptions:
                fn = corrupt if corrupt in RAW else _json_edit(corrupt)
                bad_code, bad_out = fn(code, copy.copy(out))
                caught = bool(check(task, bad_code, bad_out))
                print(f"{'ok  ' if caught else 'BAD '} {corrupt.__name__:14s} {task.label}")
                wrong += not caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{wrong} wrong verdicts")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
