"""Solve every ordering cell of seeded random problems, for before/after checks.

    python3 tools/cell_corpus.py SEED N OUT.json [--tree TREE]
    python3 tools/cell_corpus.py --compare A.json B.json

The first form draws N problems from SEED: n = 2 or 3 free nodes, each of
the n+1 kernels a tent, parabola, log-sine, riesz(2) or one-peak table
kernel, weighted or not.  It runs ``solve_equioscillation`` with default
options on every ordering cell of each, through ``TREE/src``'s ``equisum``
(TREE defaults to this checkout), and writes per cell the status,
residual, objective, iterations and seconds, the stages its trace reached
in order (``direct``, ``level:*``, ``exact``, ``secant``, ``restart``; a run
of one stage once) and the stage it ended in.  It prints, per stage, how
many cells reached it and how many ended in it.  The problems depend on
SEED and this script only, and the first k of N are those of any larger N,
so two trees run the same cells.

The second form compares two corpora of the same cells: the cells whose
status changed (with both residuals), the converged counts, the largest
objective difference of the cells converged in both, total and slowest
times, the cells whose last stage changed and the per-stage counts of
both.  It exits 1 if any status changed.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("tent", "parabola", "log_sine", "riesz", "table")
STAGES = ("direct", "level", "exact", "secant", "restart")  # summary order
SLOWEST = 10


def _kernel(rng):
    """One kernel config: a family drawn uniformly, weighted half the time."""
    fam = FAMILIES[rng.integers(len(FAMILIES))]
    if fam == "riesz":
        cfg = {"family": "riesz", "p": 2.0}
    elif fam == "table":
        peak = float(rng.uniform(0.3, 2.0 * math.pi - 0.3))
        cfg = {"family": "table", "points": [[0.0, 0.0], [peak, float(rng.uniform(1.0, 4.0))],
                                             [2.0 * math.pi, 0.0]]}
    else:
        cfg = {"family": fam}
    if rng.random() < 0.5:
        cfg = {"family": "weighted", "weight": float(rng.uniform(0.1, 3.0)), "base": cfg}
    return cfg


def problems(seed, count):
    """count problems (lists of kernel configs) drawn in order from seed."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 4))
        out.append([_kernel(rng) for _ in range(n + 1)])
    return out


def corpus(seed, count, tree):
    """{cell key: record} of every cell of the drawn problems, run in order."""
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    from equisum.evaluator import Problem
    from equisum.kernels import from_config
    from equisum.solver import solve_equioscillation

    records = {}
    for i, cfgs in enumerate(problems(seed, count)):
        p = Problem(tuple(from_config(c) for c in cfgs))
        for sigma in itertools.permutations(range(1, p.n + 1)):
            t0 = time.perf_counter()
            rep = solve_equioscillation(p, sigma)
            seconds = time.perf_counter() - t0
            stages = [label for label, _ in itertools.groupby(e["stage"] for e in rep.trace)]
            records[f"{seed}/{i:04d}/{''.join(map(str, sigma))}"] = {
                "status": rep.status,
                "residual": rep.residual,
                "objective": rep.objective,
                "iterations": rep.iterations,
                "seconds": seconds,
                "stages": stages,
                "last_stage": stages[-1],
                "kernels": cfgs,
            }
    return records


def _stage_order(label):
    """Sort key of a stage label: STAGES order, rungs by level."""
    kind, _, level = label.partition(":")
    return STAGES.index(kind), float(level or 0.0)


def stage_counts(records):
    """{stage: (cells whose trace reached it, cells that ended in it)}, in
    _stage_order."""
    counts = {}
    for r in records.values():
        for label in set(r["stages"]):
            counts.setdefault(label, [0, 0])[0] += 1
        counts.setdefault(r["last_stage"], [0, 0])[1] += 1
    return {label: tuple(counts[label]) for label in sorted(counts, key=_stage_order)}


def compare(a, b):
    """Lines of the report on corpora a and b; (lines, statuses changed)."""
    if a.keys() != b.keys():
        raise SystemExit("the corpora hold different cells; draw both with the same SEED and N")
    changed = [k for k in a if a[k]["status"] != b[k]["status"]]
    lines = [f"{k}: {a[k]['status']} -> {b[k]['status']}, residual "
             f"{a[k]['residual']:.3g} -> {b[k]['residual']:.3g}" for k in changed]
    conv = [sum(r["status"] == "converged" for r in c.values()) for c in (a, b)]
    both = [k for k in a if a[k]["status"] == b[k]["status"] == "converged"]
    gap = max((abs(a[k]["objective"] - b[k]["objective"]) for k in both), default=0.0)
    secs = [sum(r["seconds"] for r in c.values()) for c in (a, b)]
    lines += [f"{len(changed)} of {len(a)} cells changed status",
              f"converged: {conv[0]} -> {conv[1]}",
              f"largest objective difference, {len(both)} cells converged in both: {gap:.3g}",
              f"seconds: {secs[0]:.2f} -> {secs[1]:.2f}",
              "slowest cells (seconds, iterations; A -> B):"]
    for k in sorted(a, key=lambda k: -max(a[k]["seconds"], b[k]["seconds"]))[:SLOWEST]:
        lines.append(f"  {k} {b[k]['status']}: {a[k]['seconds']:.3f} -> {b[k]['seconds']:.3f} s, "
                     f"{a[k]['iterations']} -> {b[k]['iterations']}")
    moved = [k for k in a if a[k]["last_stage"] != b[k]["last_stage"]]
    lines.append(f"{len(moved)} of {len(a)} cells changed last stage")
    lines += [f"  {k}: {a[k]['last_stage']} -> {b[k]['last_stage']} "
              f"({a[k]['status']} -> {b[k]['status']})" for k in moved]
    ca, cb = stage_counts(a), stage_counts(b)
    lines.append("stages (cells reached, cells ended; A -> B):")
    for label in sorted(ca.keys() | cb.keys(), key=_stage_order):
        (ra, ea), (rb, eb) = ca.get(label, (0, 0)), cb.get(label, (0, 0))
        lines.append(f"  {label}: reached {ra} -> {rb}, ended {ea} -> {eb}")
    return lines, len(changed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("args", nargs="+", metavar="ARG",
                    help="SEED N OUT.json, or with --compare two corpora")
    ap.add_argument("--compare", action="store_true", help="compare two corpora")
    ap.add_argument("--tree", default=str(ROOT), help="tree whose src/ holds equisum")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.args) != 2:
            ap.error("--compare takes A.json B.json")
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.args)
        lines, changed = compare(a, b)
        print("\n".join(lines))
        return 1 if changed else 0
    if len(args.args) != 3:
        ap.error("expected SEED N OUT.json")
    seed, count, out = int(args.args[0]), int(args.args[1]), Path(args.args[2])
    records = corpus(seed, count, args.tree)
    out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    statuses = [r["status"] for r in records.values()]
    print(f"{len(records)} cells in {sum(r['seconds'] for r in records.values()):.2f} s; "
          + ", ".join(f"{s}: {statuses.count(s)}" for s in sorted(set(statuses))))
    print("stages (cells reached, cells ended):")
    for label, (reached, ended) in stage_counts(records).items():
        print(f"  {label}: reached {reached}, ended {ended}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
