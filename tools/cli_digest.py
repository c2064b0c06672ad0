"""Digest of the CLI's output on every benchmark task, for byte-identity checks.

    python3 tools/cli_digest.py TREE OUT.json
    python3 tools/cli_digest.py --compare A.json B.json

The first form runs every warm-up and task of both benchmark workloads, for
seeds 1 and 2, then the fixed ``EXTRA`` cases (commands and flags the
benchmark never runs), in one process through ``equisum.cli.run`` imported
from ``TREE/src``, with ``--no-timestamp``.  It writes, per task, the exit
code and the sha1 of stdout and of stderr.  The task lists come from this
checkout's ``bench/workloads.py`` and this file, so two trees digested with
it run the same tasks.  The second form lists the tasks whose records
differ and exits 1 if any do.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)

PI = math.pi
# the README Example (sigma (2, 1, 3) at these nodes) and a smooth problem
# with a Riesz kernel, whose nodes lie in the cell (1, 2)
_EXAMPLE = {
    "kernels": [{"family": "tent"}, {"family": "tent"},
                {"family": "weighted", "weight": 0.1, "base": {"family": "parabola"}},
                {"family": "weighted", "weight": 0.1, "base": {"family": "parabola"}}],
    "nodes": [PI, PI / 2, 3 * PI / 2],
}
_LOGSINE_RIESZ = {
    "kernels": [{"family": "log_sine"}, {"family": "riesz", "p": 2}, {"family": "log_sine"}],
    "nodes": [1.9, 4.3],
}


def _extra_cases():
    """(key, argv, config) of the fixed cases beyond the benchmark's."""
    cases = []
    for name, cfg in (("example", _EXAMPLE), ("logsine_riesz", _LOGSINE_RIESZ)):
        solve_cfg = {"kernels": cfg["kernels"]}
        cases += [
            (f"{name}/eval", ["eval"], dict(cfg, t=[0.0, 1.0, 3.0])),
            (f"{name}/profile", ["profile"], cfg),
            (f"{name}/sample", ["sample", "--resolution", "64"], cfg),
            (f"{name}/mmatrix_relaxed", ["verify", "--check", "mmatrix"], dict(cfg, relaxed=True)),
            (f"{name}/mmatrix_strict", ["verify", "--check", "mmatrix"], dict(cfg, relaxed=False)),
            (f"{name}/convergence", ["verify", "--check", "convergence"], cfg),
        ] + [(f"{name}/{command}_degrees", [command, "--degrees"], solve_cfg)
             for command in ("equioscillate", "minimax", "maximin")]
    cases += [
        ("example/grid_minimax", ["verify", "--check", "grid-minimax", "--sigma", "2,1,3"],
         dict(_EXAMPLE, node_resolution=12)),
        # no m_estimate: grid_minimax supplies M
        ("logsine_tent/sandwich", ["verify", "--check", "sandwich", "--sigma", "1"],
         {"kernels": [{"family": "log_sine"}, {"family": "tent"}]}),
        ("gtp_degrees", ["gtp", "--degrees", "--exponents", "1,2,1"], {}),
        ("bojanov_degrees", ["bojanov", "--degrees", "--interval=-1,2", "--exponents", "1,2"], {}),
    ]
    return [(f"extra/{key}", argv, config) for key, argv, config in cases]


EXTRA = _extra_cases()


def _sha1(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def run_cases(cli, cases):
    """{key: {"exit", "stdout", "stderr"}} of each (key, argv, config), run in order."""
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        for key, argv, config in cases:
            path.write_text(json.dumps(config), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(list(argv) + ["--config", str(path), "--no-timestamp"])
                except Exception as exc:  # recorded, so that a crash is a difference
                    code = f"raised {exc.__class__.__name__}: {exc}"
            # the config's temporary path must not make two trees differ
            records[key] = {
                "exit": code,
                "stdout": _sha1(out.getvalue().replace(tmp, "TMP")),
                "stderr": _sha1(err.getvalue().replace(tmp, "TMP")),
            }
    return records


def digest(tree):
    """{task key: {"exit", "stdout", "stderr"}} of every benchmark task, then
    of the EXTRA cases, run in order."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    import equisum.cli
    import workloads

    cases = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            tasks = workloads.warmup(workload) + workloads.build(workload, seed)
            cases += [(f"{workload}/seed{seed}/{i:03d}/{task.label}", task.command, task.config)
                      for i, task in enumerate(tasks)]
    return run_cases(equisum.cli, cases + EXTRA)


def compare(a, b):
    """Keys of the tasks whose records differ or exist in one digest only."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs=2, metavar="PATH",
                    help="TREE OUT.json, or with --compare two digests")
    ap.add_argument("--compare", action="store_true", help="list the tasks that differ")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.paths)
        diff = compare(a, b)
        for key in diff:
            print(f"{key}: {a.get(key)} != {b.get(key)}")
        print(f"{len(diff)} of {len(a.keys() | b.keys())} tasks differ")
        return 1 if diff else 0
    records = digest(args.paths[0])
    Path(args.paths[1]).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    codes = [r["exit"] for r in records.values()]
    print(f"{len(records)} tasks; exit codes: "
          + ", ".join(f"{c}: {codes.count(c)}" for c in sorted(set(codes), key=str)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
