"""equisum benchmark: one closed-loop client running CLI tasks back to back.

    python3 bench/run.py --workload solve --seed 1 --seconds 50 --trace 0

Every task is one in-process call to ``equisum.cli.run(argv)`` with a
generated JSON config; stdout is captured and checked by ``checker.py``
outside the timing.  The run makes at least two whole passes over the
workload's task list and goes on, task by task, until ``--seconds`` of
measured task time are spent; the last pass may stop part way.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then two traced passes (spans around the calls between
package modules, see ``spans.py``) and the isolated layer probes, and
prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record with the
machine, the sample counts and any failures goes to ``.bench_out/``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread: BLAS pools must not start beside the single client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5  # set-ups per run: this process plus four child processes
MIN_PASSES = 2     # untraced passes per run; a task's time is its fastest pass
SPARSE_EVERY = 3   # after MIN_PASSES, sparse (costly) tasks run every third pass

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_p90_ms": "ms",
    "converged_frac": "ratio", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print it and exit (used for setup_s samples)")
    return ap.parse_args(argv)


def import_package():
    """Import equisum from this checkout's src/, never from site-packages."""
    if not (SRC / "equisum" / "__init__.py").is_file():
        sys.exit(f"bench: no equisum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import equisum
    import equisum.cli

    if Path(equisum.__file__).resolve().parent != (SRC / "equisum").resolve():
        sys.exit(f"bench: imported equisum from {equisum.__file__}, not from {SRC}")
    return equisum.cli.run


# ---------------------------------------------------------------- tasks

def write_configs(tasks, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, task in enumerate(tasks):
        path = directory / f"{i:03d}.json"
        path.write_text(json.dumps(task.config), encoding="utf-8")
        paths.append(str(path))
    return paths


def run_task(cli_run, task, path, tracer=None, task_id=-1):
    """One CLI call: (seconds, exit code or None if it raised, stdout)."""
    argv = list(task.command) + ["--config", path, "--no-timestamp"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer:
            tracer.begin_task(task_id)
        t0 = time.perf_counter()
        try:
            code = cli_run(argv)
        except (Exception, SystemExit):
            traceback.print_exc(file=err)
            code = None
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_task()
    return dt, code, out.getvalue()


def run_pass(cli_run, tasks, paths, tracer=None, budget=math.inf, skip_sparse=False):
    """The tasks in order, stopping early once `budget` seconds of task time
    are spent.  A skipped sparse task leaves None in its place."""
    records = []
    spent = 0.0
    for i, (task, path) in enumerate(zip(tasks, paths)):
        if spent >= budget:
            break
        if skip_sparse and task.sparse:
            records.append(None)
            continue
        records.append(run_task(cli_run, task, path, tracer, i))
        spent += records[-1][0]
    return records


class Judge:
    """Checks each distinct (task, output) once; identical outputs reuse the verdict."""

    def __init__(self, tasks):
        import checker

        self.check = checker.check
        self.tasks = tasks
        self._seen = {}
        self.failures = []

    def verdicts(self, records):
        failed = 0
        for i, rec in enumerate(records):
            if rec is None:
                continue
            _, code, out = rec
            key = (i, code, hash(out))
            if key not in self._seen:
                problems = self.check(self.tasks[i], code, out)
                self._seen[key] = problems
                if problems:
                    self.failures.append({"task": i, "label": self.tasks[i].label,
                                          "problems": problems[:3]})
            failed += bool(self._seen[key])
        return failed


def setup(workload, seed, t_start):
    """Import, generate and write the configs, warm up.  Returns its pieces."""
    cli_run = import_package()
    import workloads

    tasks = workloads.build(workload, seed)
    workdir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    paths = write_configs(tasks, workdir)
    warm = workloads.warmup(workload)
    warm_paths = write_configs(warm, workdir / "warmup")
    warm_records = run_pass(cli_run, warm, warm_paths)
    return cli_run, tasks, paths, workdir, (warm, warm_records), time.perf_counter() - t_start


def child_setup_seconds(workload, seed):
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- metrics

def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def task_seconds(passes):
    """Each task's times over the passes (the last pass may be partial)."""
    return [[recs[i][0] for recs in passes if i < len(recs) and recs[i]]
            for i in range(len(passes[0]))]


def end_to_end(passes, setup_samples):
    """A task's time is its fastest over the passes.  The passes run seconds
    apart, and load from other tenants of a shared machine only adds time
    (on a shared 2-vCPU VM the same call ran at two speeds, 1.8x apart,
    switching within a second at some times and staying slow for ten
    seconds or more at others), so the minimum is the steadiest estimate of
    what the task itself costs."""
    task_s = [min(times) for times in task_seconds(passes)]
    runs = [rec for recs in passes for rec in recs if rec]
    attempted = len(runs)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(task_s),
        "task_p50_ms": percentile(task_s, 50) * 1e3,
        "task_p90_ms": percentile(task_s, 90) * 1e3,
        "converged_frac": sum(code == 0 for _, code, _ in runs) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tr, records):
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    kcalls = tr.n("kernels.value") + tr.n("kernels.deriv")
    kpoints = tr.counters["kernel_points"]
    # inclusive kernel time less the tracer's cost of the spans nested in it
    # (one reduce_angle per kernel call), so ns_per_point is not mostly tracer
    nested = tr.children_of(("kernels.value", "kernels.deriv"))
    kincl = (tr.seconds("kernels.value") + tr.seconds("kernels.deriv")
             - nested * tr.span_overhead_s)
    profiles = tr.n("evaluator.profile")
    newton = tr.pair("evaluator.jacobian_delta", "solver.newton_stage")
    ladder = tr.pair("evaluator.jacobian_delta", "solver.ladder_stage")
    sweeps = tr.counters["secant_sweeps"]
    iters = newton + ladder + sweeps
    solver_profiles = tr.parent_layer_count("evaluator.profile", "solver")
    return {
        "kernels.calls": (kcalls, "count"),
        "kernels.points": (kpoints, "count"),
        "kernels.points_per_call": (kpoints / kcalls if kcalls else 0.0, "points/call"),
        "kernels.self_s": (tr.layer_self("kernels"), "s"),
        "kernels.ns_per_point": (kincl / kpoints * 1e9 if kpoints else 0.0, "ns"),
        "torus.reduce_angle_calls": (tr.n("torus.reduce_angle"), "count"),
        "torus.self_s": (tr.layer_self("torus"), "s"),
        "evaluator.profile_calls": (profiles, "count"),
        "evaluator.profile_s": (tr.seconds("evaluator.profile"), "s"),
        "evaluator.self_s": (tr.layer_self("evaluator"), "s"),
        "evaluator.kernel_calls_per_profile": (
            tr.counters["profile_kernel_calls"] / profiles if profiles else 0.0, "calls/profile"),
        "evaluator.jacobian_calls": (
            tr.n("evaluator.jacobian_delta") + tr.n("evaluator.jacobian_m"), "count"),
        "solver.self_s": (tr.layer_self("solver"), "s"),
        "solver.newton_iters": (newton, "count"),
        "solver.ladder_iters": (ladder, "count"),
        "solver.secant_sweeps": (sweeps, "count"),
        "solver.restarts": (tr.n("solver.restart"), "count"),
        "solver.equi_solves": (tr.n("solver.solve_equioscillation"), "count"),
        "solver.certificate_profiles": (
            tr.pair("evaluator.profile", "solver.certificate_probe"), "count"),
        "solver.certificate_s": (tr.seconds("solver.certificate_probe"), "s"),
        "solver.profiles_per_iter": (solver_profiles / iters if iters else 0.0, "profiles/iter"),
        "solver.lp_calls": (tr.n("lp.linprog"), "count"),
        "solver.lp_s": (tr.seconds("lp.linprog"), "s"),
        "solver.approximant_calls": (tr.n("kernels.approximant"), "count"),
        "oracle.self_s": (tr.layer_self("oracle"), "s"),
        "oracle.grid_minimax_s": (tr.seconds("oracle.grid_minimax"), "s"),
        "oracle.grid_sup_calls": (tr.n("oracle.grid_sup"), "count"),
        "oracle.grid_sup_s": (tr.seconds("oracle.grid_sup"), "s"),
        "oracle.sandwich_s": (tr.seconds("oracle.check_sandwich"), "s"),
        "oracle.kernel_points": (tr.counters["oracle_kernel_points"], "count"),
        "extremal.self_s": (tr.layer_self("extremal"), "s"),
        "extremal.bojanov_s": (tr.seconds("extremal.solve_bojanov"), "s"),
        "cli.self_s": (tr.layer_self("cli"), "s"),
        "cli.output_bytes": (sum(len(out.encode()) for _, _, out in records), "B"),
    }


# per-layer counters each workload must move: a hook that no longer fires
# (a renamed helper, a changed stage label) would otherwise read as a gain
REQUIRED = {
    "solve": ("evaluator.profile_calls", "solver.newton_iters", "solver.certificate_profiles",
              "solver.ladder_iters", "solver.secant_sweeps", "extremal.bojanov_s"),
    "oracle_verify": ("oracle.grid_minimax_s", "oracle.grid_sup_calls", "oracle.sandwich_s"),
}


def coverage_problems(workload, tr, metrics):
    """Every hook must exist, every required counter must be non-zero, and a
    workload that must bypass a layer must show no work in it."""
    problems = [f"traced hook {name} not found in the package" for name in tr.missing]
    problems += [f"{workload} recorded no {key}" for key in REQUIRED[workload]
                 if not metrics[key][0]]
    if workload == "oracle_verify":
        if tr.n("evaluator.profile"):
            problems.append("oracle_verify made evaluator.profile calls")
        if tr.layer_spans("solver"):
            problems.append("oracle_verify has solver spans")
    if workload == "solve" and tr.layer_spans("oracle"):
        problems.append("solve has oracle spans")
    return problems


def machine():
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


# ---------------------------------------------------------------- main

def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        *_, workdir, _, seconds = setup(args.workload, args.seed, T_START)
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0

    cli_run, tasks, paths, workdir, warm, setup_main = setup(args.workload, args.seed, T_START)
    try:
        record = measure(args, cli_run, tasks, paths, warm, setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for key, val in record["metrics"].items():
        print(f"{args.workload:14s} {key:38s} {val['value']:>16.6g} {val['unit']}")
    print(f"{args.workload:14s} {'fail_frac':38s} {record['fail_frac']:>16.6g} ratio"
          f"  ({record['failed']}/{record['attempted']} tasks)")
    for problem in record["problems"][:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def measure(args, cli_run, tasks, paths, warm, setup_main):
    judge = Judge(tasks)
    problems = [f"warm-up {t.label}: {p}" for t, (_, code, out) in zip(*warm)
                for p in judge.check(t, code, out)]
    passes = []
    setups = [setup_main]
    failed = 0
    measured = 0.0
    while True:
        budget = math.inf if len(passes) < MIN_PASSES else args.seconds - measured
        if budget <= 0:
            break
        # costly tasks are few and need few samples; skipping them in
        # most later passes gives every other task more samples per run
        sparse_off = len(passes) >= MIN_PASSES and len(passes) % SPARSE_EVERY != 0
        recs = run_pass(cli_run, tasks, paths, budget=budget, skip_sparse=sparse_off)
        measured += sum(rec[0] for rec in recs if rec)
        failed += judge.verdicts(recs)
        if args.trace:
            passes.append(recs)  # the traced passes are compared with these outputs
            break
        # outputs are not kept past their check, so peak RSS does not grow with passes
        passes.append([rec and (rec[0], rec[1], None) for rec in recs])
        # set-up samples are spread between the passes, so a slow spell of the
        # machine does not take all of them
        if len(setups) < SETUP_SAMPLES:
            setups.append(child_setup_seconds(args.workload, args.seed))
    attempted = sum(1 for recs in passes for rec in recs if rec)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(), "tasks_per_pass": len(tasks),
              "passes": len(passes), "task_samples": attempted}

    if args.trace:
        metrics, trace_problems, extra = traced(args, cli_run, tasks, paths, passes[0])
        problems += trace_problems
        record.update(extra)
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(child_setup_seconds(args.workload, args.seed))
        values = end_to_end(passes, setups)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        record["setup_samples_s"] = setups
        record["pass_wall_s"] = [sum(rec[0] for rec in recs if rec) for recs in passes]
        record["task_ms"] = [[t.label] + [round(dt * 1e3, 3) for dt in times]
                             for t, times in zip(tasks, task_seconds(passes))]

    problems += [f"task {f['task']} {f['label']}: {'; '.join(f['problems'])}"
                 for f in judge.failures]
    record.update({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return record


def traced(args, cli_run, tasks, paths, untraced):
    from probes import run_probes
    from spans import Tracer

    problems = []
    wall_untraced = sum(dt for dt, _, _ in untraced)
    tr = Tracer()
    tr.install()
    try:
        tr.calibrate()
        runs = []
        for k in range(2):
            tr.reset()
            recs = run_pass(cli_run, tasks, paths, tracer=tr)
            layers = layer_metrics(tr, recs)
            runs.append((layers, sum(dt for dt, _, _ in recs),
                         coverage_problems(args.workload, tr, layers)))
            if k == 0:
                OUT.mkdir(exist_ok=True)
                tr.save(OUT / f"spans-{args.workload}-s{args.seed}.npz")
                spans = len(tr.s_name)
            for i, ((_, c0, o0), (_, c1, o1)) in enumerate(zip(untraced, recs)):
                if (c0, o0) != (c1, o1):
                    problems.append(f"task {i} {tasks[i].label}: traced answer differs")
    finally:
        tr.uninstall()
    (first, wall_traced, bypass), (second, _, _) = runs
    problems += bypass
    for key, (val, unit) in first.items():
        if unit in ("count", "B") and val != second[key][0]:
            problems.append(f"counter {key} differs between traced passes: "
                            f"{val} vs {second[key][0]}")
    metrics = dict(first)
    metrics["trace.overhead_frac"] = (wall_traced / wall_untraced - 1.0, "ratio")
    metrics.update(run_probes())
    extra = {"spans": spans, "missing_hooks": tr.missing,
             "span_overhead_ns": tr.span_overhead_s * 1e9,
             "untraced_wall_s": wall_untraced, "traced_wall_s": wall_traced}
    return metrics, problems, extra


if __name__ == "__main__":
    sys.exit(main())
