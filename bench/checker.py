"""Answer checker: judges one CLI output against its task, outside the timing.

It evaluates kernels with its own numpy formulas, not with ``equisum``, so a
change to the package's kernel or search code cannot also change the
reference.  Closed forms are checked where the task carries them; every
solve also has to satisfy invariants:

- each arc maximum in the report matches a dense three-level zoom of F
  over that arc (F is concave on an arc, so the zoom brackets its maximum);
- ``converged`` implies spread m_bar - m_under <= 2 * tol_residual;
- a result that is not converged has a finite residual and exit code 2;
- exit code 0 exactly when the command says it solved or verified.

The CLI writes non-finite floats as the strings "inf", "-inf" and "nan",
which ``float`` reads back.

``check`` returns a list of problems; an empty list means the answer passed.
"""
from __future__ import annotations

import json
import math

import numpy as np

PI = math.pi
TWO_PI = 2.0 * math.pi
OK, ERROR, FLAGGED = 0, 1, 2
DEFAULT_TOL = 1e-10  # SolveOptions.tol_residual


# ------------------------------------------------------------ reference F

def kernel_value(spec, t):
    """Value of a kernel config at angles t (array), by its defining formula."""
    t = np.asarray(t, dtype=float)
    fam = spec["family"]
    if fam == "weighted":
        return spec["weight"] * kernel_value(spec["base"], t)
    if fam == "sum":
        return sum(kernel_value(k, t) for k in spec["terms"])
    tt = np.mod(t, TWO_PI)
    tt = np.where(tt >= TWO_PI, 0.0, tt)
    with np.errstate(divide="ignore", over="ignore"):
        if fam == "log_sine":
            return np.log(np.abs(np.sin(tt / 2.0)))
        if fam == "riesz":
            v = -np.power(2.0 * np.sin(tt / 2.0), -float(spec["p"]))
            return np.where(np.isfinite(v), v, -np.inf)
        if fam == "tent":
            return PI - np.abs(tt - PI)
        if fam == "parabola":
            return tt * (TWO_PI - tt)
        if fam == "table":
            pts = np.asarray(spec["points"], dtype=float)
            return np.interp(tt, pts[:, 0], pts[:, 1])
        if fam == "smoothed":
            level = float(spec["level"])
            kind = spec.get("kind", "bump")
            d = np.minimum(tt, TWO_PI - tt)
            if kind == "bump":
                term = np.sqrt(np.maximum(PI * PI - (tt - PI) ** 2, 0.0)) / level
            elif kind == "sqrt_cusp":
                term = np.minimum(0.0, np.sqrt(d) - 1.0 / level)
            else:
                term = np.minimum(0.0, np.log(level * d))
            return kernel_value(spec["base"], tt) + term
    raise ValueError(f"checker has no formula for kernel family {fam!r}")


def F(kernels, positions, t):
    t = np.asarray(t, dtype=float)
    return sum(kernel_value(k, t - p) for k, p in zip(kernels, positions))


def arc_max(kernels, positions, lo, hi, points=1025, levels=3):
    """Maximum of the concave F over [lo, hi] by repeated grid zoom."""
    for _ in range(levels):
        ts = np.linspace(lo, hi, points)
        vals = F(kernels, positions, ts)
        i = int(np.argmax(vals))
        best = float(vals[i])
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, points - 1)]
        if hi - lo <= 0.0:
            break
    return best


# ------------------------------------------------------------ helpers

def _close(a, b, rtol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _node_dist(a, b):
    d = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), TWO_PI)
    return float(np.max(np.minimum(d, TWO_PI - d)))


def _tol(task):
    return float(task.config.get("options", {}).get("tol_residual", DEFAULT_TOL))


# ------------------------------------------------------------ solve reports

def _check_profile(kernels, rep, problems, where):
    """Every reported arc maximum against the reference zoom over that arc."""
    nodes = [float(v) for v in rep["nodes"]]
    positions = [0.0] + nodes
    prof = rep["profile"]
    m = [float(v) for v in prof["m"]]
    for arc in prof["arcs"]:
        lo, hi = float(arc["lo"]), float(arc["hi"])
        if hi - lo <= 1e-12:
            continue
        ref = arc_max(kernels, positions, lo, hi)
        got = m[arc["index"]]
        if not _close(got, ref, 1e-7):
            problems.append(f"{where}: arc {arc['index']} maximum {got!r} != reference {ref!r}")
    if not _close(float(prof["m_bar"]), max(m), 1e-12):
        problems.append(f"{where}: m_bar is not the largest arc maximum")


def _check_solve_report(task, kernels, rep, code, problems, where="report", certified=None):
    tol = _tol(task)
    status = rep["status"]
    prof = rep["profile"]
    spread = float(prof["m_bar"]) - float(prof["m_under"])
    residual = float(rep["residual"])
    if status == "converged":
        if not (spread <= 2.0 * tol):
            problems.append(f"{where}: converged with spread {spread!r} > 2*tol")
        if not (residual <= tol):
            problems.append(f"{where}: converged with residual {residual!r} > tol")
    elif not math.isfinite(residual):
        problems.append(f"{where}: status {status} with non-finite residual")
    if code is not None:
        solved = status == "converged" and certified is not False
        if code != (OK if solved else FLAGGED):
            problems.append(f"{where}: exit code {code} for status {status}")
    kind = rep["flags"].get("objective_kind", "m_bar")
    if not _close(float(rep["objective"]), float(prof[kind]), 1e-12):
        problems.append(f"{where}: objective is not the profile's {kind}")
    _check_profile(kernels, rep, problems, where)


def _check_expected(task, rep, problems):
    exp = task.expect
    if "objective" in exp and not _close(float(rep["objective"]), exp["objective"], 1e-8):
        problems.append(f"objective {rep['objective']!r} != closed form {exp['objective']!r}")
    if "nodes" in exp:
        dist = _node_dist(rep["nodes"], exp["nodes"])
        if dist > 1e-6:
            problems.append(f"nodes off the closed form by {dist:.3e}")


def _check_solve(task, doc, code):
    problems = []
    rep = doc["result"]
    if "--all-sigma" in task.command:
        per = rep["per_sigma"]
        best = rep["best"]
        if len(per) != math.factorial(len(task.config["kernels"]) - 1):
            problems.append("all-sigma sweep skipped a cell")
        conv = [r for r in per if r["status"] == "converged"]
        if conv and not _close(float(rep["objective"]), min(float(r["objective"]) for r in conv), 1e-12):
            problems.append("all-sigma best is not the smallest converged objective")
        _check_solve_report(task, task.config["kernels"], best, None, problems, "best")
        if code != (OK if best["status"] == "converged" else FLAGGED):
            problems.append(f"exit code {code} for best status {best['status']}")
        return problems
    certified = rep["flags"].get("local_min_certified") if task.command[0] == "minimax" else None
    _check_solve_report(task, task.config["kernels"], rep, code, problems, certified=certified)
    if rep["status"] == "converged":
        _check_expected(task, rep, problems)
    elif task.expect:
        problems.append(f"closed-form task ended {rep['status']}")
    return problems


# ------------------------------------------------------------ extremal

def _check_bojanov(task, doc, code):
    problems = []
    rep = doc["result"]
    a, b = task.config["interval"]
    nu = np.asarray(task.config["exponents"], dtype=float)
    x = np.asarray(rep["nodes"], dtype=float)
    s = np.asarray(rep["alternation"], dtype=float)
    norm = float(rep["norm"])
    gap = np.prod(np.abs(s[:, None] - x[None, :]) ** nu[None, :], axis=1)
    if not np.all(np.abs(gap - norm) <= 1e-7 * max(1.0, norm)):
        problems.append("gap product does not equioscillate on the alternation set")
    if not (s[0] == a and s[-1] == b and np.all(s[:-1] < x) and np.all(x < s[1:])):
        problems.append("nodes do not interlace the alternation points")
    # the alternation values are the sup: no interior sample may exceed them
    xs = np.linspace(a, b, 20001)
    sup = float(np.max(np.prod(np.abs(xs[:, None] - x[None, :]) ** nu[None, :], axis=1)))
    if sup > norm * (1.0 + 1e-9):
        problems.append(f"gap product reaches {sup!r} above the norm {norm!r}")
    if np.all(nu == 1.0):
        n = len(nu)
        cheb = np.sort(np.cos((2 * np.arange(1, n + 1) - 1) * PI / (2 * n)))
        ref_x = a + (b - a) * (cheb + 1.0) / 2.0
        ref_norm = ((b - a) / 2.0) ** n * 2.0 ** (1 - n)
        if float(np.max(np.abs(x - ref_x))) > 1e-7 * max(1.0, b - a):
            problems.append("nodes are not the Chebyshev nodes")
        if not _close(norm, ref_norm, 1e-9):
            problems.append(f"norm {norm!r} != Chebyshev norm {ref_norm!r}")
    flags = rep["flags"]
    ok = flags["equioscillates"] and flags["interlacing"] and flags["converged"]
    if code != (OK if ok else FLAGGED):
        problems.append(f"exit code {code} for flags {flags}")
    return problems


def _check_gtp(task, doc, code):
    problems = []
    rep = doc["result"]
    r = np.asarray(task.config["exponents"], dtype=float)
    nodes = np.asarray(rep["nodes"], dtype=float)
    norm = float(rep["norm"])
    ts = np.linspace(0.0, TWO_PI, 40001)
    with np.errstate(divide="ignore"):
        logs = np.sum(r[None, :] * np.log(np.abs(np.sin((ts[:, None] - nodes[None, :]) / 2.0))), axis=1)
    sup = float(np.max(np.exp(logs)))
    if sup > norm * (1.0 + 1e-9) or sup < norm * (1.0 - 1e-6):
        problems.append(f"sampled sup {sup!r} disagrees with norm {norm!r}")
    if np.all(r == r[0]):
        n = len(r) - 1
        if not _close(norm, 2.0 ** (-n * r[0]), 1e-8):
            problems.append("equal exponents: norm is not 2^(-n r)")
        eq = TWO_PI * np.arange(n + 1) / (n + 1)
        if _node_dist(nodes, eq) > 1e-6:
            problems.append("equal exponents: nodes are not equidistant")
    kernels = [{"family": "weighted", "weight": float(v), "base": {"family": "log_sine"}} for v in r]
    _check_solve_report(task, kernels, rep["report"], None, problems, "gtp report")
    if code != (OK if rep["report"]["status"] == "converged" else FLAGGED):
        problems.append(f"exit code {code} for status {rep['report']['status']}")
    return problems


# ------------------------------------------------------------ oracle checks

def _check_verify(task, doc, code):
    problems = []
    rep = doc["result"]
    check = task.command[task.command.index("--check") + 1]
    kernels = task.config["kernels"]
    if check == "grid-minimax":
        value = float(rep["value"])
        if not _close(float(rep["grid_sup_at_nodes"]), value, 1e-12):
            problems.append("grid_sup at the returned nodes differs from the value")
        positions = [0.0] + [float(v) for v in rep["nodes"]]
        cuts = sorted(positions) + [TWO_PI]
        ref = max(arc_max(kernels, positions, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
        if not _close(value, ref, 1e-9):
            problems.append(f"value {value!r} is not sup F {ref!r} at the returned nodes")
        exp = task.expect.get("objective")
        if exp is not None and not (exp - 1e-9 <= value <= exp + float(rep["tolerance"])):
            problems.append(f"value {value!r} outside [{exp!r}, {exp!r} + tolerance]")
        if code != OK:
            problems.append(f"exit code {code}")
    elif check == "sandwich":
        viol = rep["violations"]
        if rep["ok"] != (not viol):
            problems.append("ok flag disagrees with the violation list")
        witness = task.expect.get("witness")
        if witness is None and viol:
            problems.append(f"violations at the exact minimax level: {viol[:2]}")
        if witness is not None and not any(
                v["point"] == witness and v["kind"] == "min_arc_max_above_M" for v in viol):
            problems.append(f"expected sandwich witness {witness} is missing")
        if rep["samples"] != task.config["samples"]:
            problems.append("sample count differs from the config")
        if code != (OK if rep["ok"] else FLAGGED):
            problems.append(f"exit code {code} for ok={rep['ok']}")
    elif check == "convergence":
        n = len(kernels) - 1
        rows = rep["rows"]
        if [r["level"] for r in rows] != [float(v) for v in task.config["levels"]]:
            problems.append("levels differ from the config")
        devs = [float(r["deviation"]) for r in rows]
        bound_ok = all(d <= (n + 1) / r["level"] + 1e-7 for d, r in zip(devs, rows))
        decreasing = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
        if rep["bound_ok"] != bound_ok or rep["decreasing"] != decreasing:
            problems.append("bound_ok/decreasing flags disagree with the rows")
        if code != (OK if bound_ok and decreasing else FLAGGED):
            problems.append(f"exit code {code}")
    else:
        problems.append(f"checker does not know verify --check {check}")
    return problems


def _check_sample(task, text, code):
    problems = []
    lines = text.strip().splitlines()
    res = int(task.config["resolution"])
    if lines[0] != "t,F" or len(lines) != res + 1:
        return [f"sample: expected header and {res} rows, got {len(lines)} lines"]
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    ts = np.arange(res) * (TWO_PI / res)
    if not np.allclose(data[:, 0], ts, rtol=0.0, atol=1e-15):
        problems.append("sample grid is not k*2*pi/resolution")
    positions = [0.0] + list(task.config["nodes"])
    ref = F(task.config["kernels"], positions, ts)
    got = data[:, 1]
    finite = np.isfinite(ref)
    if not np.array_equal(finite, np.isfinite(got)):
        problems.append("sample: non-finite values in the wrong places")
    elif not np.allclose(got[finite], ref[finite], rtol=1e-12, atol=1e-12):
        problems.append("sample values differ from the reference F")
    w = task.expect.get("equal_log_sine_weight")
    if w is not None:
        n = len(positions) - 1
        with np.errstate(divide="ignore"):
            closed = w * (np.log(np.abs(np.sin((n + 1) * ts / 2.0))) - n * math.log(2.0))
        fin = np.isfinite(closed) & finite
        if not np.allclose(got[fin], closed[fin], rtol=1e-9, atol=1e-9):
            problems.append("sample values differ from log|sin((n+1)t/2)| - n log 2")
    if code != OK:
        problems.append(f"exit code {code}")
    return problems


# ------------------------------------------------------------ entry point

_BY_COMMAND = {
    "equioscillate": _check_solve,
    "minimax": _check_solve,
    "maximin": _check_solve,
    "bojanov": _check_bojanov,
    "gtp": _check_gtp,
    "verify": _check_verify,
}


def check(task, code, stdout: str) -> list:
    """Problems with one task's answer; [] when it passes.

    A command that raised (code None) or exited 1 fails outright.
    """
    if code is None:
        return ["the command raised"]
    if code == ERROR:
        return ["the command exited 1"]
    cmd = task.command[0]
    try:
        if cmd == "sample":
            return _check_sample(task, stdout, code)
        doc = json.loads(stdout)
        if doc.get("command") != cmd:
            return [f"report is for command {doc.get('command')!r}"]
        return _BY_COMMAND[cmd](task, doc, code)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc.__class__.__name__}: {exc}"]
