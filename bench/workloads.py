"""Seeded task lists for the two benchmark workloads.

A task is one ``equisum`` CLI call: a command, a JSON config and the facts
the answer checker needs (closed forms where they exist).

Every task slot fixes the command, the size ``n``, the resolution and the
kernel family of each kernel (families cycle by slot index).  The seed
moves only continuous parameters and placements.  In ``solve`` a slot
also fixes its cell and a weight pattern, and the seed scales each weight
or exponent by up to 5%; it also moves the Example's parabola weight, the
table kernel's breakpoints and the perturbed start.  In ``oracle_verify``
it moves weights, exponents, sandwich cells and free node positions.  So
each slot keeps its solver path and nearly its cost from seed to seed,
and ``task_p50_ms`` and ``task_p90_ms`` read the same kind of task.

Most solve tasks are real solves: weights are unequal or the start is
away from the answer, so Newton iterates.  About 30 of the 100 start at
a closed-form answer (equal weights, n = 1 by symmetry, the Example);
they are there to pin the checker, and each builder says which they are.

The shares of the commands are a stated choice, not measured usage (no
usage data exists): they are written next to each builder.  Sizes are
held where one pass of 100 tasks costs about three seconds, so a run
repeats every task about ten times and a task's fastest pass is a steady
figure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PI = math.pi
TWO_PI = 2.0 * math.pi
LOG2 = math.log(2.0)

WORKLOADS = ("solve", "oracle_verify")

# the README Example: two tents and two lightly weighted parabolas; in cell
# (2,1,3) it equioscillates at E_POINT with every arc maximum pi + 1.5*eps*pi^2
E_POINT = (PI, PI / 2, 3 * PI / 2)
E_EPS = 0.1
E_LEVEL = PI + 0.15 * PI**2
# a grid_minimax value of the Example in cell (2,1,3) (node resolution 60):
# below the equioscillation level, so E_POINT is a sandwich witness
E_M_ESTIMATE = 4.6081


@dataclass
class Task:
    """One CLI call.  ``expect`` feeds the checker; the program never sees it.
    A ``sparse`` task takes a quarter second or more; a run times it in fewer
    passes than the rest (see ``run.py``)."""

    label: str
    command: list
    config: dict
    expect: dict = field(default_factory=dict)
    sparse: bool = False


# ------------------------------------------------------------ kernel specs

def log_sine(w=1.0):
    return _weighted({"family": "log_sine"}, w)


def riesz(p, w=1.0):
    return _weighted({"family": "riesz", "p": p}, w)


def parabola(w=1.0):
    return _weighted({"family": "parabola"}, w)


def tent():
    return {"family": "tent"}


def table_tent(rng):
    """A table kernel equal to the tent, with seeded collinear breakpoints."""
    a = _u(rng, 0.3, PI - 0.3)
    b = _u(rng, PI + 0.3, TWO_PI - 0.3)
    return {"family": "table",
            "points": [[0.0, 0.0], [a, a], [PI, PI], [b, TWO_PI - b], [TWO_PI, 0.0]]}


def smoothed(base, level, kind):
    return {"family": "smoothed", "base": base, "level": level, "kind": kind}


def _weighted(base, w):
    if w == 1.0:
        return base
    return {"family": "weighted", "weight": w, "base": base}


def example(eps=E_EPS, tents=None):
    t = tents or (tent(), tent())
    return [t[0], t[1], parabola(eps), parabola(eps)]


# ------------------------------------------------------------ helpers

def _u(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 6)


def _cell(rng, n):
    return [int(v) + 1 for v in rng.permutation(n)]


def _name(sig):
    return "".join(map(str, sig))


def _equidistant(sigma):
    """Closed-form equal-weight optimum: slot k of sigma at 2*pi*k/(n+1)."""
    n = len(sigma)
    y = [0.0] * n
    for k, idx in enumerate(sigma, start=1):
        y[idx - 1] = TWO_PI * k / (n + 1)
    return y


def _nodes(rng, n, gap=0.2):
    """Sorted free nodes with every arc at least `gap` long."""
    while True:
        y = sorted(_u(rng, 0.0, TWO_PI) for _ in range(n))
        if min(np.diff([0.0] + y + [TWO_PI])) >= gap:
            return y


def _two_log_sine_level(w0, w1):
    """max_t w0 log sin(t/2) + w1 log cos(t/2): the n = 1 level, node at pi."""
    s = w0 + w1
    return 0.5 * (w0 * math.log(w0 / s) + w1 * math.log(w1 / s))


# ------------------------------------------------------------ solve tasks
#
# Each solve slot fixes its weight pattern (below) and its cell; the seed
# scales every weight or exponent by a factor in [1 - JITTER, 1 + JITTER].
# With that jitter a smooth solve keeps its Newton iteration count from
# seed to seed, so a slot keeps its cost.  Solves on tent/parabola mixes
# are the exception: their Newton path on kinked kernels changes with any
# change of weight (a tent/tent/parabola minimax at n = 2 took 13 to 82
# Jacobians over weights 0.05-0.3).  So most kinked solves here start at
# or near the README Example's answer; the Example's boundary cell
# (1,2,3) is the one that travels far, through the homotopy ladder.

JITTER = 0.05

# weight patterns, cycled by slot index; each is a real solve from the
# equidistant start (unequal weights, so Newton iterates)
_PATTERNS = ((1.0, 1.6, 0.7, 1.3, 0.8), (1.3, 0.8, 1.1, 0.7, 1.5),
             (0.7, 1.2, 1.5, 1.0, 0.9), (1.5, 0.9, 1.0, 1.2, 0.6))
_CELLS = {2: ([1, 2], [2, 1]), 3: ([2, 3, 1], [3, 1, 2], [1, 3, 2]),
          4: ([2, 4, 1, 3], [3, 1, 4, 2])}


def _j(rng, base):
    """`base` moved by the seed within +-JITTER (relative)."""
    return round(base * (1.0 + float(rng.uniform(-JITTER, JITTER))), 6)


def _pattern(rng, i, n):
    pat = _PATTERNS[i % len(_PATTERNS)]
    return [_j(rng, pat[j % len(pat)]) for j in range(n + 1)]


def _fixed_cell(i, n):
    if n in _CELLS:
        cells = _CELLS[n]
        return list(cells[i % len(cells)])
    return list(range(1, n + 1))  # the identity cell at larger n


def _short(cmd):
    return "equi" if cmd == "equioscillate" else cmd


def _ls(rng, cmd, n, i):
    """Weighted log-sine kernels, weight pattern and cell of slot i."""
    return Task(f"{_short(cmd)}_ls_n{n}", [cmd],
                {"kernels": [log_sine(w) for w in _pattern(rng, i, n)],
                 "sigma": _fixed_cell(i, n)})


def _ls_equal(rng, cmd, n, i):
    """Equal weights: closed form -n*w*log 2 at equidistant nodes."""
    w = _j(rng, 1.2)
    sig = _fixed_cell(i, n)
    return Task(f"{cmd}_ls_equal_n{n}", [cmd],
                {"kernels": [log_sine(w)] * (n + 1), "sigma": sig},
                {"objective": -n * w * LOG2, "nodes": _equidistant(sig)})


def _mixed(rng, cmd, n, i):
    """One parabola (slot 1) among log-sine (even slots) and riesz (odd
    slots, p <= 2) kernels; at n = 2 there is no riesz slot."""
    ws = _pattern(rng, i, n)
    ks = []
    for j, w in enumerate(ws):
        if j == 1:
            ks.append(parabola(w))
        elif j % 2 == 0:
            ks.append(log_sine(w))
        else:
            ks.append(riesz(_j(rng, 1.5), w))
    return Task(f"{_short(cmd)}_mixed_n{n}", [cmd], {"kernels": ks, "sigma": _fixed_cell(i, n)})


def _maximin_n1(rng, i, mixed):
    """n = 1.  Two log-sines: by symmetry the node sits at pi, closed-form
    level.  Mixed: a log-sine and a riesz kernel, checked by invariants."""
    w0, w1 = _pattern(rng, i, 1)
    if mixed:
        return Task("maximin_mixed_n1", ["maximin"],
                    {"kernels": [log_sine(w0), riesz(_j(rng, 1.5), w1)], "sigma": [1]})
    return Task("maximin_ls_n1", ["maximin"],
                {"kernels": [log_sine(w0), log_sine(w1)], "sigma": [1]},
                {"objective": _two_log_sine_level(w0, w1), "nodes": [PI]})


def _bojanov(rng, n, i, chebyshev):
    """Interval transference; every exponent 1 gives the Chebyshev closed form."""
    a = _j(rng, -1.0)
    b = round(a + _j(rng, 2.0), 6)
    exps = [1.0] * n if chebyshev else _pattern(rng, i, n - 1)
    return Task(f"bojanov_n{n}", ["bojanov"], {"interval": [a, b], "exponents": exps})


def _gtp(rng, n, i, equal):
    """Circle product; equal exponents give equidistant nodes, norm 2^(-n r)."""
    exps = [_j(rng, 1.2)] * (n + 1) if equal else _pattern(rng, i, n)
    return Task(f"gtp_n{n}", ["gtp"], {"exponents": exps})


def _smooth(rng):
    """77 tasks on C1 kernels: equioscillate 43, minimax 13, maximin 14,
    bojanov 3, gtp 4.

    minimax and equioscillate are the solves the paper is about.  Most
    tasks are small, because a user repeats them while tuning weights and
    because a pass over the 100 tasks must stay short: the run times every
    task many times and keeps its fastest run (see run.py).
    Equioscillation at n = 2 on weighted log-sines or on log-sine/parabola
    mixes (36 slots, 4-5 Newton iterations) is the basic call and
    holds the ranks around the median.  minimax at n = 3 (8 slots, Newton
    plus the 2n-probe certificate, where ROADMAP items 2 and 5 act) with
    the n = 3 products and the n = 2 transference problems, all 55-65 ms
    on a 2-vCPU Xeon VM at full speed, hold the ranks around the 90th
    percentile; only five tasks cost more.  minimax at n = 2, the
    equal-weight minimax at n = 3 and equioscillation at n = 3 and 4 sit
    between the two.  n = 16 and n = 39
    span the sizes of the ROADMAP's profile baselines.  maximin gets 14
    slots at n = 1, its cheapest real solve (log-sine maximin at n >= 2
    takes seconds).  Closed-form tasks: one equal-weight minimax, seven
    two-log-sine maximin, one Chebyshev bojanov and one equal-exponent gtp.
    """
    return ([_maximin_n1(rng, i, mixed=i % 2 == 1) for i in range(14)]
            + [_ls(rng, "equioscillate", 2, i) for i in range(18)]
            + [_mixed(rng, "equioscillate", 2, i) for i in range(18)]
            + [_gtp(rng, 2, 0, equal=True)]
            + [_ls(rng, "minimax", 2, i) for i in range(4)]
            + [_ls_equal(rng, "minimax", 3, 0)]
            + [_ls(rng, "equioscillate", 4, 0)]
            + [_mixed(rng, "equioscillate", 3, i) for i in range(2)]
            + [_gtp(rng, 2, 1, equal=False)]
            + [_bojanov(rng, 2, 0, chebyshev=True)]
            # not pattern 0: at n = 3 the jitter flips it between 4 and 5
            # Newton iterations
            + [_ls(rng, "minimax", 3, 1 + i % 3) for i in range(8)]
            + [_gtp(rng, 3, i, equal=False) for i in range(2)]
            + [_bojanov(rng, 2, i, chebyshev=False) for i in range(1, 3)]
            + [_mixed(rng, "equioscillate", 4, i) for i in range(2)]
            + [_ls(rng, "equioscillate", 16, 1)]
            + [_sparse(_ls(rng, "equioscillate", 39, 1))])


def _sparse(task):
    task.sparse = True
    return task


def _example_eps(rng, cmd, sig, table=False):
    """The Example with a seeded parabola weight, in an interior cell."""
    eps = _u(rng, 0.06, 0.14)
    tents = (table_tent(rng), tent()) if table else None
    expect = {"objective": PI + 1.5 * eps * PI**2}
    if sig == [2, 1, 3] and cmd != "maximin":
        expect["nodes"] = list(E_POINT)
    return Task(f"example_eps_{_short(cmd)}_{_name(sig)}", [cmd],
                {"kernels": example(eps, tents), "sigma": sig}, expect)


def _example_cell(sig):
    """The Example itself; (2,1,3) and (3,1,2) equioscillate, the boundary
    cells run the ladder and secant polish and end max_iter honestly
    (about a second)."""
    expect = {"objective": E_LEVEL, "nodes": list(E_POINT)} if sig == [2, 1, 3] else {}
    return Task(f"example_equi_{_name(sig)}", ["equioscillate"],
                {"kernels": example(), "sigma": sig}, expect,
                sparse=sig not in ([2, 1, 3], [3, 1, 2]))


def _smoothed_example(level, kind, sig):
    return Task(f"example_{kind}{level}_{_name(sig)}", ["equioscillate"],
                {"kernels": [smoothed(k, level, kind) for k in example()], "sigma": sig})


def _perturbed(rng):
    """A start near the Example's equioscillation point; the level is flat
    along a direction there, so only the objective is pinned."""
    y = [round(float(v), 6) for v in np.asarray(E_POINT) + rng.normal(0.0, 0.01, 3)]
    return Task("example_perturbed_start", ["equioscillate"],
                {"kernels": example(), "sigma": [2, 1, 3], "nodes": y},
                {"objective": E_LEVEL})


def _all_sigma(kernels, label):
    return Task(label, ["minimax", "--all-sigma"], {"kernels": kernels})


# found by surveying random log-sine/riesz/parabola mixes at n = 5: with the
# parabola weighted below 0.5 direct Newton stalls, and the bump ladder plus
# the exact endgame converge it
LADDER_N5 = [log_sine(1.2405), log_sine(0.7694), riesz(1.8066, 1.6704),
             log_sine(0.9832), riesz(0.8304, 1.4156), parabola(0.1754)]


def _kinked(rng):
    """23 tasks on kinked kernels: equioscillate 13, minimax 5 (one of them
    --all-sigma), maximin 5.

    The README Example and its variants are most of them: 14
    seeded-weight Examples (closed-form level; they start at the answer),
    3 smoothed Examples, the Example in its two interior cells (closed
    form) and in boundary cell (1,2,3), which runs the homotopy ladder and
    the secant polish and ends max_iter honestly, and a perturbed start
    that takes the kinked Newton path back (9-17 iterations).  An
    --all-sigma sweep of three tents solves every cell, and one mixed C1
    minimax at n = 5 falls through to the ladder and the exact endgame.
    """
    interior = ([2, 1, 3], [3, 1, 2])
    return ([_example_eps(rng, "equioscillate", interior[i % 2], table=i < 2)
             for i in range(6)]
            + [_example_eps(rng, "maximin", [3, 1, 2]) for _ in range(5)]
            + [_example_eps(rng, "minimax", interior[i % 2]) for i in range(3)]
            + [_smoothed_example(8, "bump", [2, 1, 3]), _smoothed_example(32, "bump", [2, 1, 3]),
               _smoothed_example(16, "sqrt_cusp", [2, 1, 3])]
            + [_perturbed(rng)]
            + [_all_sigma([tent()] * 3, "minimax_all_sigma_tents_n2")]
            + [_example_cell(s) for s in ([2, 1, 3], [3, 1, 2], [1, 2, 3])]
            + [Task("minimax_mixed_ladder_n5", ["minimax"],
                    {"kernels": LADDER_N5, "sigma": [2, 5, 3, 4, 1]}, sparse=True)])


def _solve_tasks(rng):
    """100 tasks: 77 on C1 kernels and 23 on kinked ones.

    The C1 tasks spend their time in ``evaluator.profile``, the kernel
    slopes and the minimax probe certificate, on direct Newton only; the
    kinked tasks use the same evaluator with few points per kernel call
    and reach the stages the C1 tasks never do: homotopy ladder, secant
    polish, LP ascent and an honest max_iter.
    """
    return _smooth(rng) + _kinked(rng)


# ------------------------------------------------------------ oracle_verify

_SAMPLE_FAMILIES = ("tent", "parabola", "log_sine", "riesz")


def _sample(rng, i, n, res, equal):
    """Curve samples; equal log-sine at equidistant nodes has a closed form.
    Otherwise kernel j of slot i has family (i + j) mod 4 of tent,
    parabola, log-sine, riesz, with seeded weights and nodes."""
    if equal:
        w = _u(rng, 0.5, 2.0)
        return Task(f"sample_log_sine_n{n}", ["sample"],
                    {"kernels": [log_sine(w)] * (n + 1),
                     "nodes": _equidistant(list(range(1, n + 1))), "resolution": res},
                    {"equal_log_sine_weight": w})
    ks = []
    for j in range(n + 1):
        fam = _SAMPLE_FAMILIES[(i + j) % 4]
        if fam == "tent":
            ks.append(tent())
        elif fam == "parabola":
            ks.append(parabola(_u(rng, 0.05, 1.0)))
        elif fam == "log_sine":
            ks.append(log_sine(_u(rng, 0.5, 2.0)))
        else:
            ks.append(riesz(_u(rng, 0.5, 2.0)))
    return Task(f"sample_mixed_n{n}", ["sample"],
                {"kernels": ks, "nodes": _nodes(rng, n), "resolution": res})


def _sandwich(rng, n):
    """Sandwich at the exact equal-weight minimax level: no violation."""
    w = _u(rng, 0.5, 2.0)
    sig = _cell(rng, n)
    return Task(f"sandwich_ls_equal_n{n}",
                ["verify", "--check", "sandwich", "--sigma", ",".join(map(str, sig))],
                {"kernels": [log_sine(w)] * (n + 1), "m_estimate": -n * w * LOG2,
                 "samples": 4, "seed": int(rng.integers(1, 10**6))},
                {"witness": None})


def _witness(rng):
    """The Example's sandwich witness: E_POINT's smallest arc maximum exceeds M."""
    return Task("sandwich_example_witness",
                ["verify", "--check", "sandwich", "--sigma", "2,1,3"],
                {"kernels": example(), "m_estimate": E_M_ESTIMATE, "samples": 4,
                 "seed": int(rng.integers(1, 10**6)), "include": [list(E_POINT)]},
                {"witness": "include[0]"})


def _convergence(kernels, nodes, label):
    return Task(label, ["verify", "--check", "convergence"],
                {"kernels": kernels, "nodes": nodes, "levels": [4, 16, 64, 256]})


def _convergence_mixed(rng, i, n):
    """Kernel j is a tent when i + j is even, else a parabola (weight 0.05-0.3)."""
    ks = [tent() if (i + j) % 2 == 0 else parabola(_u(rng, 0.05, 0.3)) for j in range(n + 1)]
    return _convergence(ks, _nodes(rng, n), f"convergence_mixed_n{n}")


def _grid_minimax_n1(rng):
    """Brute-force minimax at n = 1: the closed-form level."""
    w0, w1 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    return Task("grid_minimax_ls_n1", ["verify", "--check", "grid-minimax"],
                {"kernels": [log_sine(w0), log_sine(w1)], "sigma": [1],
                 "node_resolution": 32},
                {"objective": _two_log_sine_level(w0, w1)}, sparse=True)


def _oracle(rng):
    """100 tasks: sample 70, sandwich 18, convergence 10, grid-minimax 2.

    sample, the cheap call a user repeats per plot, gets most of the
    tasks, at n = 1..3 and resolutions 512 (3 in 10), 1024 (2 in 10),
    2048 (4 in 10) and 4096 (1 in 10); one in seven has the equal-log-sine
    closed form.  The 2048-point samples fill the ranks around the median,
    and the n = 3 sandwich checks with the Example's witness (12) fill the
    ranks around the 90th percentile, so task_p50_ms and task_p90_ms each
    read the middle of one group of like tasks.  sandwich and convergence
    are one check per solved problem; grid-minimax, the brute-force check
    that costs about a second even at n = 1, gets 2 and still takes about
    half of a pass.
    """
    res = (512, 1024, 2048, 512, 2048, 1024, 2048, 512, 2048, 4096)
    return ([_sample(rng, i, 1 + i % 3, res[i % 10], equal=i % 7 == 0) for i in range(70)]
            + [_sandwich(rng, 2) for _ in range(6)]
            + [_sandwich(rng, 3) for _ in range(10)]
            + [_witness(rng) for _ in range(2)]
            + [_convergence_mixed(rng, i, 1 + i % 2) for i in range(7)]
            + [_convergence([tent()] * 3, [PI / 2, PI], "convergence_tents_n2")]
            + [_convergence(example(), list(E_POINT), "convergence_example")
               for _ in range(2)]
            + [_grid_minimax_n1(rng) for _ in range(2)])


def warmup(workload: str) -> list:
    """Small fixed tasks for each command of a workload, run during set-up."""
    ls2 = [log_sine(), log_sine(), log_sine()]
    t3 = [tent(), tent(), tent()]
    if workload == "solve":
        return [Task("warm_equi", ["equioscillate"], {"kernels": ls2, "sigma": [1, 2]}),
                Task("warm_minimax", ["minimax"], {"kernels": ls2, "sigma": [2, 1]}),
                Task("warm_maximin", ["maximin"], {"kernels": ls2, "sigma": [1, 2]}),
                Task("warm_bojanov", ["bojanov"], {"interval": [-1.0, 1.0], "exponents": [1.0, 1.0]}),
                Task("warm_gtp", ["gtp"], {"exponents": [1.0, 1.0, 1.0]}),
                Task("warm_example", ["equioscillate"], {"kernels": example(), "sigma": [2, 1, 3]}),
                Task("warm_tents", ["maximin"], {"kernels": t3, "sigma": [2, 1]}),
                Task("warm_all_sigma", ["minimax", "--all-sigma"], {"kernels": t3})]
    return [Task("warm_sandwich", ["verify", "--check", "sandwich", "--sigma", "1"],
                 {"kernels": ls2[:2], "m_estimate": -math.log(2.0), "samples": 2, "seed": 1},
                 {"witness": None}),
            Task("warm_convergence", ["verify", "--check", "convergence"],
                 {"kernels": [tent(), tent()], "nodes": [PI], "levels": [4, 16]}),
            Task("warm_sample", ["sample"], {"kernels": ls2, "nodes": [2.0, 4.0], "resolution": 512})]


_BUILDERS = {"solve": _solve_tasks, "oracle_verify": _oracle}


def build(workload: str, seed: int) -> list:
    """The task list of a workload: same seed, same tasks, same order.

    The list is shuffled, so that a burst of machine load hits a few
    tasks of each kind, not all of one kind at once.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tasks = _BUILDERS[workload](rng)
    return [tasks[i] for i in rng.permutation(len(tasks))]
