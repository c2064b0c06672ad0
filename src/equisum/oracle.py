"""Brute-force oracles and property checkers.

Everything here recomputes values from kernel evaluations alone — grids
and zoom grids — deliberately sharing no search code with the evaluator
or the solvers, so agreement between the two is evidence rather than
tautology.

Every arc maximum comes from _arc_sups: a grid on the arc, then zoom grids
on the bracket of the best point (F is concave between nodes), in lockstep
batches: one grid over every arc of every node system in a batch, then one
zoom loop that refines all those arcs together, each stopping on its own
width test.  A level costs one Kernel.value call per kernel, whatever the
batch size.  This relies on the elementwise contract stated in kernels.py:
a point's value does not depend on the array it sits in, so each batch row
reproduces, bit for bit, what it would give on its own.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluator import Problem
from .torus import (
    TWO_PI,
    NodeSystem,
    Permutation,
    Record,
    ValidationError,
    as_permutation,
    min_gap,
    node_angles,
    node_positions,
)

DEFAULT_SEED = 12345
MAJORIZATION_TOL = 1e-12  # m-vector differences within it count as equal
_ZOOM = 33  # points of a zoom grid: its best point's bracket is 1/16 of the last
_ZOOM_LEVELS = 16  # a 2*pi bracket is below 1e-14 after 13 levels


def _F(p: Problem, positions, ts):
    """Sum of translated kernel values; oracle-local assembly.

    positions is a batch (B, n+1) of full node vectors; row b is evaluated
    at the points ts[b] (ts of shape (B, ...)).
    """
    ts = np.asarray(ts, dtype=float)
    # node j's position in each row, shaped to broadcast against ts
    cols = np.asarray(positions, dtype=float).T
    cols = cols.reshape(cols.shape + (1,) * (ts.ndim - 1))
    acc = np.zeros(ts.shape)
    for j, k in enumerate(p.kernels):
        acc = acc + k.value(ts - cols[j])
    return acc


def _check_arc_resolution(resolution):
    # one point per arc is the arc's left end: no maximum is located
    if resolution < 2:
        raise ValidationError(f"resolution {resolution} too coarse; need at least 2 per arc")


def _arc_sups(p: Problem, positions, lo, hi, resolution):
    """Maxima of F over the arcs [lo[b], hi[b]], row b against positions[b]:
    arrays (t, F(t)).

    A grid of `resolution` points on each arc, then zoom levels: a grid of
    _ZOOM points on the bracket of the last grid's best point, until that
    bracket is narrower than 1e-14 or _ZOOM_LEVELS levels have run.  F is
    concave on an arc, so every bracket holds a maximizer; each arc keeps
    the best point any of its grids saw, a value of F, so a lower bound for
    the sup.  Arcs whose brackets are still wide step together, one _F call
    per level.
    """
    t = np.array(lo, dtype=float)
    v = np.empty(len(t))
    flat = hi - lo <= 1e-13  # a collapsed arc reports its left end
    v[flat] = _F(p, positions[flat], t[flat, None])[:, 0]
    rows = np.flatnonzero(~flat)
    a, b, size = lo[rows], hi[rows], resolution
    for level in range(_ZOOM_LEVELS + 1):
        if not rows.size:
            break
        # C-contiguous rows: every kernel call runs faster than on linspace's strided view
        ts = np.ascontiguousarray(np.linspace(a, b, size, axis=1))
        vals = _F(p, positions[rows], ts)
        i = np.argmax(vals, axis=1)
        k = np.arange(len(rows))
        up = vals[k, i] > v[rows] if level else np.ones(len(rows), dtype=bool)
        t[rows[up]], v[rows[up]] = ts[k[up], i[up]], vals[k[up], i[up]]
        a, b = ts[k, np.maximum(i - 1, 0)], ts[k, np.minimum(i + 1, size - 1)]
        live = np.isfinite(v[rows]) & ~(b - a < 1e-14)
        rows, a, b, size = rows[live], a[live], b[live], _ZOOM
    return t, v


def _profiles(p: Problem, slots, sig, resolution):
    """Arc maxima (z, m), each (B, n+1) in traversal order, of the node
    systems whose angles in slot order are the rows of slots (B, n), all in
    the closed cell of sig; all arcs in one batch."""
    ends = np.zeros((len(slots), 1))
    cuts = np.concatenate((ends, slots, ends + TWO_PI), axis=1)
    if np.any(np.diff(cuts, axis=1) < -1e-9):
        raise ValidationError("node system does not lie in the closed cell of sigma")
    cuts = np.maximum.accumulate(cuts, axis=1)
    arcs = cuts.shape[1] - 1
    positions = node_positions(sig.nodes(slots))
    z, m = _arc_sups(p, np.repeat(positions, arcs, axis=0), cuts[:, :-1].ravel(),
                     cuts[:, 1:].ravel(), resolution)
    return z.reshape(-1, arcs), m.reshape(-1, arcs)


def _sorted_cell(y, n):
    """(sig, slots): the ordering that sorts y's angles, and the sorted angles."""
    angles = node_angles(y, n)
    order = np.argsort(angles, kind="stable")
    return Permutation(tuple(int(k) + 1 for k in order)), angles[order]


def grid_sup(p: Problem, y, resolution: int = 4096) -> float:
    """Max of F(y, .) over the circle: the largest arc maximum between
    sorted nodes.  The n+1 arcs share the resolution, resolution // (n+1)
    grid points each, as one circle grid would.  A lower bound for the true
    sup, up to refinement rounding."""
    if resolution < 10 * (p.n + 1):
        raise ValidationError(
            f"resolution {resolution} too coarse; need at least {10 * (p.n + 1)}"
        )
    sig, slots = _sorted_cell(y, p.n)
    return float(np.max(_profiles(p, slots[None], sig, resolution // (p.n + 1))[1]))


def grid_profile(p: Problem, y, sigma, resolution: int = 512):
    """Arc-wise grid maxima: (labels, z, m) in traversal order."""
    _check_arc_resolution(resolution)
    angles = node_angles(y, p.n)
    sig = as_permutation(sigma, p.n)
    z, m = _profiles(p, sig.slots(angles)[None], sig, resolution)
    return (0,) + sig.sigma, z[0], m[0]


@dataclass
class GridMinimax(Record):
    value: float
    nodes: NodeSystem
    coarse_value: float
    coarse_nodes: NodeSystem
    tolerance: float
    node_resolution: int

    def __iter__(self):  # (M_estimate, argmin nodes) unpacking
        return iter((self.value, self.nodes))


def grid_minimax(
    p: Problem,
    sigma,
    node_resolution: int = 120,
    t_resolution: int = 512,
) -> GridMinimax:
    """Exhaustive sweep of node grids inside one cell, minimizing sup F.

    Cost grows as node_resolution^n, so n <= 3.  The best coarse cell is
    sharpened by a joint pattern search; the coarse winner and every
    candidate are scored as grid_sup(p, nodes, 4096) scores them.  Ties in
    the sweep resolve to the lexicographically first grid cell.
    """
    if p.n > 3:
        raise ValidationError("grid_minimax supports n <= 3 only")
    sig = as_permutation(sigma, p.n)
    n = p.n
    R = int(node_resolution)
    if R < 4:
        raise ValidationError("node_resolution too small")
    if t_resolution < 10 * (n + 1):
        raise ValidationError(
            f"t_resolution {t_resolution} too coarse; need at least {10 * (n + 1)}")
    g = TWO_PI * (np.arange(R) + 1.0) / (R + 1.0)  # strictly interior grid
    ts = np.arange(t_resolution) * (TWO_PI / t_resolution)
    base = p.kernels[0].value(ts)  # anchored kernel
    kernels_in_slots = [p.kernels[j] for j in sig.sigma]
    # V[k][i, :] = kernel for slot k evaluated at ts - g[i]
    V = [kern.value(ts[None, :] - g[:, None]) for kern in kernels_in_slots]

    best = math.inf
    best_idx = None

    def sweep(k, start, part, idx):
        """Slot k takes grid indices from start on, leaving one for each
        later slot; part sums the kernels of the slots before it."""
        nonlocal best, best_idx
        if k == n - 1:
            sup = np.max(part[None, :] + V[k][start:], axis=1)
            i = int(np.argmin(sup))
            if sup[i] < best:
                best, best_idx = float(sup[i]), idx + (start + i,)
            return
        for i in range(start, R - (n - 1 - k)):
            sweep(k + 1, i + 1, part + V[k][i], idx + (i,))

    sweep(0, 0, base, ())
    if best_idx is None:
        raise ValidationError("sweep found no interior configuration")

    def nodes_of(slot_values):
        return NodeSystem(sig.nodes(slot_values))

    def exact(cand):
        # grid_sup(p, nodes_of(c), 4096) of every candidate row c in one batch
        return np.max(_profiles(p, cand, sig, 4096 // (n + 1))[1], axis=1)

    coarse_slots = g[list(best_idx)]
    coarse_nodes = nodes_of(coarse_slots)
    coarse_value = float(exact(coarse_slots[None])[0])
    step = TWO_PI / (R + 1.0)

    # joint pattern search: all slots move together, so diagonal valleys
    # (symmetric configurations) are followed correctly; the window shrinks
    # only when a round fails, letting the search walk out of a shallow
    # coarse winner into a narrow distant basin
    slots = coarse_slots
    value = coarse_value
    per_axis = {1: 129, 2: 33, 3: 9}[n]
    rescores = 8  # raw-grid ranking is biased near kinks; check several
    ts_fine = np.arange(2048) * (TWO_PI / 2048)
    base_fine = p.kernels[0].value(ts_fine)

    def cell_mask(cand):
        ok = np.all((cand > 1e-9) & (cand < TWO_PI - 1e-9), axis=1)
        for k in range(n - 1):
            ok &= cand[:, k] < cand[:, k + 1]
        return ok

    # phase 1: wide windows, candidates ranked on a shared circle grid
    h = step
    for _ in range(48):
        if h < 4.0 * TWO_PI / len(ts_fine):
            break  # ranking noise exceeds true differences at this scale
        axes = [np.clip(np.linspace(slots[k] - h, slots[k] + h, per_axis),
                        1e-9, TWO_PI - 1e-9) for k in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([m.ravel() for m in mesh], axis=1)  # (C, n)
        cand = cand[cell_mask(cand)]
        if len(cand) == 0:
            h *= 0.5
            continue
        acc = np.broadcast_to(base_fine, (len(cand), len(ts_fine))).copy()
        for k in range(n):
            acc += kernels_in_slots[k].value(ts_fine[None, :] - cand[:, k, None])
        sup = np.max(acc, axis=1)
        top = np.argsort(sup, kind="stable")[:rescores]
        vals = exact(cand[top])
        better = np.flatnonzero(vals < value - 1e-15)
        if better.size:  # the first improvement in rank order
            value = float(vals[better[0]])
            slots = cand[int(top[better[0]])]
        else:
            h *= 0.5

    # phase 2: compass steps, every neighbour scored exactly; extra seeded
    # random directions cover descent cones the axis pattern can miss on
    # max-type objectives
    offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
    offsets = offsets[np.any(offsets != 0.0, axis=1)]
    rng = np.random.default_rng(20240229)
    for _ in range(96):
        if h < 1e-8:
            break
        extra = rng.standard_normal((8, n))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        cand = slots[None, :] + h * np.vstack((offsets, extra))
        cand = cand[cell_mask(cand)]
        # score each distinct row once (at n = 1 every direction is +-1)
        cand = cand[np.sort(np.unique(cand, axis=0, return_index=True)[1])]
        vals = exact(cand)
        if len(vals) and float(np.min(vals)) < value - 1e-15:
            i = int(np.argmin(vals))
            value = float(vals[i])
            slots = cand[i]
        else:
            h *= 0.5
    # direct search can stall ~1e-4 above the true cell minimum when the
    # descent cone narrows (kink-type objectives); the floor reflects that
    tolerance = max(1e-4, 2.0 * h)
    return GridMinimax(value, nodes_of(slots), coarse_value, coarse_nodes,
                       tolerance, R)


@dataclass
class SandwichReport(Record):
    ok: bool
    m_estimate: float
    samples: int
    seed: int
    tol: float
    violations: list = field(default_factory=list)


def _sample_cell(rng, n, min_sep=1e-3, tries=1000):
    for _ in range(tries):
        v = np.sort(rng.uniform(0.0, TWO_PI, n))
        if min_gap(v) > min_sep:
            return v
    raise ValidationError("could not draw a well-separated interior sample")


def check_sandwich(
    p: Problem,
    sigma,
    m_estimate: float | None = None,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-9,
    include=(),
    resolution: int = 512,
) -> SandwichReport:
    """Test min-arc-max(x) <= M(S) <= max-arc-max(y) on random interior points.

    M(S) defaults to the grid_minimax estimate, in which case `tol` is
    widened to that estimate's own tolerance — margins below the
    uncertainty of M are not resolvable.  The equidistant configuration is
    always among the tested points, plus any in `include`; each violation
    is reported with its margin.
    """
    _check_arc_resolution(resolution)
    if samples < 0:
        raise ValidationError(f"samples must be at least 0, got {samples}")
    sig = as_permutation(sigma, p.n)
    if m_estimate is None:
        gm = grid_minimax(p, sig)
        m_estimate = gm.value
        tol = max(tol, gm.tolerance)
    rng = np.random.default_rng(seed)
    n = p.n

    include = [sig.slots(node_angles(extra, n)) for extra in include]
    names = (["equidistant"] + [f"include[{i}]" for i in range(len(include))]
             + [f"sample[{i}]" for i in range(samples)])
    slots = np.array([TWO_PI * np.arange(1, n + 1) / (n + 1)] + include
                     + [_sample_cell(rng, n) for _ in range(samples)])
    _, profiles = _profiles(p, slots, sig, resolution)
    violations = []
    for name, row, ms in zip(names, slots, profiles):
        m_lo = float(np.min(ms))
        m_hi = float(np.max(ms))
        if m_lo > m_estimate + tol:
            violations.append(
                {"point": name, "kind": "min_arc_max_above_M",
                 "nodes": sig.nodes(row).tolist(),
                 "margin": m_lo - m_estimate}
            )
        if m_hi < m_estimate - tol:
            violations.append(
                {"point": name, "kind": "max_arc_max_below_M",
                 "nodes": sig.nodes(row).tolist(),
                 "margin": m_estimate - m_hi}
            )
    return SandwichReport(
        ok=not violations,
        m_estimate=float(m_estimate),
        samples=samples,
        seed=seed,
        tol=tol,
        violations=violations,
    )


def check_majorization(profile_x, profile_y) -> str:
    """Does x majorize y?  'strict', 'weak', or 'none' on the m-vectors."""
    mx = np.asarray(profile_x.m if hasattr(profile_x, "m") else profile_x, dtype=float)
    my = np.asarray(profile_y.m if hasattr(profile_y, "m") else profile_y, dtype=float)
    if mx.shape != my.shape:
        raise ValidationError("profiles compare different numbers of arcs")
    diff = mx - my
    if np.all(diff > MAJORIZATION_TOL):
        return "strict"
    if np.all(diff >= -MAJORIZATION_TOL):
        return "weak"
    return "none"


@dataclass
class MMatrixReport(Record):
    ok: bool
    diag_ok: bool
    offdiag_ok: bool
    colsum_ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def check_mmatrix(J) -> MMatrixReport:
    """M-matrix test for A = -J: positive diagonal, negative off-diagonal,
    strictly positive column sums; J is a difference-map Jacobian."""
    A = -np.asarray(J, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("expected a square matrix")
    eye = np.eye(A.shape[0], dtype=bool)
    sums = np.sum(A, axis=0)
    # each condition once, as the mask of the entries that break it (NaN breaks all)
    bad_diag = eye & ~(A > 0.0)
    bad_off = ~eye & ~(A < 0.0)
    bad_sum = ~(sums > 0.0)
    failures = [{"entry": [int(i), int(j)], "value": float(A[i, j]),
                 "expected": "> 0" if i == j else "< 0"}
                for i, j in np.argwhere(bad_diag | bad_off)]
    failures += [{"column": int(j), "sum": float(sums[j]), "expected": "> 0"}
                 for j in np.flatnonzero(bad_sum)]
    return MMatrixReport(
        ok=not failures,
        diag_ok=not bad_diag.any(),
        offdiag_ok=not bad_off.any(),
        colsum_ok=not bad_sum.any(),
        failures=failures,
    )


@dataclass
class ProbeRow(Record):
    level: float
    deviation: float


@dataclass
class ProbeTable(Record):
    kind: str
    rows: list
    decreasing: bool
    bound_ok: bool  # every deviation <= (n + 1)/level + 1e-7

    def deviations(self):
        return [r.deviation for r in self.rows]


def convergence_probe(
    p: Problem,
    y,
    kind: str = "sqrt_cusp",
    levels=(4, 16, 64, 256),
    resolution: int = 2048,
) -> ProbeTable:
    """Sorted-arc-maxima deviation of regularized kernels from the base.

    Arc structure comes from the sorted node positions alone, arcs of
    width at most 1e-13 left out; deviations
    should shrink toward zero as the level grows (decreasing), each within
    (n + 1)/level + 1e-7 (bound_ok).
    """
    from .kernels import approximant

    _check_arc_resolution(resolution)
    if len(levels) == 0:
        raise ValidationError("convergence_probe needs at least one level")
    sig, slots = _sorted_cell(y, p.n)
    wide = ~(np.diff(np.concatenate(([0.0], slots, [TWO_PI]))) <= 1e-13)

    def sorted_m(q: Problem):
        return np.sort(_profiles(q, slots[None], sig, resolution)[1][0, wide])

    base = sorted_m(p)
    rows = []
    for level in levels:
        q = Problem(tuple(approximant(k, level, kind) for k in p.kernels))
        dev = float(np.max(np.abs(sorted_m(q) - base)))
        rows.append(ProbeRow(level=float(level), deviation=dev))
    devs = [r.deviation for r in rows]
    decreasing = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    bound_ok = all(r.deviation <= (p.n + 1) / r.level + 1e-7 for r in rows)
    return ProbeTable(kind=kind, rows=rows, decreasing=decreasing, bound_ok=bound_ok)


def interval_gap_minimax(
    a: float,
    b: float,
    exponents,
    step: float = 1e-3,
):
    """Brute-force two-node Bojanov oracle on [a, b].

    Sweeps node pairs a < x1 < x2 < b on a uniform grid, computing the sup
    of prod |x - x_j|^{nu_j} in closed form (endpoint values plus the single
    interior critical point of the middle section), then refines by local
    2-D scans.  Returns (norm, nodes).
    """
    nu = np.asarray(exponents, dtype=float)
    if nu.shape != (2,) or np.any(nu <= 0):
        raise ValidationError("interval_gap_minimax handles exactly two positive exponents")
    if not b > a:
        raise ValidationError("need a < b")
    n1, n2 = float(nu[0]), float(nu[1])

    def sup_gap(x1, x2):
        # endpoint values and the interior critical point of the middle piece
        pa = (x1 - a) ** n1 * (x2 - a) ** n2
        pb = (b - x1) ** n1 * (b - x2) ** n2
        xc = (n1 * x2 + n2 * x1) / (n1 + n2)
        pc = (xc - x1) ** n1 * (x2 - xc) ** n2
        return np.maximum(np.maximum(pa, pb), pc)

    grid = np.arange(a + step, b - step / 2, step)
    x1g, x2g = np.meshgrid(grid, grid, indexing="ij")
    mask = x1g < x2g
    sup = np.where(mask, sup_gap(x1g, x2g), np.inf)
    i, j = np.unravel_index(int(np.argmin(sup)), sup.shape)
    best = float(sup[i, j])
    x1, x2 = float(grid[i]), float(grid[j])
    # local 2-D scans: coordinate moves alone cannot track the diagonal
    # valley of near-symmetric configurations
    h = step
    for _ in range(40):
        c1 = np.clip(np.linspace(x1 - h, x1 + h, 17), a + 1e-12, b - 1e-12)
        c2 = np.clip(np.linspace(x2 - h, x2 + h, 17), a + 1e-12, b - 1e-12)
        g1, g2 = np.meshgrid(c1, c2, indexing="ij")
        ok = g1 < g2
        vals = np.where(ok, sup_gap(g1, g2), np.inf)
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[i, j] < best:
            best = float(vals[i, j])
            x1, x2 = float(g1[i, j]), float(g2[i, j])
        h *= 0.25
        if h < 1e-13:
            break
    return best, (x1, x2)
