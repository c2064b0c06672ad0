"""Brute-force oracles and property checkers.

Everything here recomputes values from kernel evaluations alone — grids
plus golden-section refinement — deliberately sharing no search code with
the evaluator or the solvers, so agreement between the two is evidence
rather than tautology.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluator import Problem
from .torus import TWO_PI, NodeSystem, ValidationError, as_node_system, as_permutation

DEFAULT_SEED = 12345
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _F(p: Problem, positions, ts):
    """Sum of translated kernel values; oracle-local assembly."""
    ts = np.asarray(ts, dtype=float)
    acc = np.zeros(ts.shape)
    for j, k in enumerate(p.kernels):
        acc = acc + k.value(ts - positions[j])
    return acc


def _golden_max(p: Problem, positions, lo, hi, iters=80):
    """Golden-section maximum of F on [lo, hi] (concave there)."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = float(_F(p, positions, np.array([x1]))[0])
    f2 = float(_F(p, positions, np.array([x2]))[0])
    for _ in range(iters):
        if b - a < 1e-14:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = float(_F(p, positions, np.array([x2]))[0])
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = float(_F(p, positions, np.array([x1]))[0])
    if f1 >= f2:
        return x1, f1
    return x2, f2


def grid_sup(p: Problem, y, resolution: int = 4096, refine: bool = True) -> float:
    """Max of F(y, .) over a uniform circle grid, then golden refinement.

    Always a lower bound for the true sup (up to refinement rounding).
    Refinement runs one golden pass per arc between consecutive nodes —
    F is concave there — so narrow kink spikes whose sampled neighbourhood
    ranks below a smooth mode are still found.
    """
    ns = as_node_system(y)
    if resolution < 10 * (p.n + 1):
        raise ValidationError(
            f"resolution {resolution} too coarse; need at least {10 * (p.n + 1)}"
        )
    positions = ns.full_positions()
    ts = np.arange(resolution) * (TWO_PI / resolution)
    vals = _F(p, positions, ts)
    best = float(np.max(vals))
    if not refine or not math.isfinite(best):
        return best
    # F is concave between consecutive nodes, so one golden run per arc
    # nails every mode -- including narrow kink spikes the grid undersamples
    cuts = np.unique(np.concatenate(([0.0], np.sort(positions), [TWO_PI])))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 1e-13:
            continue
        _, refined = _golden_max(p, positions, lo, hi)
        if refined > best:
            best = refined
    return best


def _arc_sup(p: Problem, positions, lo, hi, resolution=512):
    """Grid + golden maximum of F over one arc [lo, hi]."""
    if hi - lo <= 1e-13:
        return float(lo), float(_F(p, positions, np.array([lo]))[0])
    ts = np.linspace(lo, hi, resolution)
    vals = _F(p, positions, ts)
    i = int(np.argmax(vals))
    best_t, best = float(ts[i]), float(vals[i])
    if math.isfinite(best):
        a = ts[max(i - 1, 0)]
        b = ts[min(i + 1, resolution - 1)]
        t2, v2 = _golden_max(p, positions, a, b)
        if v2 > best:
            best_t, best = t2, v2
    return best_t, best


def grid_profile(p: Problem, y, sigma, resolution: int = 512):
    """Arc-wise grid maxima: (labels, z, m) in traversal order."""
    ns = as_node_system(y)
    sig = as_permutation(sigma, ns.n)
    positions = ns.full_positions()
    slots = np.concatenate(([0.0], sig.slots(ns.values), [TWO_PI]))
    if np.any(np.diff(slots) < -1e-9):
        raise ValidationError("node system does not lie in the closed cell of sigma")
    slots = np.maximum.accumulate(slots)
    labels = (0,) + sig.sigma
    zs, ms = [], []
    for k in range(ns.n + 1):
        t, v = _arc_sup(p, positions, slots[k], slots[k + 1], resolution)
        zs.append(t)
        ms.append(v)
    return labels, np.asarray(zs), np.asarray(ms)


@dataclass
class GridMinimax:
    value: float
    nodes: NodeSystem
    coarse_value: float
    coarse_nodes: NodeSystem
    tolerance: float
    node_resolution: int

    def __iter__(self):  # (M_estimate, argmin nodes) unpacking
        return iter((self.value, self.nodes))

    def to_dict(self):
        return {
            "value": self.value,
            "nodes": list(self.nodes.values),
            "coarse_value": self.coarse_value,
            "coarse_nodes": list(self.coarse_nodes.values),
            "tolerance": self.tolerance,
            "node_resolution": self.node_resolution,
        }


def grid_minimax(
    p: Problem,
    sigma,
    node_resolution: int = 120,
    t_resolution: int = 512,
    refine: bool = True,
) -> GridMinimax:
    """Exhaustive sweep of node grids inside one cell, minimizing sup F.

    Cost grows as node_resolution^n, so n <= 3.  The best coarse cell is
    sharpened by a joint pattern search scored with grid_sup; ties in the
    sweep resolve to the lexicographically first grid cell.
    """
    if p.n > 3:
        raise ValidationError("grid_minimax supports n <= 3 only")
    sig = as_permutation(sigma, p.n)
    n = p.n
    R = int(node_resolution)
    if R < 4:
        raise ValidationError("node_resolution too small")
    g = TWO_PI * (np.arange(R) + 1.0) / (R + 1.0)  # strictly interior grid
    ts = np.arange(t_resolution) * (TWO_PI / t_resolution)
    base = p.kernels[0].value(ts)  # anchored kernel
    # V[k][i, :] = kernel for slot k evaluated at ts - g[i]
    V = []
    for k in range(1, n + 1):
        kern = p.kernels[sig.sigma[k - 1]]
        V.append(kern.value(ts[None, :] - g[:, None]))

    best = math.inf
    best_idx = None
    if n == 1:
        sup = np.max(base[None, :] + V[0], axis=1)
        i = int(np.argmin(sup))
        best, best_idx = float(sup[i]), (i,)
    elif n == 2:
        for i1 in range(R - 1):
            part = base + V[0][i1]
            sup = np.max(part[None, :] + V[1][i1 + 1:], axis=1)
            i = int(np.argmin(sup))
            if sup[i] < best:
                best, best_idx = float(sup[i]), (i1, i1 + 1 + i)
    else:
        for i1 in range(R - 2):
            part1 = base + V[0][i1]
            for i2 in range(i1 + 1, R - 1):
                part = part1 + V[1][i2]
                sup = np.max(part[None, :] + V[2][i2 + 1:], axis=1)
                i = int(np.argmin(sup))
                if sup[i] < best:
                    best, best_idx = float(sup[i]), (i1, i2, i2 + 1 + i)
    if best_idx is None:
        raise ValidationError("sweep found no interior configuration")

    def nodes_of(slot_values):
        return NodeSystem(tuple(sig.nodes(slot_values)))

    coarse_slots = [float(g[i]) for i in best_idx]
    coarse_nodes = nodes_of(coarse_slots)
    coarse_value = grid_sup(p, coarse_nodes, max(t_resolution, 2048), refine=True)
    step = TWO_PI / (R + 1.0)
    if not refine:
        return GridMinimax(coarse_value, coarse_nodes, coarse_value, coarse_nodes,
                           step, R)

    # joint pattern search: all slots move together, so diagonal valleys
    # (symmetric configurations) are followed correctly; the window shrinks
    # only when a round fails, letting the search walk out of a shallow
    # coarse winner into a narrow distant basin
    slots = np.asarray(coarse_slots)
    value = coarse_value
    per_axis = {1: 129, 2: 33, 3: 9}[n]
    rescores = 8  # raw-grid ranking is biased near kinks; check several
    kernels_in_slots = [p.kernels[sig.sigma[k]] for k in range(n)]
    ts_fine = np.arange(2048) * (TWO_PI / 2048)
    base_fine = p.kernels[0].value(ts_fine)

    def exact(slot_vec):
        return grid_sup(p, nodes_of(slot_vec), 4096, refine=True)

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
        moved = False
        for i in top:
            v_exact = exact(cand[int(i)])
            if v_exact < value - 1e-15:
                value = v_exact
                slots = cand[int(i)]
                moved = True
                break
        if not moved:
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
        vals = np.array([exact(c) for c in cand]) if len(cand) else np.array([])
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
class SandwichReport:
    ok: bool
    m_estimate: float
    samples: int
    seed: int
    tol: float
    violations: list = field(default_factory=list)

    def to_dict(self):
        return {
            "ok": self.ok,
            "m_estimate": self.m_estimate,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "violations": list(self.violations),
        }


def _sample_cell(rng, n, min_sep=1e-3, tries=1000):
    for _ in range(tries):
        v = np.sort(rng.uniform(0.0, TWO_PI, n))
        gaps = np.diff(np.concatenate(([0.0], v, [TWO_PI])))
        if np.min(gaps) > min_sep:
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
    sig = as_permutation(sigma, p.n)
    if m_estimate is None:
        gm = grid_minimax(p, sig)
        m_estimate = gm.value
        tol = max(tol, gm.tolerance)
    rng = np.random.default_rng(seed)
    n = p.n

    tested = []
    eq = TWO_PI * np.arange(1, n + 1) / (n + 1)
    tested.append(("equidistant", eq))
    for i, extra in enumerate(include):
        tested.append((f"include[{i}]", sig.slots(as_node_system(extra).values)))
    for i in range(samples):
        tested.append((f"sample[{i}]", _sample_cell(rng, n)))

    violations = []
    for name, slots in tested:
        ns = NodeSystem(tuple(sig.nodes(slots)))
        _, _, ms = grid_profile(p, ns, sig, resolution)
        m_lo = float(np.min(ms))
        m_hi = float(np.max(ms))
        if m_lo > m_estimate + tol:
            violations.append(
                {"point": name, "kind": "min_arc_max_above_M",
                 "nodes": [float(v) for v in ns.values],
                 "margin": m_lo - m_estimate}
            )
        if m_hi < m_estimate - tol:
            violations.append(
                {"point": name, "kind": "max_arc_max_below_M",
                 "nodes": [float(v) for v in ns.values],
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


def check_majorization(profile_x, profile_y, tol: float = 1e-12) -> str:
    """Does x majorize y?  'strict', 'weak', or 'none' on the m-vectors."""
    mx = np.asarray(profile_x.m if hasattr(profile_x, "m") else profile_x, dtype=float)
    my = np.asarray(profile_y.m if hasattr(profile_y, "m") else profile_y, dtype=float)
    if mx.shape != my.shape:
        raise ValidationError("profiles compare different numbers of arcs")
    diff = mx - my
    if np.all(diff > tol):
        return "strict"
    if np.all(diff >= -tol):
        return "weak"
    return "none"


@dataclass
class MMatrixReport:
    ok: bool
    diag_ok: bool
    offdiag_ok: bool
    colsum_ok: bool
    failures: list = field(default_factory=list)

    def __bool__(self):
        return self.ok

    def to_dict(self):
        return {
            "ok": self.ok,
            "diag_ok": self.diag_ok,
            "offdiag_ok": self.offdiag_ok,
            "colsum_ok": self.colsum_ok,
            "failures": list(self.failures),
        }


def check_mmatrix(J, tol: float = 0.0) -> MMatrixReport:
    """M-matrix test for A = -J: positive diagonal, negative off-diagonal,
    strictly positive column sums; J is a difference-map Jacobian."""
    A = -np.asarray(J, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("expected a square matrix")
    n = A.shape[0]
    failures = []
    diag_ok = bool(np.all(np.diag(A) > tol))
    off = A[~np.eye(n, dtype=bool)]
    offdiag_ok = bool(np.all(off < -tol)) if off.size else True
    sums = np.sum(A, axis=0)
    colsum_ok = bool(np.all(sums > tol))
    for i in range(n):
        for j in range(n):
            v = float(A[i, j])
            if i == j and not v > tol:
                failures.append({"entry": [i, j], "value": v, "expected": "> 0"})
            if i != j and not v < -tol:
                failures.append({"entry": [i, j], "value": v, "expected": "< 0"})
    for j in range(n):
        if not sums[j] > tol:
            failures.append({"column": j, "sum": float(sums[j]), "expected": "> 0"})
    return MMatrixReport(
        ok=diag_ok and offdiag_ok and colsum_ok,
        diag_ok=diag_ok,
        offdiag_ok=offdiag_ok,
        colsum_ok=colsum_ok,
        failures=failures,
    )


@dataclass
class ProbeRow:
    level: float
    deviation: float


@dataclass
class ProbeTable:
    kind: str
    rows: list
    decreasing: bool

    def deviations(self):
        return [r.deviation for r in self.rows]

    def to_dict(self):
        return {
            "kind": self.kind,
            "rows": [{"level": r.level, "deviation": r.deviation} for r in self.rows],
            "decreasing": self.decreasing,
        }


def convergence_probe(
    p: Problem,
    y,
    kind: str = "sqrt_cusp",
    levels=(4, 16, 64, 256),
    resolution: int = 2048,
) -> ProbeTable:
    """Sorted-arc-maxima deviation of regularized kernels from the base.

    Arc structure comes from the sorted node positions alone; deviations
    should shrink toward zero as the level grows.
    """
    from .kernels import approximant

    ns = as_node_system(y)
    positions = ns.full_positions()
    cuts = np.concatenate((np.sort(positions), [TWO_PI]))

    def sorted_m(q: Problem):
        ms = []
        for k in range(len(cuts) - 1):
            if cuts[k + 1] - cuts[k] <= 1e-13:
                continue
            _, v = _arc_sup(q, positions, cuts[k], cuts[k + 1], resolution)
            ms.append(v)
        return np.sort(np.asarray(ms))

    base = sorted_m(p)
    rows = []
    for level in levels:
        q = Problem(tuple(approximant(k, level, kind) for k in p.kernels))
        dev = float(np.max(np.abs(sorted_m(q) - base)))
        rows.append(ProbeRow(level=float(level), deviation=dev))
    devs = [r.deviation for r in rows]
    decreasing = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
    return ProbeTable(kind=kind, rows=rows, decreasing=decreasing)


def interval_gap_minimax(
    a: float,
    b: float,
    exponents,
    step: float = 1e-3,
    refine: bool = True,
):
    """Brute-force two-node Bojanov oracle on [a, b].

    Sweeps node pairs a < x1 < x2 < b on a uniform grid, computing the sup
    of prod |x - x_j|^{nu_j} in closed form (endpoint values plus the single
    interior critical point of the middle section), then coordinate-refines.
    Returns (norm, nodes).
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
    if refine:
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
