"""Sum-of-translates functions and their per-arc maxima.

Given kernels K_0..K_n and free nodes y_1..y_n, the object of study is

    F(y, t) = K_0(t) + sum_j K_j(t - y_j),

a concave function on each arc cut out by the nodes.  For an ordering sigma
the profile collects, per arc, the maximum m_j and a maximizer z_j; the
interior solvers work with the vector of consecutive differences of the
m's taken in traversal order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import CapabilityError, Kernel, Weighted, kernel_weight
from .torus import (
    ANGLE_TOL,
    TWO_PI,
    ArcPartition,
    NodeSystem,
    Permutation,
    ValidationError,
    arcs,
    as_node_system,
    as_permutation,
)

INF = math.inf

# endpoint bisection resolution: absolute angle tolerance
TOL_Z = 1e-12 * TWO_PI

# A bracket wider than this, inside an arc with no node in its interior,
# keeps its midpoint t so far from every node y_j that t - y_j never reduces
# to the glue point: the rounding of the subtraction and of reduce_angle is
# a few ulps of 2*pi.
_GLUE_CLEAR = 16.0 * float(np.spacing(TWO_PI))


class JacobianUnavailableError(RuntimeError):
    """The slope formula for the profile Jacobian does not apply here."""


@dataclass(frozen=True)
class Problem:
    """n+1 kernels; kernel 0 sits at the fixed node, kernel j at y_j."""

    kernels: tuple

    def __post_init__(self):
        ks = tuple(self.kernels)
        if len(ks) < 2:
            raise ValidationError("a problem needs at least two kernels (n >= 1)")
        for k in ks:
            if not isinstance(k, Kernel):
                raise ValidationError(f"not a kernel: {k!r}")
        object.__setattr__(self, "kernels", ks)

    @property
    def n(self) -> int:
        return len(self.kernels) - 1

    def classifications(self):
        return [k.classify() for k in self.kernels]

    def spec(self):
        return [k.spec() for k in self.kernels]

    @cached_property
    def slope_plan(self):
        """Kernels grouped by base kernel, built on first use.

        A tuple of (base, kernel indices, weights): kernel idx[i] equals
        weights[i] * base, with a leading Weighted unwrapped.  Bases with the
        same type and spec behave alike, so one deriv call serves a group.
        """
        groups = {}
        for j, k in enumerate(self.kernels):
            base = k.base if isinstance(k, Weighted) else k
            key = (type(base), repr(base.spec()))
            _, idx, w = groups.setdefault(key, (base, [], []))
            idx.append(j)
            w.append(kernel_weight(k))
        return tuple(
            (base, np.asarray(idx), np.asarray(w, dtype=float))
            for base, idx, w in groups.values()
        )

    @cached_property
    def all_c1(self) -> bool:
        return all(c.c1 for c in self.classifications())


def sum_translates(p: Problem, y, t):
    """F(y, t); scalar or array t.  -inf at singular nodes."""
    ns = as_node_system(y)
    if ns.n != p.n:
        raise ValidationError(f"node system has {ns.n} nodes, problem expects {p.n}")
    return sum_translates_full(p, ns.full_positions(), t)


def sum_translates_full(p: Problem, positions, t):
    """Sum of all kernels at explicit positions (no fixed node assumed)."""
    pos = np.asarray(positions, dtype=float)
    if pos.size != len(p.kernels):
        raise ValidationError(
            f"{pos.size} positions for {len(p.kernels)} kernels"
        )
    tt = np.asarray(t, dtype=float)
    acc = np.zeros(tt.shape, dtype=float)
    for j, k in enumerate(p.kernels):
        acc = acc + np.asarray(k.value(tt - pos[j]))
    if np.ndim(t) == 0:
        return float(acc)
    return acc


def _slopes(p: Problem, pos, ts, side):
    """Per-kernel one-sided slopes K_j'(t - pos_j): shape (n+1,) + shape of ts.

    One deriv call per group of p.slope_plan, on the (group, points) grid.
    """
    ts = np.asarray(ts, dtype=float)
    col = (-1,) + (1,) * ts.ndim
    out = np.empty((len(p.kernels),) + ts.shape, dtype=float)
    for base, idx, w in p.slope_plan:
        grid = ts - pos[idx].reshape(col)
        out[idx] = w.reshape(col) * np.asarray(base.deriv(grid, side))
    return out


def _slope_sum(p: Problem, pos, ts, side):
    """One-sided slope of t -> F(y, t) at each entry of ts.

    The running sum adds the kernels in index order, one at a time, so the
    result does not depend on how the slopes were grouped.
    """
    return np.cumsum(_slopes(p, pos, ts, side), axis=0)[-1]


@dataclass
class ArcMax:
    z: float
    m: float
    z_on_boundary: bool
    unique: bool


@dataclass
class ArcProfile:
    """Per-arc maxima of F(y, .) under an ordering sigma.

    Traversal arrays follow the arcs counterclockwise from the fixed node;
    `labels[k]` is the arc index of traversal slot k.  Indexed accessors
    report quantities by arc index j = 0..n.
    """

    sigma: Permutation
    partition: ArcPartition
    labels: tuple
    z_trav: np.ndarray
    m_trav: np.ndarray
    z_on_boundary_trav: np.ndarray
    unique_trav: np.ndarray

    def _to_index(self, arr):
        out = np.empty_like(np.asarray(arr))
        out[list(self.labels)] = np.asarray(arr)
        return out

    @property
    def z(self) -> np.ndarray:
        return self._to_index(self.z_trav)

    @property
    def m(self) -> np.ndarray:
        return self._to_index(self.m_trav)

    @property
    def z_on_boundary(self) -> np.ndarray:
        return self._to_index(self.z_on_boundary_trav)

    @property
    def unique(self) -> np.ndarray:
        return self._to_index(self.unique_trav)

    @property
    def m_bar(self) -> float:
        return float(np.max(self.m_trav))

    @property
    def m_under(self) -> float:
        return float(np.min(self.m_trav))

    def arc_max(self, j: int) -> ArcMax:
        k = list(self.labels).index(j)
        return ArcMax(
            z=float(self.z_trav[k]),
            m=float(self.m_trav[k]),
            z_on_boundary=bool(self.z_on_boundary_trav[k]),
            unique=bool(self.unique_trav[k]),
        )

    def to_dict(self):
        return {
            "sigma": list(self.sigma.sigma),
            "arcs": [
                {"index": a.index, "lo": a.lo, "hi": a.hi}
                for a in self.partition.arcs
            ],
            "z": [float(v) for v in self.z],
            "m": [float(v) for v in self.m],
            "m_bar": self.m_bar,
            "m_under": self.m_under,
            "z_on_boundary": [bool(v) for v in self.z_on_boundary],
            "unique_max": [bool(v) for v in self.unique],
        }


def _arc_maxima(p: Problem, pos, los, his, tol_z):
    """Maximizing set edges for each arc, by bisection on one-sided slopes.

    For concave F the set of maximizers of an arc is [t_left, t_right] with
    t_left the edge of {D+ F > 0} and t_right the edge of {D- F >= 0}; either
    may sit on the arc boundary.  Both edges of every arc that needs one are
    bisected in one loop.  Returns (z, m, on_boundary, unique) arrays.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    length = his - los
    degenerate = length <= ANGLE_TOL
    active = ~degenerate

    t_left = los.copy()
    t_right = his.copy()

    if np.any(active):
        dpa = _slope_sum(p, pos, los, "right")
        dmb = _slope_sum(p, pos, his, "left")
        span = float(np.max(length[active]))
        iters = max(8, int(math.ceil(math.log2(max(span / max(tol_z, 1e-300), 2.0)))) + 2)

        # left edge: lo if already non-increasing, hi if still increasing at hi
        at_lo, at_hi = dpa <= 0.0, dmb > 0.0
        t_left = np.where(active & ~at_lo & at_hi, his, los)
        L = np.flatnonzero(active & ~at_lo & ~at_hi)
        # right edge: hi if still non-decreasing at hi, lo if decreasing at lo
        at_lo, at_hi = dpa < 0.0, dmb >= 0.0
        t_right = np.where(active & ~at_hi & at_lo, los, his)
        R = np.flatnonzero(active & ~at_hi & ~at_lo)

        # one bracket per edge: the left edges first, then the right edges;
        # pred(lo) stays True and pred(hi) False, with pred D+ F > 0 on the
        # left edges and D- F >= 0 on the right edges
        nl = len(L)
        lo = np.concatenate((los[L], los[R]))
        hi = np.concatenate((his[L], his[R]))
        # For C1 kernels D- F equals D+ F off the glue point, so one "right"
        # call serves both edges while no right-edge midpoint can meet a node.
        shared = p.all_c1 and bool(np.all(
            (pos[None, :] <= los[R, None]) | (pos[None, :] >= his[R, None])))
        for _ in range(iters if len(lo) else 0):
            mid = 0.5 * (lo + hi)
            if shared and float(np.min(hi[nl:] - lo[nl:], initial=INF)) > _GLUE_CLEAR:
                s = _slope_sum(p, pos, mid, "right")
            else:
                s = np.empty_like(mid)
                if nl:
                    s[:nl] = _slope_sum(p, pos, mid[:nl], "right")
                if len(R):
                    s[nl:] = _slope_sum(p, pos, mid[nl:], "left")
            pred = s >= 0.0
            pred[:nl] = s[:nl] > 0.0
            lo = np.where(pred, mid, lo)
            hi = np.where(pred, hi, mid)
        edge = 0.5 * (lo + hi)
        t_left[L] = edge[:nl]
        t_right[R] = edge[nl:]

    t_right = np.maximum(t_right, t_left)
    z = 0.5 * (t_left + t_right)
    z = np.where(degenerate, los, z)
    m = sum_translates_full(p, pos, z)

    b_tol = max(4.0 * tol_z, 1e-12)
    on_boundary = degenerate | (z - los <= b_tol) | (his - z <= b_tol)
    unique = degenerate | ((t_right - t_left) <= max(8.0 * tol_z, 1e-10))
    return z, m, on_boundary, unique


def profile(p: Problem, y, sigma, *, tol_z: float = TOL_Z) -> ArcProfile:
    """Arc maxima, maximizers and aggregates of F(y, .) under sigma."""
    ns = as_node_system(y)
    if ns.n != p.n:
        raise ValidationError(f"node system has {ns.n} nodes, problem expects {p.n}")
    sig = as_permutation(sigma, ns.n)
    part = arcs(ns, sig)
    pos = ns.full_positions()
    los = np.asarray([a.lo for a in part.arcs])
    his = np.asarray([a.hi for a in part.arcs])
    z, m, onb, uni = _arc_maxima(p, pos, los, his, tol_z)
    return ArcProfile(
        sigma=sig,
        partition=part,
        labels=sig.labels(),
        z_trav=z,
        m_trav=m,
        z_on_boundary_trav=onb,
        unique_trav=uni,
    )


def arc_max(p: Problem, y, sigma, j: int, *, tol_z: float = TOL_Z) -> ArcMax:
    """Maximum of F(y, .) over the single arc with index j."""
    prof = profile(p, y, sigma, tol_z=tol_z)
    return prof.arc_max(j)


def delta(p: Problem, y, sigma, prof: ArcProfile | None = None, *, tol_z: float = TOL_Z):
    """Consecutive differences of arc maxima in traversal order.

    Zero exactly at equioscillation.  A pair of -inf maxima (doubly
    degenerate boundary data) is reported as +inf: no finite comparison.
    """
    if prof is None:
        prof = profile(p, y, sigma, tol_z=tol_z)
    m = prof.m_trav
    with np.errstate(invalid="ignore"):
        d = m[1:] - m[:-1]
    both = np.isneginf(m[1:]) & np.isneginf(m[:-1])
    d = np.where(both, INF, d)
    return d


def _slope_rows(p: Problem, y, sigma, prof, relaxed: bool, tol_z: float):
    """Rows (traversal order) of the maximizer-slope matrix -K_r'(z_k - y_r).

    The slope formula holds when every kernel is C1 and every maximizer is
    strictly inside its arc; relaxed=True skips that check and takes midpoint
    slopes at kinks, so entries may be nan when a maximizer collides with a
    singular node.  Returns (rows, profile).
    """
    ns = as_node_system(y)
    sig = as_permutation(sigma, ns.n)
    if prof is None:
        prof = profile(p, ns, sig, tol_z=tol_z)
    if not relaxed:
        for k in p.kernels:
            if not k.classify().c1:
                raise CapabilityError(
                    f"jacobian slope formula needs C1 kernels; {k.family} is not"
                )
        if bool(np.any(prof.z_on_boundary_trav)):
            raise JacobianUnavailableError(
                "a maximizer sits on an arc boundary; the slope formula fails there"
            )
    positions = ns.full_positions()
    z = prof.z_trav
    if relaxed:
        d = 0.5 * (_slopes(p, positions, z, "left") + _slopes(p, positions, z, "right"))
    else:
        d = _slopes(p, positions, z, "right")
    rows = -d[1:].T
    return rows, prof


def jacobian_m(
    p: Problem,
    y,
    sigma,
    prof: ArcProfile | None = None,
    *,
    relaxed: bool = False,
    tol_z: float = TOL_Z,
):
    """Sensitivity of the arc maxima to the free nodes: (n+1) x n, by arc index.

    Entry (j, r-1) is -K_r'(z_j - y_r); see _slope_rows for when it holds.
    """
    rows_trav, prof = _slope_rows(p, y, sigma, prof, relaxed, tol_z)
    out = np.empty_like(rows_trav)
    out[list(prof.labels), :] = rows_trav
    return out


def jacobian_delta(
    p: Problem,
    y,
    sigma,
    prof: ArcProfile | None = None,
    *,
    relaxed: bool = False,
    tol_z: float = TOL_Z,
):
    """Jacobian of the traversal difference vector, n x n."""
    rows_trav, _ = _slope_rows(p, y, sigma, prof, relaxed, tol_z)
    return rows_trav[1:, :] - rows_trav[:-1, :]
