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
from dataclasses import dataclass, field

import numpy as np

from .kernels import CapabilityError, Kernel
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


def _slope_sum(p: Problem, pos, ts, side):
    """One-sided slope of t -> F(y, t) at each entry of ts."""
    ts = np.asarray(ts, dtype=float)
    acc = np.zeros(ts.shape, dtype=float)
    for j, k in enumerate(p.kernels):
        acc = acc + np.asarray(k.deriv(ts - pos[j], side))
    return acc


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


def _bisect_mask(p, pos, lo, hi, mask, side, want_positive, iters):
    """Vectorized bisection for the edge of {slope > 0} (or {slope >= 0}).

    Maintains pred(lo)=True, pred(hi)=False on masked entries; predicates are
    evaluated with the requested one-sided slope.
    """
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        s = _slope_sum(p, pos, mid, side)
        pred = (s > 0.0) if want_positive else (s >= 0.0)
        take = mask & pred
        lo = np.where(take, mid, lo)
        hi = np.where(mask & ~pred, mid, hi)
    return 0.5 * (lo + hi)


def _arc_maxima(p: Problem, pos, los, his, tol_z):
    """Maximizing set edges for each arc, by bisection on one-sided slopes.

    For concave F the set of maximizers of an arc is [t_left, t_right] with
    t_left the edge of {D+ F > 0} and t_right the edge of {D- F >= 0}; either
    may sit on the arc boundary.  Returns (z, m, on_boundary, unique) arrays.
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
        at_lo = active & (dpa <= 0.0)
        at_hi = active & (dmb > 0.0)
        mid_mask = active & ~at_lo & ~at_hi
        tl = np.where(at_lo, los, np.where(at_hi, his, los))
        if np.any(mid_mask):
            tl_b = _bisect_mask(p, pos, los, his, mid_mask, "right", True, iters)
            tl = np.where(mid_mask, tl_b, tl)
        t_left = np.where(active, tl, t_left)

        # right edge: hi if still non-decreasing at hi, lo if decreasing at lo
        at_hi_r = active & (dmb >= 0.0)
        at_lo_r = active & (dpa < 0.0)
        mid_mask_r = active & ~at_hi_r & ~at_lo_r
        tr = np.where(at_hi_r, his, np.where(at_lo_r, los, his))
        if np.any(mid_mask_r):
            tr_b = _bisect_mask(p, pos, los, his, mid_mask_r, "left", False, iters)
            tr = np.where(mid_mask_r, tr_b, tr)
        t_right = np.where(active, tr, t_right)

    t_right = np.maximum(t_right, t_left)
    z = 0.5 * (t_left + t_right)
    z = np.where(degenerate, los, z)

    m = np.zeros_like(z)
    for j, k in enumerate(p.kernels):
        m = m + np.asarray(k.value(z - pos[j]))

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
    rows = np.empty((p.n + 1, p.n), dtype=float)
    for r in range(1, p.n + 1):
        k = p.kernels[r]
        argd = z - positions[r]
        if relaxed:
            d = 0.5 * (np.asarray(k.deriv(argd, "left")) + np.asarray(k.deriv(argd, "right")))
        else:
            d = np.asarray(k.deriv(argd, "right"))
        rows[:, r - 1] = -d
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
