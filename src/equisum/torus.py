"""Geometry of the circle of circumference 2*pi.

Angles live in [0, 2*pi).  A node system is a list of n free angles
y_1..y_n; the angle 0 always carries an extra, fixed node (index 0), and
2*pi is the same point seen from the other side.  An ordering of the free
nodes is a permutation sigma of {1..n}, extended by sigma(0) = 0 and
sigma(n+1) = n+1, and it carves the circle into n+1 closed arcs

    I_j = [y_sigma(k), y_sigma(k+1)]   with j = sigma(k),  k = 0..n,

where y_0 = 0 and y_{n+1} = 2*pi.  Arcs may be degenerate.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi

# two angles closer than this are treated as the same point
ANGLE_TOL = 1e-12


class ValidationError(ValueError):
    """Bad input: malformed node system, permutation, kernel config, ..."""


def reduce_angle(t):
    """Map angles into [0, 2*pi).  Works on scalars and arrays."""
    r = np.mod(t, TWO_PI)
    # rounding can land a tiny negative exactly on 2*pi
    r = np.where(r >= TWO_PI, r - TWO_PI, r)
    if np.ndim(t) == 0:
        return float(r)
    return r


def torus_dist(a, b):
    """Shortest angular distance on the circle."""
    d = np.abs(reduce_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    d = np.where(d > PI, TWO_PI - d, d)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(d)
    return d


def node_dist(x, y):
    """Max of coordinatewise circle distances between two node systems."""
    xv = np.asarray(getattr(x, "values", x), dtype=float)
    yv = np.asarray(getattr(y, "values", y), dtype=float)
    if xv.shape != yv.shape:
        raise ValidationError(
            f"node systems have different sizes: {xv.shape} vs {yv.shape}"
        )
    if xv.size == 0:
        return 0.0
    return float(np.max(torus_dist(xv, yv)))


@dataclass(frozen=True)
class NodeSystem:
    """n free node angles, reduced into [0, 2*pi).  Node 0 at angle 0 is implicit."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(reduce_angle(v)) for v in self.values)
        for v in vals:
            if not math.isfinite(v):
                raise ValidationError(f"node angle not finite: {v!r}")
        if len(vals) < 1:
            raise ValidationError("a node system needs at least one free node")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def full_positions(self) -> np.ndarray:
        """Positions of all n+1 nodes: the fixed one at 0, then y_1..y_n."""
        return np.concatenate(([0.0], self.array))

    def replace(self, index: int, value: float) -> "NodeSystem":
        vals = list(self.values)
        vals[index - 1] = value
        return NodeSystem(tuple(vals))


def as_node_system(y) -> NodeSystem:
    if isinstance(y, NodeSystem):
        return y
    return NodeSystem(tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist()))


@dataclass(frozen=True)
class Permutation:
    """Ordering of the free nodes: sigma maps slot k (1-based) to a node index."""

    sigma: tuple

    def __post_init__(self):
        s = tuple(int(v) for v in self.sigma)
        n = len(s)
        if sorted(s) != list(range(1, n + 1)):
            raise ValidationError(f"not a permutation of 1..{n}: {s}")
        object.__setattr__(self, "sigma", s)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.sigma)

    def extended(self, k: int) -> int:
        """sigma with the fixed endpoints attached: sigma(0)=0, sigma(n+1)=n+1."""
        if k == 0:
            return 0
        if k == self.n + 1:
            return self.n + 1
        return self.sigma[k - 1]

    def labels(self) -> tuple:
        """Arc labels in traversal order: sigma(0), sigma(1), ..., sigma(n)."""
        return (0,) + self.sigma

    def slots(self, values) -> np.ndarray:
        """Per-node values (node j at position j-1) rearranged in slot order."""
        return np.asarray(values, dtype=float)[np.asarray(self.sigma) - 1]

    def nodes(self, slots) -> np.ndarray:
        """Inverse of slots: slot k's value goes to node sigma(k)."""
        out = np.empty(self.n)
        out[np.asarray(self.sigma) - 1] = slots
        return out


def as_permutation(sigma, n=None) -> Permutation:
    if isinstance(sigma, Permutation):
        return sigma
    if sigma is None:
        if n is None:
            raise ValidationError("sigma is required")
        return Permutation.identity(n)
    return Permutation(tuple(int(v) for v in np.atleast_1d(sigma)))


@dataclass(frozen=True)
class SimplexLocation:
    """Where a node system sits: inside one ordering cell, or on a face."""

    kind: str  # "interior" | "boundary"
    sigmas: tuple  # compatible orderings; exactly one when interior

    @property
    def sigma(self) -> Permutation:
        return self.sigmas[0]


def locate(y, tol: float = ANGLE_TOL, max_orderings: int = 5040) -> SimplexLocation:
    """Classify a node system as interior to a unique ordering cell or boundary.

    Boundary means some free nodes coincide (within tol) with each other or
    with the fixed node at 0; then every ordering consistent with the sorted
    arrangement is reported.
    """
    ns = as_node_system(y)
    vals = ns.array
    n = ns.n
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]

    # group indices whose angles chain together within tol
    groups = [[int(order[0]) + 1]]
    for i in range(1, n):
        if sorted_vals[i] - sorted_vals[i - 1] <= tol:
            groups[-1].append(int(order[i]) + 1)
        else:
            groups.append([int(order[i]) + 1])

    touches_anchor = sorted_vals[0] <= tol or (TWO_PI - sorted_vals[-1]) <= tol
    has_ties = any(len(g) > 1 for g in groups)

    if not has_ties and not touches_anchor:
        sigma = Permutation(tuple(int(order[k]) + 1 for k in range(n)))
        return SimplexLocation("interior", (sigma,))

    count = 1
    for g in groups:
        count *= math.factorial(len(g))
    if count > max_orderings:
        raise ValidationError(
            f"{count} compatible orderings exceed the cap {max_orderings}"
        )
    sigmas = []
    for combo in itertools.product(*[itertools.permutations(g) for g in groups]):
        flat = tuple(itertools.chain.from_iterable(combo))
        sigmas.append(Permutation(flat))
    return SimplexLocation("boundary", tuple(sigmas))


@dataclass(frozen=True)
class Arc:
    index: int  # arc label j = sigma(k)
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return self.length <= ANGLE_TOL


@dataclass(frozen=True)
class ArcPartition:
    """The n+1 closed arcs cut out of [0, 2*pi] by an ordered node system."""

    arcs: tuple  # traversal order k = 0..n

    def __post_init__(self):
        total = sum(a.length for a in self.arcs)
        if abs(total - TWO_PI) > 1e-9:
            raise ValidationError(f"arc lengths sum to {total}, expected 2*pi")

    @property
    def labels(self) -> tuple:
        return tuple(a.index for a in self.arcs)

    def by_index(self, j: int) -> Arc:
        for a in self.arcs:
            if a.index == j:
                return a
        raise KeyError(j)

    @property
    def lengths(self) -> np.ndarray:
        return np.asarray([a.length for a in self.arcs])


def arcs(y, sigma, tol: float = ANGLE_TOL) -> ArcPartition:
    """Build the arc partition for (y, sigma).

    Raises if the ordering is incompatible with the angles (beyond tol).
    Degenerate arcs are allowed: they arise on ordering-cell faces.
    """
    ns = as_node_system(y)
    sig = as_permutation(sigma, ns.n)
    if sig.n != ns.n:
        raise ValidationError(f"sigma has size {sig.n}, node system has {ns.n}")
    pos = [0.0]
    for k, v in enumerate(sig.slots(ns.values), start=1):
        if v < pos[-1] - tol:
            raise ValidationError(
                f"ordering incompatible with angles: slot {k} has {v} < {pos[-1]}"
            )
        pos.append(max(v, pos[-1]))  # clamp away sub-tol inversions
    pos.append(TWO_PI)
    if pos[-2] > TWO_PI:
        raise ValidationError("node angle beyond 2*pi")
    out = []
    labels = sig.labels()
    for k in range(ns.n + 1):
        out.append(Arc(index=labels[k], lo=pos[k], hi=pos[k + 1]))
    return ArcPartition(tuple(out))


def sort_nodes(x) -> NodeSystem:
    """Non-decreasing rearrangement of the free node angles."""
    ns = as_node_system(x)
    return NodeSystem(tuple(sorted(ns.values)))


def admissible_cut(y, tol: float = ANGLE_TOL) -> float:
    """Midpoint of a longest gap between consecutive nodes (anchor included).

    The longest gap has length >= 2*pi/(n+1), so its midpoint keeps a distance
    of at least pi/(n+1) > pi/(2n+2) from every node.  Ties are broken by the
    smallest gap start angle.
    """
    ns = as_node_system(y)
    pos = np.sort(np.concatenate(([0.0], ns.array)))
    starts = pos
    ends = np.concatenate((pos[1:], [TWO_PI]))
    lengths = ends - starts
    best = np.max(lengths)
    i = int(np.argmax(lengths >= best - tol))
    return float(starts[i] + lengths[i] / 2.0)


def min_gap(y) -> float:
    """Smallest gap between consecutive nodes, anchor and wrap included."""
    ns = as_node_system(y)
    pos = np.sort(np.concatenate(([0.0], ns.array)))
    gaps = np.diff(np.concatenate((pos, [TWO_PI])))
    return float(np.min(gaps))
