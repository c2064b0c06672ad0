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

import math
from dataclasses import dataclass, fields

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi

# two angles closer than this are treated as the same point
ANGLE_TOL = 1e-12


class ValidationError(ValueError):
    """Bad input: malformed node system, permutation, kernel config, ..."""


# arrays at least this long take the cheap branch of reduce_angle when they
# fit in (-2*pi, 2*pi]; below it the range test and the masked add cost more
# than np.mod saves (crossover measured at 600-800 points)
_CHEAP_MIN = 1024


def reduce_angle(t):
    """Map angles into [0, 2*pi).  Works on scalars and arrays.

    Scalars return a Python float, arrays a new array.  Every branch gives
    the bits of np.mod(t, 2*pi) followed by the >= 2*pi fix below, which an
    array skips when its maximum is below 2*pi:

    - scalars use float %, which is fmod plus the same sign adjustment as
      np.mod, and maps -0.0 to +0.0 as np.mod does;
    - a float64 array of at least _CHEAP_MIN points that lies in
      (-2*pi, 2*pi] skips np.mod: below 2*pi, fmod(t, 2*pi) is t exactly,
      so np.mod gives t + 2*pi for t < 0 and t otherwise, and t + 0.0 turns
      -0.0 into +0.0; a t of exactly 2*pi stays 2*pi until the fix maps it
      to 0.0, as np.mod does.  (A grid over an arc that ends at 2*pi
      reaches it.)  NaN and inf fail the range test and take np.mod.
    """
    if np.ndim(t) == 0:
        r = float(t) % TWO_PI
        # rounding can land a tiny negative exactly on 2*pi
        return r - TWO_PI if r >= TWO_PI else r
    t = np.asarray(t)
    if (t.size >= _CHEAP_MIN and t.dtype == np.float64
            and -TWO_PI < t.min() and t.max() <= TWO_PI):
        r = t + 0.0
        np.add(r, TWO_PI, out=r, where=r < 0.0)
    else:
        r = np.mod(t, TWO_PI)
    if r.size and not r.max() < TWO_PI:  # a NaN maximum also takes the fix
        np.subtract(r, TWO_PI, out=r, where=r >= TWO_PI)
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


def node_angles(y, n=None) -> np.ndarray:
    """The angles of one node system (a NodeSystem, sequence or array), or
    of a (B, n) array of them, as a new array reduced into [0, 2*pi).  The
    one check of a node system entering the package: raises on a non-finite
    angle, on no free node, and, when n is given, on a count other than n."""
    vals = np.atleast_1d(np.asarray(getattr(y, "values", y), dtype=float))
    finite = np.isfinite(vals)
    if not finite.all():
        raise ValidationError(f"node angle not finite: {float(vals[~finite][0])!r}")
    if vals.shape[-1] == 0:
        raise ValidationError("a node system needs at least one free node")
    if n is not None and vals.shape[-1] != n:
        raise ValidationError(f"node system has {vals.shape[-1]} nodes, problem expects {n}")
    return reduce_angle(vals)


def node_positions(y, n=None) -> np.ndarray:
    """node_angles(y, n) with the fixed node's 0 in front: all n+1 node
    positions, (n+1,) or (B, n+1)."""
    angles = node_angles(y, n)
    return np.concatenate((np.zeros(angles.shape[:-1] + (1,)), angles), axis=-1)


@dataclass(frozen=True)
class NodeSystem:
    """n free node angles, reduced into [0, 2*pi).  Node 0 at angle 0 is implicit."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, node_angles(self.values))))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def full_positions(self) -> np.ndarray:
        """Positions of all n+1 nodes: the fixed one at 0, then y_1..y_n."""
        return node_positions(self)


class Record:
    """Base of the result dataclasses: to_dict() is the fields, in declaration order."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(v):
    """v with node systems as angle lists, to_dict() where defined, arrays as lists."""
    if isinstance(v, NodeSystem):
        return list(v.values)
    if hasattr(v, "to_dict"):
        return v.to_dict()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


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

    def labels(self) -> tuple:
        """Arc labels in traversal order: sigma(0), sigma(1), ..., sigma(n)."""
        return (0,) + self.sigma

    def slots(self, values) -> np.ndarray:
        """Per-node values (node j at position j-1) rearranged in slot order;
        values is (n,) or a (B, n) batch."""
        return np.asarray(values, dtype=float)[..., np.asarray(self.sigma) - 1]

    def nodes(self, slots) -> np.ndarray:
        """Inverse of slots: slot k's value goes to node sigma(k)."""
        return np.asarray(slots, dtype=float)[..., np.argsort(self.sigma)]


def as_permutation(sigma, n=None) -> Permutation:
    """sigma as a Permutation; None is the identity on n nodes.  The one
    check of an ordering entering the package: when n is given, raises on
    a size other than n."""
    if sigma is None:
        if n is None:
            raise ValidationError("sigma is required")
        return Permutation.identity(n)
    if not isinstance(sigma, Permutation):
        sigma = Permutation(tuple(int(v) for v in np.atleast_1d(sigma)))
    if n is not None and sigma.n != n:
        raise ValidationError(f"sigma has size {sigma.n}, expected {n}")
    return sigma


def locate(y) -> Permutation | None:
    """The ordering cell a node system lies inside, or None when it sits on
    a cell face: two free nodes within ANGLE_TOL of each other, or one
    within ANGLE_TOL of the fixed node at 0 (from either side)."""
    vals = node_angles(y)
    order = np.argsort(vals, kind="stable")
    s = vals[order]
    if s[0] <= ANGLE_TOL or TWO_PI - s[-1] <= ANGLE_TOL or np.any(np.diff(s) <= ANGLE_TOL):
        return None
    return Permutation(tuple(int(k) + 1 for k in order))


def arcs(y, sigma) -> np.ndarray:
    """Cut points of the arcs of (y, sigma): 0, the node angles in slot
    order, then 2*pi.  Traversal arc k is [cuts[k], cuts[k+1]]; its label is
    sigma(k), with sigma(0) = 0 (Permutation.labels).

    y is one node system, or a (B, n) array of B systems; the result is
    (n+2,), or (B, n+2).  The angles are reduced into [0, 2*pi).  Raises if
    an ordering is incompatible with the angles (beyond ANGLE_TOL); smaller
    inversions are clamped to the running maximum.  Degenerate arcs are
    allowed: they arise on ordering-cell faces.
    """
    return _cuts(node_angles(y), sigma)


def _cuts(angles, sigma) -> np.ndarray:
    """arcs() of angles that node_angles has already checked and reduced."""
    n = angles.shape[-1]
    sig = as_permutation(sigma, n)
    slots = sig.slots(angles)
    ends = np.zeros(angles.shape[:-1] + (1,))
    cuts = np.maximum.accumulate(np.concatenate((ends, slots, ends + TWO_PI), axis=-1), axis=-1)
    low = slots < cuts[..., :-2] - ANGLE_TOL
    if low.any():
        at = np.argwhere(low)[0]
        k = int(at[-1])
        where = f" in row {int(at[0])}" if angles.ndim == 2 else ""
        raise ValidationError(
            f"ordering incompatible with angles{where}: slot {k + 1} has "
            f"{float(slots[tuple(at)])} < {float(cuts[tuple(at)])}"
        )
    return cuts


def min_gap(y) -> float:
    """Smallest gap between consecutive nodes, anchor and wrap included."""
    pos = np.sort(node_positions(y))
    gaps = np.diff(np.concatenate((pos, [TWO_PI])))
    return float(np.min(gaps))
