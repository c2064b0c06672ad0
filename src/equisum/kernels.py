"""Concave kernel functions on the circle.

A kernel is a concave function on the open interval (0, 2*pi) whose limits
at 0 and 2*pi agree (both finite or both -inf).  Evaluation at t = 0 (or any
multiple of 2*pi) reports that common limit; -inf is represented by the
ordinary float -inf.  One-sided derivatives exist everywhere by concavity
and may be +/-inf at the glue point: deriv(0, "right") is the limit slope
coming in from above 0, deriv(0, "left") the limit slope going out below
2*pi.

A kernel whose classify().c1 is true returns bit-identical deriv(t, "left")
and deriv(t, "right") at every t that does not reduce to the glue point;
profile() relies on this to bisect both edges of every arc with one
"right" slope call per step.

The public value(t) and deriv(t, side) live on Kernel: they check the
side, reduce t into [0, 2*pi) once and hand the reduced float array to
the private pair _value(tt) and _deriv(tt, side), which is all a family
implements.  Wrappers (Weighted, Smoothed, SumKernel) call the private
pair of their base or terms, so a wrapped kernel still costs one angle
reduction per call.  Every concrete class also lists value and deriv in
its own namespace (value = Kernel.value), so that per-class hooks can
find them.

All value/derivative methods accept scalars or numpy arrays of any shape,
and work elementwise: a point's result does not depend on the array it sits
in, its position there or the array's shape.  profile() relies on this too:
it evaluates the points of several bisection steps as one 2-D (tree points,
brackets) grid, which is a 3-D array per kernel group, and expects the bits
that one step at a time would give.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import PI, TWO_PI, ValidationError, reduce_angle

INF = math.inf


class CapabilityError(TypeError):
    """Operation not supported by this kernel's smoothness class."""


def _out(v, like):
    if np.ndim(like) == 0:
        return float(v)
    return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class KernelClass:
    """The paper's four conditions on a kernel.

    cond_inf          (inf):  the limit at the glue point is -inf
    cond_inf_prime    (inf'): the slope blows up there, to +inf leaving 0
                      and to -inf approaching 2*pi; (inf) implies (inf')
    c1                continuously differentiable on (0, 2*pi)
    strictly_concave  strictly concave on (0, 2*pi)

    No other flag is needed.  A concave kernel's glue limit is finite or
    -inf, so "finite at the glue point" is not cond_inf; and no family
    blows up on one side only, so one flag states both slope blow-ups.
    """

    cond_inf: bool
    cond_inf_prime: bool
    c1: bool
    strictly_concave: bool


class Kernel:
    """Base class.  Subclasses implement _value/_deriv/classify/spec."""

    family = "abstract"

    def value(self, t):
        tt = np.asarray(reduce_angle(t), dtype=float)
        return _out(self._value(tt), t)

    def deriv(self, t, side="right"):
        _check_side(side)
        tt = np.asarray(reduce_angle(t), dtype=float)
        return _out(self._deriv(tt, side), t)

    def _value(self, tt):
        """Values at angles tt already reduced into [0, 2*pi)."""
        raise NotImplementedError

    def _deriv(self, tt, side):
        """One-sided slopes at reduced angles tt; side is already checked."""
        raise NotImplementedError

    def classify(self) -> KernelClass:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<kernel {self.spec()!r}>"


def _check_side(side):
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")


class LogSine(Kernel):
    """K(t) = log|sin(t/2)|: -inf at the glue point, C2 and strictly concave."""

    family = "log_sine"
    value, deriv = Kernel.value, Kernel.deriv

    def _value(self, tt):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.sin(tt / 2.0)))

    def _deriv(self, tt, side):
        with np.errstate(divide="ignore"):
            d = 0.5 / np.tan(tt / 2.0)
        return np.where(tt == 0.0, INF if side == "right" else -INF, d)

    def classify(self):  # (inf) implies (inf')
        return KernelClass(cond_inf=True, cond_inf_prime=True, c1=True, strictly_concave=True)

    def spec(self):
        return {"family": "log_sine"}


class Riesz(Kernel):
    """K(t) = -(2 sin(t/2))^(-p), p > 0.  Values beyond float range clamp to -inf."""

    family = "riesz"
    value, deriv = Kernel.value, Kernel.deriv

    def __init__(self, p: float):
        p = float(p)
        if not (math.isfinite(p) and p > 0):
            raise ValidationError(f"riesz exponent must be finite and > 0, got {p}")
        self.p = p

    def _value(self, tt):
        s = 2.0 * np.sin(tt / 2.0)
        with np.errstate(divide="ignore", over="ignore"):
            v = -np.power(s, -self.p)
        return np.where(np.isfinite(v), v, -INF)

    def _deriv(self, tt, side):
        s = 2.0 * np.sin(tt / 2.0)
        c = np.cos(tt / 2.0)
        with np.errstate(divide="ignore", over="ignore"):
            d = self.p * c * np.power(s, -self.p - 1.0)
        d = np.where(np.isnan(d), 0.0, d)
        d = np.where(tt == 0.0, INF if side == "right" else -INF, d)
        # overflow keeps the sign of cos(t/2)
        return np.where(np.isposinf(d) & (c < 0), -INF, d)

    def classify(self):  # (inf) implies (inf')
        return KernelClass(cond_inf=True, cond_inf_prime=True, c1=True, strictly_concave=True)

    def spec(self):
        return {"family": "riesz", "p": self.p}


class Tent(Kernel):
    """K(t) = pi - |t - pi|: the concave roof with a kink at pi, zero at the glue."""

    family = "tent"
    value, deriv = Kernel.value, Kernel.deriv

    def _value(self, tt):
        return PI - np.abs(tt - PI)

    def _deriv(self, tt, side):
        if side == "right":
            return np.where(tt < PI, 1.0, -1.0)
        return np.where((tt > PI) | (tt == 0.0), -1.0, 1.0)

    def classify(self):
        return KernelClass(cond_inf=False, cond_inf_prime=False, c1=False, strictly_concave=False)

    def spec(self):
        return {"family": "tent"}


class Parabola(Kernel):
    """K(t) = t (2*pi - t): smooth, strictly concave, zero at the glue point."""

    family = "parabola"
    value, deriv = Kernel.value, Kernel.deriv

    def _value(self, tt):
        return tt * (TWO_PI - tt)

    def _deriv(self, tt, side):
        d = TWO_PI - 2.0 * tt
        if side == "left":
            d = np.where(tt == 0.0, -TWO_PI, d)
        return d

    def classify(self):
        return KernelClass(cond_inf=False, cond_inf_prime=False, c1=True, strictly_concave=True)

    def spec(self):
        return {"family": "parabola"}


class TableKernel(Kernel):
    """Piecewise-linear kernel through sample points on [0, 2*pi].

    Concavity (non-increasing segment slopes) and matching endpoint values
    are validated on construction.
    """

    family = "table"
    value, deriv = Kernel.value, Kernel.deriv

    def __init__(self, ts, vs):
        ts = np.asarray(ts, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 3:
            raise ValidationError("table kernel needs matching 1-d arrays, >= 3 points")
        if not np.all(np.isfinite(ts)) or not np.all(np.isfinite(vs)):
            raise ValidationError("table kernel samples must be finite")
        if abs(ts[0]) > 1e-9 or abs(ts[-1] - TWO_PI) > 1e-9:
            raise ValidationError("table grid must start at 0 and end at 2*pi")
        if np.any(np.diff(ts) <= 0):
            raise ValidationError("table grid must be strictly increasing")
        if abs(vs[0] - vs[-1]) > 1e-9:
            raise ValidationError(
                "table kernel endpoint values disagree: the two ends are one point"
            )
        ts = ts.copy()
        ts[0] = 0.0
        ts[-1] = TWO_PI
        slopes = np.diff(vs) / np.diff(ts)
        if np.any(np.diff(slopes) > 1e-12):
            raise ValidationError("table kernel is not concave: slopes increase")
        self.ts = ts
        self.vs = vs
        self.slopes = slopes

    def _value(self, tt):
        return np.interp(tt, self.ts, self.vs)

    def _deriv(self, tt, side):
        if side == "right":
            idx = np.searchsorted(self.ts, tt, side="right") - 1
        else:
            idx = np.searchsorted(self.ts, tt, side="left") - 1
            # t = 0 from the left means the slope coming into 2*pi
            idx = np.where(tt == 0.0, len(self.slopes) - 1, idx)
        idx = np.clip(idx, 0, len(self.slopes) - 1)
        return self.slopes[idx]

    def classify(self):
        return KernelClass(cond_inf=False, cond_inf_prime=False, c1=False, strictly_concave=False)

    def spec(self):
        return {"family": "table", "points": [[float(a), float(b)] for a, b in zip(self.ts, self.vs)]}


class Weighted(Kernel):
    """r * K for a positive weight r."""

    family = "weighted"
    value, deriv = Kernel.value, Kernel.deriv

    def __init__(self, base: Kernel, weight: float):
        weight = float(weight)
        if not (math.isfinite(weight) and weight > 0):
            raise ValidationError(f"weight must be finite and > 0, got {weight}")
        self.base = base
        self.weight = weight

    def _value(self, tt):
        return self.weight * self.base._value(tt)

    def _deriv(self, tt, side):
        return self.weight * self.base._deriv(tt, side)

    def classify(self):
        return self.base.classify()  # positive scaling preserves every flag

    def spec(self):
        return {"family": "weighted", "weight": self.weight, "base": self.base.spec()}


class SumKernel(Kernel):
    """Pointwise sum of kernels."""

    family = "sum"
    value, deriv = Kernel.value, Kernel.deriv

    def __init__(self, *terms):
        if not terms:
            raise ValidationError("sum kernel needs at least one term")
        self.terms = terms

    # np.asarray keeps a scalar call on numpy's array add, so even the NaN
    # that an infinite t gives has the bits of a term-by-term sum
    def _value(self, tt):
        acc = np.asarray(self.terms[0]._value(tt))
        for k in self.terms[1:]:
            acc = acc + np.asarray(k._value(tt))
        return acc

    def _deriv(self, tt, side):
        acc = np.asarray(self.terms[0]._deriv(tt, side))
        for k in self.terms[1:]:
            acc = acc + np.asarray(k._deriv(tt, side))
        return acc

    def classify(self):
        cs = [k.classify() for k in self.terms]
        return KernelClass(
            cond_inf=any(c.cond_inf for c in cs),
            cond_inf_prime=any(c.cond_inf_prime for c in cs),
            c1=all(c.c1 for c in cs),
            strictly_concave=any(c.strictly_concave for c in cs),
        )

    def spec(self):
        return {"family": "sum", "terms": [k.spec() for k in self.terms]}


def _circle_dist0(tt):
    """Distance to the glue point for reduced angles."""
    return np.minimum(tt, TWO_PI - tt)


class Smoothed(Kernel):
    """base + a concave regularizing term, used to build approximant ladders.

    kind = "bump":      + sqrt(pi^2 - (t-pi)^2) / level
                        strictly concave, slope blow-up at both ends; the
                        solver's homotopy ladder uses it.
    kind = "sqrt_cusp": + min(0, sqrt(d(t)) - 1/level)  with d = distance to 0
                        slope blow-up at both ends, uniformly within 1/level;
                        the oracle's convergence probe uses it.
    """

    family = "smoothed"
    value, deriv = Kernel.value, Kernel.deriv
    KINDS = ("bump", "sqrt_cusp")

    def __init__(self, base: Kernel, level: float, kind: str = "bump"):
        level = float(level)
        if not (math.isfinite(level) and level >= 1):
            raise ValidationError(f"smoothing level must be >= 1, got {level}")
        if kind not in self.KINDS:
            raise ValidationError(f"unknown smoothing kind {kind!r}, pick from {self.KINDS}")
        self.base = base
        self.level = level
        self.kind = kind

    # --- the added term -------------------------------------------------
    def _term_value(self, tt):
        if self.kind == "bump":
            # the same ufuncs in the same order, in place in one array
            u = np.subtract(tt, PI, out=np.empty_like(tt))
            np.multiply(u, u, out=u)
            np.subtract(PI * PI, u, out=u)
            np.maximum(u, 0.0, out=u)
            np.sqrt(u, out=u)
            return np.divide(u, self.level, out=u)
        return np.minimum(0.0, np.sqrt(_circle_dist0(tt)) - 1.0 / self.level)

    def _term_deriv(self, tt, side):
        if self.kind == "bump":
            # the same ufuncs in the same order, in place in two arrays
            u = np.subtract(tt, PI, out=np.empty_like(tt))
            s = np.multiply(u, u, out=np.empty_like(tt))
            np.subtract(PI * PI, s, out=s)
            np.maximum(s, 0.0, out=s)
            np.sqrt(s, out=s)
            np.multiply(self.level, s, out=s)
            np.negative(u, out=u)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(u, s, out=u)
            u[tt == 0.0] = INF if side == "right" else -INF
            return u
        lo_thr = 1.0 / self.level**2
        hi_thr = TWO_PI - lo_thr
        with np.errstate(divide="ignore"):
            slope_lo = 0.5 / np.sqrt(tt)
            slope_hi = -0.5 / np.sqrt(TWO_PI - tt)
        if side == "right":
            d = np.where(tt < lo_thr, slope_lo, np.where(tt >= hi_thr, slope_hi, 0.0))
            d = np.where(tt == 0.0, INF, d)
        else:
            d = np.where((tt <= lo_thr) & (tt > 0.0), slope_lo,
                         np.where(tt > hi_thr, slope_hi, 0.0))
            d = np.where(tt == 0.0, -INF, d)
        return d

    # --- kernel interface -----------------------------------------------
    def _value(self, tt):  # np.asarray: see SumKernel
        return np.asarray(self.base._value(tt)) + self._term_value(tt)

    def _deriv(self, tt, side):
        return np.asarray(self.base._deriv(tt, side)) + self._term_deriv(tt, side)

    def classify(self):
        b = self.base.classify()
        # every kind blows the slope up at the glue point
        if self.kind == "bump":
            return KernelClass(cond_inf=b.cond_inf, cond_inf_prime=True,
                               c1=b.c1, strictly_concave=True)
        return KernelClass(cond_inf=b.cond_inf, cond_inf_prime=True,
                           c1=False, strictly_concave=b.strictly_concave)

    def spec(self):
        return {
            "family": "smoothed", "base": self.base.spec(),
            "level": self.level, "kind": self.kind,
        }


# --- the public constructors are the classes ------------------------------

log_sine = LogSine
riesz = Riesz
tent = Tent
parabola = Parabola
table = TableKernel
weighted = Weighted
kernel_sum = SumKernel
approximant = Smoothed


def kernel_weight(k: Kernel) -> float:
    """Leading positive weight of a kernel (1 unless wrapped in Weighted)."""
    return k.weight if isinstance(k, Weighted) else 1.0


# --- config (de)serialization ----------------------------------------------

def from_config(cfg) -> Kernel:
    """Build a kernel from a JSON-style dict, e.g. {"family": "riesz", "p": 2}."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ValidationError(f"kernel config must be a dict with a 'family': {cfg!r}")
    fam = cfg["family"]
    if fam == "log_sine":
        return LogSine()
    if fam == "riesz":
        if "p" not in cfg:
            raise ValidationError("riesz kernel config needs 'p'")
        return Riesz(cfg["p"])
    if fam == "tent":
        return Tent()
    if fam == "parabola":
        return Parabola()
    if fam == "table":
        pts = cfg.get("points")
        if pts is None:
            raise ValidationError("table kernel config needs 'points': [[t, v], ...]")
        arr = np.asarray(pts, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValidationError("table points must be [t, value] pairs")
        return TableKernel(arr[:, 0], arr[:, 1])
    if fam == "weighted":
        if "base" not in cfg or "weight" not in cfg:
            raise ValidationError("weighted kernel config needs 'base' and 'weight'")
        return Weighted(from_config(cfg["base"]), cfg["weight"])
    if fam == "sum":
        return SumKernel(*(from_config(c) for c in cfg.get("terms", [])))
    if fam == "smoothed":
        if "base" not in cfg or "level" not in cfg:
            raise ValidationError("smoothed kernel config needs 'base' and 'level'")
        return Smoothed(from_config(cfg["base"]), cfg["level"], cfg.get("kind", "bump"))
    raise ValidationError(f"unknown kernel family {fam!r}")
