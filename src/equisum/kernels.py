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
    """Property flags of a kernel.

    finite_at_zero       limit at the glue point is finite
    cond_inf             limit at the glue point is -inf
    cond_inf_prime_minus slope blows down to -inf approaching 2*pi
    cond_inf_prime_plus  slope blows up to +inf leaving 0
    cond_inf_prime       at least one of the two blow-ups
    c1                   continuously differentiable on (0, 2*pi)
    strictly_concave     strictly concave on (0, 2*pi)
    even_symmetric       K(2*pi - t) == K(t)
    """

    finite_at_zero: bool
    cond_inf: bool
    cond_inf_prime_minus: bool
    cond_inf_prime_plus: bool
    cond_inf_prime: bool
    c1: bool
    strictly_concave: bool
    even_symmetric: bool


def make_class(
    *,
    finite_at_zero,
    cond_inf,
    cond_inf_prime_minus=False,
    cond_inf_prime_plus=False,
    c1,
    strictly_concave,
    even_symmetric,
) -> KernelClass:
    # a -inf endpoint forces both one-sided slope blow-ups
    minus = bool(cond_inf_prime_minus or cond_inf)
    plus = bool(cond_inf_prime_plus or cond_inf)
    if cond_inf and finite_at_zero:
        raise ValidationError("kernel cannot be both finite and -inf at the glue point")
    return KernelClass(
        finite_at_zero=bool(finite_at_zero),
        cond_inf=bool(cond_inf),
        cond_inf_prime_minus=minus,
        cond_inf_prime_plus=plus,
        cond_inf_prime=minus or plus,
        c1=bool(c1),
        strictly_concave=bool(strictly_concave),
        even_symmetric=bool(even_symmetric),
    )


class Kernel:
    """Base class.  Subclasses implement value/deriv/classify/spec."""

    family = "abstract"

    def value(self, t):
        raise NotImplementedError

    def deriv(self, t, side="right"):
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

    def value(self, t):
        tt = np.asarray(reduce_angle(t), dtype=float)
        with np.errstate(divide="ignore"):
            v = np.log(np.abs(np.sin(tt / 2.0)))
        return _out(v, t)

    def deriv(self, t, side="right"):
        _check_side(side)
        tt = np.asarray(reduce_angle(t), dtype=float)
        with np.errstate(divide="ignore"):
            d = 0.5 / np.tan(tt / 2.0)
        d = np.where(tt == 0.0, INF if side == "right" else -INF, d)
        return _out(d, t)

    def classify(self):
        return make_class(
            finite_at_zero=False, cond_inf=True, c1=True,
            strictly_concave=True, even_symmetric=True,
        )

    def spec(self):
        return {"family": "log_sine"}


class Riesz(Kernel):
    """K(t) = -(2 sin(t/2))^(-p), p > 0.  Values beyond float range clamp to -inf."""

    family = "riesz"

    def __init__(self, p: float):
        p = float(p)
        if not (math.isfinite(p) and p > 0):
            raise ValidationError(f"riesz exponent must be finite and > 0, got {p}")
        self.p = p

    def value(self, t):
        tt = np.asarray(reduce_angle(t), dtype=float)
        s = 2.0 * np.sin(tt / 2.0)
        with np.errstate(divide="ignore", over="ignore"):
            v = -np.power(s, -self.p)
        v = np.where(np.isfinite(v), v, -INF)
        return _out(v, t)

    def deriv(self, t, side="right"):
        _check_side(side)
        tt = np.asarray(reduce_angle(t), dtype=float)
        s = 2.0 * np.sin(tt / 2.0)
        with np.errstate(divide="ignore", over="ignore"):
            d = self.p * np.cos(tt / 2.0) * np.power(s, -self.p - 1.0)
        d = np.where(np.isnan(d), 0.0, d)
        d = np.where(tt == 0.0, INF if side == "right" else -INF, d)
        # overflow keeps the sign of cos(t/2)
        d = np.where(np.isposinf(d) & (np.cos(tt / 2.0) < 0), -INF, d)
        return _out(d, t)

    def classify(self):
        return make_class(
            finite_at_zero=False, cond_inf=True, c1=True,
            strictly_concave=True, even_symmetric=True,
        )

    def spec(self):
        return {"family": "riesz", "p": self.p}


class Tent(Kernel):
    """K(t) = pi - |t - pi|: the concave roof with a kink at pi, zero at the glue."""

    family = "tent"

    def value(self, t):
        tt = np.asarray(reduce_angle(t), dtype=float)
        return _out(PI - np.abs(tt - PI), t)

    def deriv(self, t, side="right"):
        _check_side(side)
        tt = np.asarray(reduce_angle(t), dtype=float)
        if side == "right":
            d = np.where(tt < PI, 1.0, -1.0)
        else:
            d = np.where((tt > PI) | (tt == 0.0), -1.0, 1.0)
        return _out(d, t)

    def classify(self):
        return make_class(
            finite_at_zero=True, cond_inf=False, c1=False,
            strictly_concave=False, even_symmetric=True,
        )

    def spec(self):
        return {"family": "tent"}


class Parabola(Kernel):
    """K(t) = t (2*pi - t): smooth, strictly concave, zero at the glue point."""

    family = "parabola"

    def value(self, t):
        tt = np.asarray(reduce_angle(t), dtype=float)
        return _out(tt * (TWO_PI - tt), t)

    def deriv(self, t, side="right"):
        _check_side(side)
        tt = np.asarray(reduce_angle(t), dtype=float)
        d = TWO_PI - 2.0 * tt
        if side == "left":
            d = np.where(tt == 0.0, -TWO_PI, d)
        return _out(d, t)

    def classify(self):
        return make_class(
            finite_at_zero=True, cond_inf=False, c1=True,
            strictly_concave=True, even_symmetric=True,
        )

    def spec(self):
        return {"family": "parabola"}


class TableKernel(Kernel):
    """Piecewise-linear kernel through sample points on [0, 2*pi].

    Concavity (non-increasing segment slopes) and matching endpoint values
    are validated on construction.
    """

    family = "table"

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

    def value(self, t):
        tt = np.asarray(reduce_angle(t), dtype=float)
        return _out(np.interp(tt, self.ts, self.vs), t)

    def deriv(self, t, side="right"):
        _check_side(side)
        tt = np.asarray(reduce_angle(t), dtype=float)
        if side == "right":
            idx = np.searchsorted(self.ts, tt, side="right") - 1
        else:
            idx = np.searchsorted(self.ts, tt, side="left") - 1
            # t = 0 from the left means the slope coming into 2*pi
            idx = np.where(tt == 0.0, len(self.slopes) - 1, idx)
        idx = np.clip(idx, 0, len(self.slopes) - 1)
        return _out(self.slopes[idx], t)

    def classify(self):
        sym = bool(
            np.allclose(self.ts, TWO_PI - self.ts[::-1], atol=1e-12)
            and np.allclose(self.vs, self.vs[::-1], atol=1e-12)
        )
        return make_class(
            finite_at_zero=True, cond_inf=False, c1=False,
            strictly_concave=False, even_symmetric=sym,
        )

    def spec(self):
        return {"family": "table", "points": [[float(a), float(b)] for a, b in zip(self.ts, self.vs)]}


class Weighted(Kernel):
    """r * K for a positive weight r."""

    family = "weighted"

    def __init__(self, base: Kernel, weight: float):
        weight = float(weight)
        if not (math.isfinite(weight) and weight > 0):
            raise ValidationError(f"weight must be finite and > 0, got {weight}")
        self.base = base
        self.weight = weight

    def value(self, t):
        return _out(self.weight * np.asarray(self.base.value(t)), t)

    def deriv(self, t, side="right"):
        return _out(self.weight * np.asarray(self.base.deriv(t, side)), t)

    def classify(self):
        return self.base.classify()  # positive scaling preserves every flag

    def spec(self):
        return {"family": "weighted", "weight": self.weight, "base": self.base.spec()}


class SumKernel(Kernel):
    """Pointwise sum of kernels."""

    family = "sum"

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValidationError("sum kernel needs at least one term")
        self.terms = terms

    def value(self, t):
        acc = np.asarray(self.terms[0].value(t), dtype=float)
        for k in self.terms[1:]:
            acc = acc + np.asarray(k.value(t))
        return _out(acc, t)

    def deriv(self, t, side="right"):
        acc = np.asarray(self.terms[0].deriv(t, side), dtype=float)
        for k in self.terms[1:]:
            acc = acc + np.asarray(k.deriv(t, side))
        return _out(acc, t)

    def classify(self):
        cs = [k.classify() for k in self.terms]
        return make_class(
            finite_at_zero=all(c.finite_at_zero for c in cs),
            cond_inf=any(c.cond_inf for c in cs),
            cond_inf_prime_minus=any(c.cond_inf_prime_minus for c in cs),
            cond_inf_prime_plus=any(c.cond_inf_prime_plus for c in cs),
            c1=all(c.c1 for c in cs),
            strictly_concave=any(c.strictly_concave for c in cs),
            even_symmetric=all(c.even_symmetric for c in cs),
        )

    def spec(self):
        return {"family": "sum", "terms": [k.spec() for k in self.terms]}


def _circle_dist0(tt):
    """Distance to the glue point for reduced angles."""
    return np.minimum(tt, TWO_PI - tt)


class Smoothed(Kernel):
    """base + a concave regularizing term, used to build approximant ladders.

    kind = "bump":      + sqrt(pi^2 - (t-pi)^2) / level
                        strictly concave, slope blow-up at both ends.
    kind = "log_cusp":  + min(0, log(level * d(t)))  with d = distance to 0
                        drives the glue-point value to -inf.
    kind = "sqrt_cusp": + min(0, sqrt(d(t)) - 1/level)
                        slope blow-up at both ends, uniformly within 1/level.
    """

    family = "smoothed"
    KINDS = ("bump", "log_cusp", "sqrt_cusp")

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
            u = tt - PI
            return np.sqrt(np.maximum(PI * PI - u * u, 0.0)) / self.level
        d = _circle_dist0(tt)
        if self.kind == "log_cusp":
            with np.errstate(divide="ignore"):
                return np.minimum(0.0, np.log(self.level * d))
        return np.minimum(0.0, np.sqrt(d) - 1.0 / self.level)

    def _term_deriv(self, tt, side):
        if self.kind == "bump":
            u = tt - PI
            with np.errstate(divide="ignore", invalid="ignore"):
                d = -u / (self.level * np.sqrt(np.maximum(PI * PI - u * u, 0.0)))
            d = np.where(tt == 0.0, INF if side == "right" else -INF, d)
            return d
        lo_thr = (1.0 / self.level) if self.kind == "log_cusp" else 1.0 / self.level**2
        hi_thr = TWO_PI - lo_thr
        with np.errstate(divide="ignore"):
            if self.kind == "log_cusp":
                slope_lo = 1.0 / tt
                slope_hi = -1.0 / (TWO_PI - tt)
            else:
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
    def value(self, t):
        tt = np.asarray(reduce_angle(t), dtype=float)
        return _out(np.asarray(self.base.value(tt)) + self._term_value(tt), t)

    def deriv(self, t, side="right"):
        _check_side(side)
        tt = np.asarray(reduce_angle(t), dtype=float)
        return _out(np.asarray(self.base.deriv(tt, side)) + self._term_deriv(tt, side), t)

    def classify(self):
        b = self.base.classify()
        if self.kind == "bump":
            return make_class(
                finite_at_zero=b.finite_at_zero, cond_inf=b.cond_inf,
                cond_inf_prime_minus=True, cond_inf_prime_plus=True,
                c1=b.c1, strictly_concave=True,
                even_symmetric=b.even_symmetric,
            )
        if self.kind == "log_cusp":
            return make_class(
                finite_at_zero=False, cond_inf=True,
                c1=False, strictly_concave=b.strictly_concave,
                even_symmetric=b.even_symmetric,
            )
        return make_class(
            finite_at_zero=b.finite_at_zero, cond_inf=b.cond_inf,
            cond_inf_prime_minus=True, cond_inf_prime_plus=True,
            c1=False, strictly_concave=b.strictly_concave,
            even_symmetric=b.even_symmetric,
        )

    def spec(self):
        return {
            "family": "smoothed", "base": self.base.spec(),
            "level": self.level, "kind": self.kind,
        }


# --- factories ------------------------------------------------------------

def log_sine() -> Kernel:
    return LogSine()


def riesz(p: float) -> Kernel:
    return Riesz(p)


def tent() -> Kernel:
    return Tent()


def parabola() -> Kernel:
    return Parabola()


def table(ts, vs) -> Kernel:
    return TableKernel(ts, vs)


def weighted(base: Kernel, weight: float) -> Kernel:
    return Weighted(base, weight)


def kernel_sum(*terms) -> Kernel:
    return SumKernel(terms)


def approximant(k: Kernel, level, kind: str = "bump") -> Kernel:
    """Regularized copy of k; level None or inf returns k unchanged."""
    if level is None or (isinstance(level, float) and math.isinf(level)):
        return k
    return Smoothed(k, level, kind)


def kernel_weight(k: Kernel) -> float:
    """Leading positive weight of a kernel (1 unless wrapped in Weighted)."""
    return k.weight if isinstance(k, Weighted) else 1.0


# --- config (de)serialization ----------------------------------------------

def from_config(cfg) -> Kernel:
    """Build a kernel from a JSON-style dict, e.g. {"family": "riesz", "p": 2}."""
    if isinstance(cfg, Kernel):
        return cfg
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
        return SumKernel(from_config(c) for c in cfg.get("terms", []))
    if fam == "smoothed":
        if "base" not in cfg or "level" not in cfg:
            raise ValidationError("smoothed kernel config needs 'base' and 'level'")
        return Smoothed(from_config(cfg["base"]), cfg["level"], cfg.get("kind", "bump"))
    raise ValidationError(f"unknown kernel family {fam!r}")
