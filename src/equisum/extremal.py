"""Extremal product problems: torus-side generalized trigonometric products
and their interval counterparts under the cosine substitution.

The interval problem min-max prod |x - x_j|^{nu_j} on [a, b] is solved by
doubling: place mirrored weights on the circle, solve the equioscillation
problem there, rotate the answer into its symmetric gauge, and pull nodes
and alternation points back through x = L(cos t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluator import Problem
from .kernels import log_sine, weighted
from .solver import SolveOptions, SolveReport, minimax
from .torus import TWO_PI, Permutation, Record, ValidationError

PI = math.pi
# mirror residuals up to which a doubled solution counts as symmetric
SYMMETRY_TOL = 1e-8  # nodes
MAXIMIZER_SYMMETRY_TOL = 1e-7  # arc maximizers
WRAP_TOL = 1e-9  # angles closer than this to 2*pi, or to each other, are one angle


def _positive_tuple(values, what):
    vals = tuple(float(v) for v in values)
    if len(vals) == 0:
        raise ValidationError(f"{what} must be non-empty")
    if any(not (v > 0) for v in vals):
        raise ValidationError(f"{what} must be positive, got {vals}")
    return vals


@dataclass(frozen=True)
class GtpProblem:
    """Weighted product of |sin((t - w_j)/2)| factors, first node anchored."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents",
                           _positive_tuple(self.exponents, "exponents"))
        if len(self.exponents) < 2:
            raise ValidationError("need at least two exponents (n >= 1)")

    @property
    def n(self) -> int:
        return len(self.exponents) - 1


@dataclass(frozen=True)
class BojanovProblem:
    """Min-max of prod |x - x_j|^{nu_j} over a < x_1 < ... < x_n < b."""

    a: float
    b: float
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "exponents",
                           _positive_tuple(self.exponents, "exponents"))
        if not self.b > self.a:
            raise ValidationError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def n(self) -> int:
        return len(self.exponents)

    def affine(self, u):
        """L: [-1, 1] -> [a, b]."""
        u = np.asarray(u, dtype=float)
        return 0.5 * (self.b - self.a) * u + 0.5 * (self.b + self.a)


@dataclass
class GtpResult(Record):
    exponents: tuple
    norm: float
    nodes: np.ndarray       # all n+1 positions, anchor included
    maximizers: np.ndarray  # per arc, traversal order
    interlacing: bool
    report: SolveReport


def gtp_value(t, nodes, exponents):
    """prod_j |sin((t - w_j)/2)|^{r_j}, vectorized over t."""
    t = np.asarray(t, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    r = np.asarray(exponents, dtype=float)
    logs = np.zeros(t.shape)
    with np.errstate(divide="ignore"):
        for w, rj in zip(nodes, r):
            logs = logs + rj * np.log(np.abs(np.sin((t - w) / 2.0)))
    return np.exp(logs)


def solve_gtp(q: GtpProblem, opts: SolveOptions | None = None) -> GtpResult:
    """Minimize the sup of the weighted sine product over node placements.

    Works in the identity ordering cell with the first node anchored at 0;
    the norm is exp of the minimax level.
    """
    p = Problem(tuple(weighted(log_sine(), r) for r in q.exponents))
    sig = Permutation.identity(q.n)
    rep = minimax(p, sig, opts)
    prof = rep.profile
    nodes = prof.positions
    z_trav = prof.z_trav
    # strict interlacing: every maximizer interior to its arc
    interlacing = not bool(np.any(prof.z_on_boundary_trav))
    return GtpResult(
        exponents=q.exponents,
        norm=float(math.exp(rep.objective)),
        nodes=nodes,
        maximizers=np.asarray(z_trav),
        interlacing=interlacing,
        report=rep,
    )


@dataclass
class DoubledResult(Record):
    exponents: tuple           # nu_1..nu_n (half weights)
    weights: tuple             # doubled pattern nu_n..nu_1, nu_1..nu_n
    nodes: np.ndarray          # 2n rotated positions, increasing
    maximizers: np.ndarray     # 2n rotated arc maximizers, increasing
    value: float               # common log-level M of the doubled problem
    symmetry_residual: float
    maximizer_symmetry_residual: float
    flags: dict
    report: SolveReport

    @property
    def symmetric(self) -> bool:
        return self.flags.get("symmetric", False)


def _wrap_to_zero(values: np.ndarray) -> np.ndarray:
    """Send angles within WRAP_TOL below 2*pi to exactly 0."""
    v = np.mod(np.asarray(values, dtype=float), TWO_PI)
    return np.where(v > TWO_PI - WRAP_TOL, 0.0, v)


def _mirror_residual(values: np.ndarray) -> float:
    """Max distance of the set from its reflection t -> 2*pi - t (mod 2*pi)."""
    v = np.sort(_wrap_to_zero(values))
    w = np.sort(_wrap_to_zero(-v))
    return float(np.max(np.abs(v - w))) if len(v) else 0.0


def solve_doubled_symmetric(exponents, opts: SolveOptions | None = None) -> DoubledResult:
    """Solve the mirrored-weight circle problem and rotate it symmetric.

    Weights run nu_n..nu_1 then nu_1..nu_n over 2n nodes.  The solver works
    with the first node anchored at 0; the translation-invariant solution is
    then rotated so the smallest and largest nodes straddle 0 symmetrically
    (w_1 + w_{2n} = 2*pi).  Mirrored weights force a mirror-symmetric
    optimum, so a symmetry violation is flagged, not repaired.
    """
    nu = _positive_tuple(exponents, "exponents")
    weights = tuple(reversed(nu)) + nu
    gtp = solve_gtp(GtpProblem(weights), opts)
    rep = gtp.report

    delta = (TWO_PI - gtp.nodes[-1]) / 2.0
    nodes = gtp.nodes + delta  # increasing in S_id

    sym_res = float(np.max(np.abs(nodes + nodes[::-1] - TWO_PI)))

    z = np.sort(_wrap_to_zero(gtp.maximizers + delta))
    z_res = _mirror_residual(z)

    flags = {
        "symmetric": sym_res <= SYMMETRY_TOL,
        "maximizers_symmetric": z_res <= MAXIMIZER_SYMMETRY_TOL,
        "converged": rep.converged,
    }
    return DoubledResult(
        exponents=nu,
        weights=weights,
        nodes=nodes,
        maximizers=z,
        value=rep.objective,
        symmetry_residual=sym_res,
        maximizer_symmetry_residual=z_res,
        flags=flags,
        report=rep,
    )


def transfer_to_interval(t_nodes, q: BojanovProblem, tol_sym: float = 1e-6) -> np.ndarray:
    """Map symmetric torus nodes to interval nodes via x = L(cos t).

    The lower half-circle nodes (in increasing order t_1 < ... < t_n < pi)
    give x_j = L(cos t_{n+1-j}), increasing in (a, b).
    """
    t = np.sort(np.mod(np.asarray(t_nodes, dtype=float), TWO_PI))
    if len(t) != 2 * q.n:
        raise ValidationError(
            f"expected {2 * q.n} torus nodes for n={q.n}, got {len(t)}"
        )
    sym = np.max(np.abs(t + t[::-1] - TWO_PI))
    if sym > tol_sym:
        raise ValidationError(f"torus nodes not mirror-symmetric: residual {sym:.3e}")
    half = t[: q.n]
    x = q.affine(np.cos(half[::-1]))
    if np.any(np.diff(x) <= 0):
        raise ValidationError("transferred nodes are not strictly increasing")
    return x


def _half_circle_points(values):
    """Representatives inside [0, pi] of a symmetric multiset of angles
    already wrapped into [0, 2*pi) and sorted (as _wrap_to_zero and a sort
    leave them)."""
    half = np.clip(values[values <= PI + WRAP_TOL], 0.0, PI)
    # merge duplicates (0 can appear twice after wrap reduction)
    if len(half) > 1:
        keep = np.concatenate(([True], np.diff(half) > WRAP_TOL))
        half = half[keep]
    return half


@dataclass
class ExtremalPolynomial(Record):
    interval: tuple          # (a, b)
    exponents: tuple
    nodes: np.ndarray        # x_1 < ... < x_n in (a, b)
    alternation: np.ndarray  # s_0 = a < s_1 < ... < s_n = b
    norm: float
    flags: dict
    doubled: DoubledResult

    def __call__(self, x):
        return eval_gap(x, self)


def eval_gap(x, poly) -> np.ndarray | float:
    """prod_j |x - x_j|^{nu_j} for an ExtremalPolynomial (or (nodes, nu))."""
    if isinstance(poly, ExtremalPolynomial):
        nodes, nu = poly.nodes, poly.exponents
    else:
        nodes, nu = poly
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape)
    for xj, nj in zip(np.asarray(nodes, dtype=float), np.asarray(nu, dtype=float)):
        out = out * np.abs(x - xj) ** nj
    if out.ndim == 0:
        return float(out)
    return out


def solve_bojanov(q: BojanovProblem, opts: SolveOptions | None = None) -> ExtremalPolynomial:
    """Best (smallest sup-norm) node placement for the weighted gap product.

    Solves the doubled circle problem, transfers nodes and alternation
    points, and scales the circle level to the interval:
    norm = (b - a)^{sum nu} * exp(M).
    """
    dbl = solve_doubled_symmetric(q.exponents, opts)
    x = transfer_to_interval(dbl.nodes, q, tol_sym=max(1e-6, 10 * dbl.symmetry_residual))

    zeta = _half_circle_points(dbl.maximizers)
    if len(zeta) != q.n + 1 or zeta[0] > 1e-7 or zeta[-1] < PI - 1e-7:
        raise ValidationError(
            f"expected {q.n + 1} alternation angles spanning [0, pi], got {zeta}"
        )
    zeta[0], zeta[-1] = 0.0, PI  # cos is flat here; snap the exact endpoints
    s = q.affine(np.cos(zeta[::-1]))
    s[0], s[-1] = q.a, q.b

    total = float(sum(q.exponents))
    norm = (q.b - q.a) ** total * math.exp(dbl.value)

    # direct verification: the gap product equioscillates on the alternation set
    vals = eval_gap(s, (x, q.exponents))
    equi_err = float(np.max(np.abs(vals - norm)))
    interlace = bool(
        q.a == s[0] and q.b == s[-1]
        and np.all(s[:-1] < x) and np.all(x < s[1:])
    )
    flags = {
        "equioscillation_residual": equi_err,
        "equioscillates": equi_err <= 1e-7 * max(1.0, norm),
        "interlacing": interlace,
        "doubled_symmetric": dbl.symmetric,
        "converged": dbl.report.converged,
    }
    return ExtremalPolynomial(
        interval=(q.a, q.b),
        exponents=q.exponents,
        nodes=x,
        alternation=s,
        norm=norm,
        flags=flags,
        doubled=dbl,
    )


def transference_identity_check(t, q: BojanovProblem, t_nodes) -> np.ndarray | float:
    """Residual of the product identity between circle and interval forms.

    For symmetric t_nodes with doubled weights W, the interval gap product
    at L(cos t) equals (b - a)^{sum nu} times the circle product T(t);
    returns |P(L(cos t)) * (b - a)^(-sum nu) - T(t)|.  Raises where
    transfer_to_interval does: a node count other than 2n, or nodes that are
    not mirror-symmetric.
    """
    t = np.asarray(t, dtype=float)
    tn = np.sort(np.mod(np.asarray(t_nodes, dtype=float), TWO_PI))
    nu = q.exponents
    weights = tuple(reversed(nu)) + nu
    x_nodes = transfer_to_interval(tn, q)
    total = float(sum(nu))

    P = eval_gap(q.affine(np.cos(t)), (x_nodes, nu))
    T = gtp_value(t, tn, weights)
    res = np.abs(P * (q.b - q.a) ** (-total) - T)
    if res.ndim == 0:
        return float(res)
    return res
