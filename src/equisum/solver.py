"""Equioscillation, minimax and maximin solvers.

The interior equation is Delta(y) = 0, where Delta is the vector of
consecutive differences of arc maxima in traversal order.  The core solver
is a damped Newton iteration on Delta with projection into the ordering
cell; problems whose kernels have kinks or lack endpoint slope blow-up are
driven through a ladder of regularized kernels (warm-started homotopy) and
finished on the exact kernels, with a coordinate-secant polish as the last
resort.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluator import (
    Problem,
    ArcProfile,
    TOL_Z,
    _slopes,
    delta,
    jacobian_delta,
    jacobian_m,
    profile,
)
from .kernels import approximant, kernel_weight
from .torus import (
    TWO_PI,
    NodeSystem,
    Permutation,
    ValidationError,
    as_node_system,
    as_permutation,
    locate,
    min_gap,
)

INF = math.inf

CONVERGED = "converged"
BOUNDARY_SUSPECTED = "boundary_suspected"
MAX_ITER = "max_iter"
JACOBIAN_SINGULAR = "jacobian_singular"

# node separation below which the iteration is assumed to be leaving the cell
COLLAPSE_TOL = 1e-9
HOMOTOPY_KIND = "bump"  # regularization of the ladder's kernels
MARGIN_FRACTION = 1e-3  # cell projection margin, fraction of min gap
MIN_STEP = 2.0 ** -30  # smallest Newton line-search step
COND_LIMIT = 1e12  # a worse-conditioned Jacobian ends a Newton stage
PROBE_H = 1e-4  # node displacement of the minimax certificate probes
CERTIFICATE_SLACK = 1e-9  # m_bar drop a certificate probe may show
MULTISTART = 3  # seeded restarts after a failed certificate


@dataclass
class SolveOptions:
    tol_residual: float = 1e-10
    max_iter: int = 200
    homotopy_levels: tuple = (4, 16, 64, 256)
    start: object = "equidistant"  # "equidistant" | "coarse_grid" | node angles
    seed: int = 12345
    secant_sweeps: int = 80


@dataclass
class SolveReport:
    status: str
    nodes: NodeSystem
    sigma: Permutation
    residual: float
    objective: float
    profile: ArcProfile
    iterations: int
    trace: list
    seed: int
    flags: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def to_dict(self):
        return {
            "status": self.status,
            "nodes": list(self.nodes.values),
            "sigma": list(self.sigma.sigma),
            "residual": self.residual,
            "objective": self.objective,
            "iterations": self.iterations,
            "seed": self.seed,
            "flags": dict(self.flags),
            "profile": self.profile.to_dict(),
            "trace": list(self.trace),
        }


def equidistant_nodes(n: int, sigma) -> NodeSystem:
    """Nodes at 2*pi*k/(n+1), assigned so slot k of sigma gets the k-th angle."""
    sig = as_permutation(sigma, n)
    return NodeSystem(tuple(sig.nodes(TWO_PI * np.arange(1, n + 1) / (n + 1))))


def _project_cell(y_vec: np.ndarray, sig: Permutation, margin: float) -> np.ndarray:
    """Clamp a free-node vector back into the ordering cell, `margin` inside."""
    n = len(y_vec)
    margin = min(margin, TWO_PI / (4.0 * (n + 1)))
    v = [float(x) for x in sig.slots(y_vec)]
    lo = 0.0
    for k in range(n):
        v[k] = max(v[k], lo + margin)
        lo = v[k]
    hi = TWO_PI
    for k in reversed(range(n)):
        v[k] = min(v[k], hi - margin)
        hi = v[k]
    return sig.nodes(v)


def _residual(p: Problem, sig: Permutation, y_vec: np.ndarray, tol_z: float = TOL_Z,
              prof: ArcProfile | None = None):
    """(max |Delta|, Delta, profile) at y; the max is inf when Delta is not finite.

    A given prof must be the profile at y; it is used instead of a new one.
    """
    ns = NodeSystem(tuple(y_vec))
    if prof is None:
        prof = profile(p, ns, sig, tol_z=tol_z)
    d = delta(p, ns, sig, prof)
    if not np.all(np.isfinite(d)):
        return INF, d, prof
    return float(np.max(np.abs(d))), d, prof


def _settled(res: float, prof: ArcProfile, opts: SolveOptions) -> bool:
    """Converged means small consecutive differences AND small total spread."""
    if res > opts.tol_residual:
        return False
    spread = prof.m_bar - prof.m_under
    return math.isfinite(spread) and spread <= 2.0 * opts.tol_residual


def _newton_stage(p, sig, y_vec, opts: SolveOptions, label):
    """Damped Newton on Delta inside one ordering cell.

    Returns (y, status, trace, profile).  The Jacobian uses midpoint slopes
    at kinks; singular or non-finite Jacobians end the stage.
    """
    trace = []
    y = np.asarray(y_vec, dtype=float).copy()
    res, d, prof = _residual(p, sig, y)
    for it in range(opts.max_iter):
        trace.append({"stage": label, "iter": it, "residual": res})
        if _settled(res, prof, opts):
            return y, CONVERGED, trace, prof
        if not math.isfinite(res):
            return y, BOUNDARY_SUSPECTED, trace, prof
        J = jacobian_delta(p, NodeSystem(tuple(y)), sig, prof, relaxed=True)
        if not np.all(np.isfinite(J)):
            return y, JACOBIAN_SINGULAR, trace, prof
        try:
            cond = np.linalg.cond(J)
        except np.linalg.LinAlgError:
            cond = INF
        if not math.isfinite(cond) or cond > COND_LIMIT:
            return y, JACOBIAN_SINGULAR, trace, prof
        try:
            step = np.linalg.solve(J, -d)
        except np.linalg.LinAlgError:
            return y, JACOBIAN_SINGULAR, trace, prof

        margin = MARGIN_FRACTION * min_gap(NodeSystem(tuple(y)))
        alpha = 1.0
        accepted = False
        while alpha >= MIN_STEP:
            y_try = _project_cell(y + alpha * step, sig, margin)
            res_try, d_try, prof_try = _residual(p, sig, y_try)
            if res_try < res * (1.0 - 1e-4 * alpha):
                y, res, d, prof = y_try, res_try, d_try, prof_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            trace.append({"stage": label, "iter": it + 1, "residual": res, "note": "stalled"})
            return y, MAX_ITER, trace, prof
        if min_gap(NodeSystem(tuple(y))) < COLLAPSE_TOL:
            return y, BOUNDARY_SUSPECTED, trace, prof
    trace.append({"stage": label, "iter": opts.max_iter, "residual": res})
    status = CONVERGED if _settled(res, prof, opts) else MAX_ITER
    return y, status, trace, prof


def _secant_stage(p, sig, y_vec, opts: SolveOptions, label="secant"):
    """Cyclic one-dimensional secant on the components of Delta.

    Component k of Delta is decreasing in the k-th sorted node, so each
    coordinate solve is a monotone root find; no slopes are needed, which
    makes this the fallback for kernels whose Jacobian is unusable.  A
    coordinate move is kept when the probe or the secant point lowers the
    residual; the iterate then sits at the last point evaluated.
    """
    trace = []
    n = p.n
    y = np.asarray(y_vec, dtype=float).copy()
    res, d, prof = _residual(p, sig, y)
    for sweep in range(opts.secant_sweeps):
        trace.append({"stage": label, "iter": sweep, "residual": res})
        if _settled(res, prof, opts):
            return y, CONVERGED, trace, prof
        if not math.isfinite(res):
            return y, BOUNDARY_SUSPECTED, trace, prof
        improved = False
        for k in range(1, n + 1):
            idx = sig.sigma[k - 1] - 1
            slots = sig.slots(y)
            lo = 0.0 if k == 1 else slots[k - 2]
            hi = TWO_PI if k == n else slots[k]
            gap = hi - lo
            pad = 1e-3 * gap
            v0 = y[idx]
            g0 = float(d[k - 1])
            if abs(g0) <= opts.tol_residual:
                continue
            dv = min(0.1 * gap, max(1e-8, 0.01 * abs(g0)))
            v1 = np.clip(v0 + (dv if g0 > 0 else -dv), lo + pad, hi - pad)
            if v1 == v0:
                continue
            y[idx] = v1
            res_new, d_new, prof_new = _residual(p, sig, y)
            accept = res_new < res
            g1 = float(d_new[k - 1])
            if g1 != g0:
                v2 = v1 - g1 * (v1 - v0) / (g1 - g0)
                y[idx] = float(np.clip(v2, lo + pad, hi - pad))
                res_new, d_new, prof_new = _residual(p, sig, y)
                accept = accept or res_new <= res
            if accept:
                res, d, prof = res_new, d_new, prof_new
                improved = True
            else:
                y[idx] = v0
        if not improved:
            break
    status = CONVERGED if _settled(res, prof, opts) else MAX_ITER
    return y, status, trace, prof


def _coarse_grid_start(p, sig, opts: SolveOptions) -> np.ndarray:
    """Pick the interior grid configuration with the smallest residual."""
    n = p.n
    rng = np.random.default_rng(opts.seed)
    candidates = []
    if n <= 3:
        grid = np.linspace(0.0, TWO_PI, 12, endpoint=False)[1:]
        for combo in itertools.combinations(grid, n):
            candidates.append(np.asarray(combo))
    else:
        for _ in range(80):
            v = np.sort(rng.uniform(0.05, TWO_PI - 0.05, n))
            if np.min(np.diff(np.concatenate(([0.0], v, [TWO_PI])))) > 0.05:
                candidates.append(v)
    best = None
    best_res = INF
    for v in candidates:
        y = sig.nodes(v)
        try:
            res, _, _ = _residual(p, sig, y, tol_z=1e-9)  # coarse ranking only
        except ValidationError:
            continue
        if res < best_res:
            best_res = res
            best = y
    if best is None:
        return equidistant_nodes(n, sig).array
    return best


def _initial_nodes(p, sig, opts: SolveOptions) -> np.ndarray:
    start = opts.start
    if isinstance(start, str):
        if start == "equidistant":
            return equidistant_nodes(p.n, sig).array
        if start == "coarse_grid":
            return _coarse_grid_start(p, sig, opts)
        raise ValidationError(f"unknown start {start!r}")
    ns = as_node_system(start)
    if ns.n != p.n:
        raise ValidationError(f"start has {ns.n} nodes, problem expects {p.n}")
    return ns.array


def _spread_nodes(y_vec, sig) -> np.ndarray:
    """Open the tightest gap a little; boundary-collapse restart heuristic."""
    n = len(y_vec)
    slots = np.concatenate(([0.0], sig.slots(np.maximum(y_vec, 1e-15)), [TWO_PI]))
    gaps = np.diff(slots)
    k = int(np.argmin(gaps))  # tight gap between slots k and k+1
    v = slots.copy()
    h = 0.05 * float(np.max(gaps))
    lo_room = (v[k] - v[k - 1]) if k >= 1 else INF
    hi_room = (v[k + 2] - v[k + 1]) if k + 2 <= n + 1 else INF
    if 1 <= k:
        v[k] = v[k] - min(h, 0.45 * lo_room)
    if k + 1 <= n:
        v[k + 1] = v[k + 1] + min(h, 0.45 * hi_room)
    return sig.nodes(v[1:-1])


def solve_equioscillation(p: Problem, sigma, opts: SolveOptions | None = None) -> SolveReport:
    """Find the node system in one ordering cell where all arc maxima agree.

    Strategy: Newton on the exact kernels when their slopes are usable;
    otherwise (or on failure) a warm-started ladder of regularized problems,
    finished on the exact kernels with Newton and a secant polish.  A
    collapse of two nodes is retried from a spread-apart restart before the
    boundary_suspected verdict is final.
    """
    opts = opts or SolveOptions()
    sig = as_permutation(sigma, p.n)

    trace = []
    iterations = 0

    def stages():
        """(label, problem) of each Newton stage, built only when reached:
        the exact problem, the regularized ladder, the exact endgame."""
        yield "direct", p
        for level in opts.homotopy_levels:
            if level is not None and math.isfinite(level):
                yield f"level:{level:g}", Problem(
                    tuple(approximant(k, level, HOMOTOPY_KIND) for k in p.kernels))
        if p.all_c1:
            yield "exact", p

    def pipeline(y):
        """(y, status, profile at y on p; None when the last stage was a rung)."""
        nonlocal iterations
        for label, q in stages():
            y, status, tr, prof = _newton_stage(q, sig, y, opts, label)
            trace.extend(tr)
            iterations += len(tr)
            # a ladder rung only warm-starts the next; the exact problem can stop
            if status == BOUNDARY_SUSPECTED or (status == CONVERGED and q is p):
                return y, status, (prof if q is p else None)
        y, status, tr, prof = _secant_stage(p, sig, y, opts)
        trace.extend(tr)
        iterations += len(tr)
        return y, status, prof

    y, status, prof = pipeline(_initial_nodes(p, sig, opts))
    restarts = 0
    while status == BOUNDARY_SUSPECTED and restarts < 2:
        restarts += 1
        trace.append({"stage": "restart", "iter": restarts, "note": "nodes spread apart"})
        y, status, prof = pipeline(_spread_nodes(y, sig))

    res, _, prof = _residual(p, sig, y, prof=prof)
    ns = NodeSystem(tuple(y))
    interior = min_gap(ns) >= COLLAPSE_TOL
    final = CONVERGED if (_settled(res, prof, opts) and interior) else status
    if final == CONVERGED and not interior:
        final = BOUNDARY_SUSPECTED
    return SolveReport(
        status=final,
        nodes=ns,
        sigma=sig,
        residual=res,
        objective=prof.m_bar,
        profile=prof,
        iterations=iterations,
        trace=trace,
        seed=opts.seed,
    )


def _mbar_closure(p, sig, y_vec):
    """m_bar at y projected onto the closed cell (degenerate arcs allowed)."""
    return profile(p, NodeSystem(tuple(_project_cell(y_vec, sig, 0.0))), sig).m_bar


def minimax(p: Problem, sigma, opts: SolveOptions | None = None) -> SolveReport:
    """Equioscillation solve plus a local-minimality certificate for m_bar.

    The certificate probes the 2n single-node displacements y +/- h e_r
    (projected onto the closed cell) and requires m_bar not to drop by more
    than the slack.  On certificate failure the report is flagged and a few
    seeded restarts are tried.
    """
    opts = opts or SolveOptions()
    sig = as_permutation(sigma, p.n)
    rep = solve_equioscillation(p, sig, opts)

    def certify(r: SolveReport):
        base = r.profile.m_bar
        y = r.nodes.array
        failures = []
        for ridx in range(1, p.n + 1):
            for s in (+PROBE_H, -PROBE_H):
                y_p = y.copy()
                y_p[ridx - 1] += s
                mb = _mbar_closure(p, sig, y_p)
                if mb < base - CERTIFICATE_SLACK:
                    failures.append({"node": ridx, "shift": s, "m_bar": mb})
        return failures

    failures = certify(rep)
    improved = False
    if failures:
        # seeded multistart: maybe a different equioscillation point exists
        rng = np.random.default_rng(opts.seed)
        best = rep
        for _ in range(MULTISTART):
            v = np.sort(rng.uniform(0.02, TWO_PI - 0.02, p.n))
            try:
                alt = solve_equioscillation(p, sig, replace(opts, start=tuple(sig.nodes(v))))
            except ValidationError:
                continue
            if alt.converged and alt.objective < best.objective - 1e-12:
                best = alt
        if best is not rep:
            rep, failures, improved = best, certify(best), True

    cls = p.classifications()
    rep.flags["preconditions_met"] = all(c.strictly_concave for c in cls) and (
        all(c.cond_inf_prime for c in cls) or all(c.c1 for c in cls)
    )
    rep.flags["local_min_certified"] = not failures
    if failures:
        rep.flags["certificate_failures"] = failures
    if improved:
        rep.flags["multistart_improved"] = True
    return rep


@dataclass
class GlobalReport:
    best: SolveReport
    per_sigma: list
    objective: float

    def to_dict(self):
        return {
            "objective": self.objective,
            "best_sigma": list(self.best.sigma.sigma),
            "best": self.best.to_dict(),
            "per_sigma": [
                {"sigma": list(r.sigma.sigma), "status": r.status,
                 "objective": r.objective, "nodes": list(r.nodes.values)}
                for r in self.per_sigma
            ],
        }


def minimax_global(p: Problem, opts: SolveOptions | None = None,
                   max_permutations: int = 6) -> GlobalReport:
    """Sweep the ordering cells and keep the smallest certified m_bar."""
    opts = opts or SolveOptions()
    perms = list(itertools.permutations(range(1, p.n + 1)))
    if len(perms) > max_permutations:
        raise ValidationError(
            f"{len(perms)} orderings exceed the cap {max_permutations}; raise it explicitly"
        )
    reports = [minimax(p, Permutation(sig), opts) for sig in perms]
    best = min(reports, key=lambda r: (not r.converged, r.objective))
    return GlobalReport(best=best, per_sigma=reports, objective=best.objective)


def _steepest_lp(G, F=None):
    """Direction maximizing the smallest row rate, inf-norm box.

    maximize s  s.t.  G a >= s,  F a = 0,  -1 <= a <= 1.  Returns (s*, a*),
    or (0, 0) when the LP fails.  s* > 0 means every row of G can grow at
    once; this is the one first-order question the solvers ask.
    """
    from scipy.optimize import linprog

    mrows, n = G.shape
    # variables x = (a_1..a_n, s); minimize -s
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-G, np.ones((mrows, 1))])
    b_ub = np.zeros(mrows)
    bounds = [(-1.0, 1.0)] * n + [(None, None)]
    eq = {}
    if F is not None:
        eq = {"A_eq": np.hstack([F, np.zeros((F.shape[0], 1))]), "b_eq": np.zeros(F.shape[0])}
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs", **eq)
    if not res.success:
        return 0.0, np.zeros(n)
    return float(-res.fun), np.asarray(res.x[:n])


def maximin(p: Problem, sigma, opts: SolveOptions | None = None) -> SolveReport:
    """Maximize the smallest arc maximum over one ordering cell.

    Starts at the equioscillation point when the solver finds one (for
    singular kernels it is the maximin point), else at the configured start,
    and ascends m_under along directions that raise every nearly-active arc
    at once (a small linear program).  The LP value doubles as the stationarity
    certificate; the trace opens with the equioscillation solve's.
    """
    opts = opts or SolveOptions()
    sig = as_permutation(sigma, p.n)
    equi = solve_equioscillation(p, sig, opts)
    trace = equi.trace
    y, prof = equi.nodes.array, equi.profile  # prof: profile at y, when known
    if not equi.converged:
        y, prof = _initial_nodes(p, sig, opts), None
    status = MAX_ITER
    for it in range(opts.max_iter):
        ns = NodeSystem(tuple(y))
        if prof is None:
            prof = profile(p, ns, sig)
        m_ind = prof.m
        m_under = prof.m_under
        spread = prof.m_bar - m_under
        trace.append({"stage": "ascent", "iter": it, "m_under": m_under, "spread": spread})

        if not math.isfinite(m_under):
            status = BOUNDARY_SUSPECTED
            break

        act_tol = max(10.0 * opts.tol_residual, 0.25 * spread)
        active = [j for j in range(p.n + 1) if m_ind[j] <= m_under + act_tol]
        Jm = jacobian_m(p, ns, sig, prof, relaxed=True)
        G = Jm[active, :]
        if not np.all(np.isfinite(G)):
            status = JACOBIAN_SINGULAR
            break
        s_star, a = _steepest_lp(G)
        scale = max(1.0, abs(m_under))
        if s_star <= 1e-11 * scale:
            status = CONVERGED
            break
        alpha = min(0.49 * min_gap(ns), 0.5)
        margin = MARGIN_FRACTION * min_gap(ns)
        accepted = False
        while alpha >= 1e-14:
            y_try = _project_cell(y + alpha * a, sig, margin)
            prof_try = profile(p, NodeSystem(tuple(y_try)), sig)
            if prof_try.m_under > m_under + 1e-6 * alpha * s_star:
                y, prof = y_try, prof_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # no line-search progress at a positive LP rate: numerical floor
            res = _residual(p, sig, y, prof=prof)[0]
            status = CONVERGED if _settled(res, prof, opts) else MAX_ITER
            break

    res, _, prof = _residual(p, sig, y, prof=prof)
    return SolveReport(
        status=status,
        nodes=NodeSystem(tuple(y)),
        sigma=sig,
        residual=res,
        objective=prof.m_under,
        profile=prof,
        iterations=len(trace),
        trace=trace,
        seed=opts.seed,
        flags={"objective_kind": "m_under"},
    )


class NoAdmissibleDirection(RuntimeError):
    """Every box direction violates some active constraint: equioscillation."""


@dataclass
class DescentDirection:
    a: np.ndarray
    active: list
    margins: np.ndarray
    neutral: bool

    def to_dict(self):
        return {
            "a": [float(v) for v in self.a],
            "active": list(self.active),
            "margins": [float(v) for v in self.margins],
            "neutral": self.neutral,
        }


def _supporting_slopes(p: Problem, positions, t):
    """Per-kernel slopes at t summing to zero (horizontal support at a max).

    Each slope is taken inside [D+ K_j, D- K_j] at t - y_j, interpolated with
    a common parameter; at a maximizer zero lies between the one-sided sums.
    """
    dplus = _slopes(p, positions, t, "right")
    dminus = _slopes(p, positions, t, "left")
    if not (np.all(np.isfinite(dplus)) and np.all(np.isfinite(dminus))):
        raise ValidationError("supporting slopes unavailable: t collides with a singular node")
    lo = float(np.sum(dplus))
    hi = float(np.sum(dminus))
    # the bisection leaves the maximizer within an angle tolerance, so the
    # slope sums miss 0 by up to that tolerance times the slopes' size
    tol = 1e-9 * max(1.0, float(np.sum(np.abs(dplus))), float(np.sum(np.abs(dminus))))
    if lo > tol or hi < -tol:
        raise ValidationError(f"not a maximizer: slope interval [{lo}, {hi}] misses 0")
    lam = 0.0 if hi == lo else np.clip(-lo / (hi - lo), 0.0, 1.0)
    return dplus + lam * (dminus - dplus)


def descent_direction(
    p: Problem,
    y,
    sigma=None,
    active=None,
    frozen=None,
    tol_active: float = 1e-9,
) -> DescentDirection:
    """A box direction that does not raise any active arc maximum.

    Active arcs default to those attaining m_bar.  The direction a (with
    a_0 = 0 for the fixed node) maximizes the smallest margin
    sum_j a_j mu_ij over the active maximizers t_i, subject to any frozen
    linear constraints F a = 0.  A non-neutral direction has every margin
    positive, so moving the nodes to y + h a for small h > 0 strictly lowers
    every active maximum; a neutral one has every margin zero.  Raises
    NoAdmissibleDirection at an equioscillation point with no slack.
    """
    ns = as_node_system(y)
    if sigma is None:
        loc = locate(ns)
        if loc.kind != "interior":
            raise ValidationError("ambiguous ordering on a cell face: pass sigma")
        sig = loc.sigma
    else:
        sig = as_permutation(sigma, ns.n)
    prof = profile(p, ns, sig)
    m_ind = prof.m
    if active is None:
        active = [j for j in range(p.n + 1) if m_ind[j] >= prof.m_bar - tol_active]
    active = sorted(int(j) for j in active)
    # the construction needs k <= n active arcs; full activity is an
    # equioscillation point and no direction can lower every maximum
    if len(active) == p.n + 1:
        raise NoAdmissibleDirection(
            "all arcs are active: the point equioscillates, descent is blocked"
        )
    onb = prof.z_on_boundary
    for j in active:
        if onb[j]:
            raise ValidationError(
                f"active maximizer of arc {j} sits on a node; no supporting slopes there"
            )
    positions = ns.full_positions()
    z_ind = prof.z
    M = np.empty((len(active), p.n))
    for i, j in enumerate(active):
        mu = _supporting_slopes(p, positions, float(z_ind[j]))
        M[i, :] = mu[1:]

    F = None
    if frozen is not None:
        F = np.atleast_2d(np.asarray(frozen, dtype=float))
        if F.shape[1] != p.n:
            raise ValidationError("frozen constraint rows must have length n")

    s_star, a = _steepest_lp(M, F)
    if s_star > 1e-11:
        a = a / np.max(np.abs(a))
        return DescentDirection(a=a, active=active, margins=M @ a, neutral=False)

    # no direction lowers every active maximum: look for a neutral one
    rows = [M, -M]
    if F is not None:
        rows += [F, -F]
    A = np.vstack(rows)
    _, s, vt = np.linalg.svd(A)
    null_mask = np.concatenate([s, np.zeros(vt.shape[0] - len(s))]) <= 1e-10
    if np.any(null_mask):
        a = vt[null_mask][0]
        a = a / np.max(np.abs(a))
        return DescentDirection(a=a, active=active, margins=M @ a, neutral=True)
    raise NoAdmissibleDirection(
        "no direction lowers every active maximum or leaves them all unchanged"
    )


def pull_apart(p: Problem, y, j: int, k: int, h: float) -> NodeSystem:
    """Spread two nodes apart with weight-reciprocal speeds.

    Node j (the lower) moves down by h / r_j, node k (the upper) moves up by
    h / r_k, where r is the kernel weight.  Valid while the moved nodes stay
    inside (0, 2*pi); the sum of the two weighted kernels strictly drops
    outside the straddled region.
    """
    ns = as_node_system(y)
    if not (1 <= j <= ns.n and 1 <= k <= ns.n and j != k):
        raise ValidationError(f"node indices out of range: j={j}, k={k}")
    yj = ns.values[j - 1]
    yk = ns.values[k - 1]
    if yj > yk:
        raise ValidationError(f"pull_apart needs y_j <= y_k, got {yj} > {yk}")
    if not (h > 0):
        raise ValidationError("h must be positive")
    b = 1.0 / kernel_weight(p.kernels[j])
    a = 1.0 / kernel_weight(p.kernels[k])
    if yj - b * h <= 0:
        raise ValidationError(f"step too large: node {j} would leave (0, 2*pi)")
    if yk + a * h >= TWO_PI:
        raise ValidationError(f"step too large: node {k} would leave (0, 2*pi)")
    vals = list(ns.values)
    vals[j - 1] = yj - b * h
    vals[k - 1] = yk + a * h
    return NodeSystem(tuple(vals))
