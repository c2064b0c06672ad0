"""Equioscillation, minimax and maximin solvers.

The interior equation is Delta(y) = 0, where Delta is the vector of
consecutive differences of arc maxima in traversal order.  The core solver
is a damped Newton iteration on Delta with projection into the ordering
cell; problems whose kernels have kinks or lack endpoint slope blow-up are
driven through a ladder of regularized kernels at the fixed HOMOTOPY_LEVELS
(warm-started homotopy) and finished on the exact kernels, with a
coordinate-secant polish of at most SECANT_SWEEPS sweeps as the last resort.

A ladder rung only warm-starts the next, so every rung but the last stops
at residual max(tol_residual, level**-2): the bump term moves F by at most
pi/level, neighbouring rungs differ by O(1/level), and level**-2 is a
factor of level below that.  The last rung keeps tol_residual: the exact
stages start from it, and on kinked kernels the secant polish, which
gains little per sweep, finishes only from a start that is already close.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .evaluator import (
    Problem,
    ArcProfile,
    JacobianUnavailableError,
    delta,
    jacobian_delta,
    jacobian_m,
    profile,
)
from .kernels import CapabilityError, approximant
from .torus import (
    TWO_PI,
    NodeSystem,
    Permutation,
    ValidationError,
    as_permutation,
    min_gap,
    node_angles,
)

INF = math.inf

CONVERGED = "converged"
BOUNDARY_SUSPECTED = "boundary_suspected"
MAX_ITER = "max_iter"
JACOBIAN_SINGULAR = "jacobian_singular"

# node separation below which the iteration is assumed to be leaving the cell
COLLAPSE_TOL = 1e-9
HOMOTOPY_KIND = "bump"  # regularization of the ladder's kernels
HOMOTOPY_LEVELS = (4, 16, 64, 256)  # smoothing levels of the ladder's rungs
SECANT_SWEEPS = 80  # sweep cap of the secant polish
MARGIN_FRACTION = 1e-3  # cell projection margin, fraction of min gap
MIN_STEP = 2.0 ** -30  # smallest Newton line-search step
# trial points profiled together by a line search: the first alone (most
# searches stop there), then the next four, then all the rest
LINE_SEARCH_BATCHES = ((0, 1), (1, 5), (5, None))
COND_LIMIT = 1e12  # a worse-conditioned Jacobian ends a Newton stage
# the axis probes certify minimax only where Gordan's test has no verdict
PROBE_H = 1e-4  # node displacement of the minimax certificate probes
CERTIFICATE_SLACK = 1e-9  # m_bar drop a certificate probe may show
GORDAN_RANK_TOL = 1e-10  # sigma_min / sigma_max of Jm at or below which rank Jm < n
GORDAN_SIGN_TOL = 1e-8  # |lambda_j| / max |lambda| at or below which lambda_j has no sign
MULTISTART = 3  # seeded restarts after a failed certificate
LP_PIVOTS = 1000  # pivot cap of the ascent LP's simplex
LP_TOL = 1e-12  # pivot tolerance of the ascent LP, on max |G| = 1


@dataclass
class SolveOptions:
    tol_residual: float = 1e-10
    max_iter: int = 200
    start: object = "equidistant"  # "equidistant" | "coarse_grid" | node angles
    seed: int = 12345


@dataclass
class SolveReport:
    """A solve's outcome; its node system and cell are those of `profile`."""

    status: str
    residual: float
    objective: float
    profile: ArcProfile
    iterations: int
    trace: list
    seed: int
    flags: dict = field(default_factory=dict)

    @property
    def nodes(self) -> NodeSystem:
        return NodeSystem(tuple(self.profile.positions[1:]))

    @property
    def sigma(self) -> Permutation:
        return self.profile.sigma

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
    """Clamp a free-node vector back into the ordering cell, `margin` inside.

    Callers pass a margin of 0 or MARGIN_FRACTION * min_gap, far below the
    2*pi/(n+1) at which the clamps would cross.  No node lands on 2*pi,
    even for a margin below half an ulp of 2*pi: profile() would reduce it
    to 0, outside the cell."""
    n = len(y_vec)
    v = [float(x) for x in sig.slots(y_vec)]
    lo = 0.0
    for k in range(n):
        v[k] = max(v[k], lo + margin)
        lo = v[k]
    hi, top = TWO_PI, math.nextafter(TWO_PI, 0.0)
    for k in reversed(range(n)):
        v[k] = min(v[k], hi - margin, top)
        hi = v[k]
    return sig.nodes(v)


def _line_search(p, sig, y, step, margin, alpha, floor):
    """(alpha, trial point, its profile) for alpha, alpha/2, ... down to
    floor, in that order; the trial point is y + alpha * step projected into
    the cell.  The trials are independent and a search keeps only the first
    that passes its test, so they are profiled in the batches of
    LINE_SEARCH_BATCHES, each with one profile() call.
    """
    alphas = []
    while alpha >= floor:
        alphas.append(alpha)
        alpha *= 0.5
    for lo, hi in LINE_SEARCH_BATCHES:
        ys = np.array([_project_cell(y + a * step, sig, margin) for a in alphas[lo:hi]])
        if len(ys):
            yield from zip(alphas[lo:hi], ys, profile(p, ys, sig))


def _residual(prof: ArcProfile):
    """(max |Delta|, Delta) at the node system of prof; the max is inf when
    Delta is not finite."""
    d = delta(prof)
    if not np.all(np.isfinite(d)):
        return INF, d
    return float(np.max(np.abs(d))), d


def _iterations(trace) -> int:
    """A report's iteration count: its trace rows less the restart markers."""
    return sum(row["stage"] != "restart" for row in trace)


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
    prof = profile(p, y, sig)
    res, d = _residual(prof)
    for it in range(opts.max_iter):
        trace.append({"stage": label, "iter": it, "residual": res})
        if _settled(res, prof, opts):
            return y, CONVERGED, trace, prof
        if not math.isfinite(res):
            return y, BOUNDARY_SUSPECTED, trace, prof
        J = jacobian_delta(p, prof, relaxed=True)
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

        margin = MARGIN_FRACTION * min_gap(y)
        accepted = False
        for alpha, y_try, prof_try in _line_search(p, sig, y, step, margin, 1.0, MIN_STEP):
            res_try, d_try = _residual(prof_try)
            if res_try < res * (1.0 - 1e-4 * alpha):
                y, res, d, prof = y_try, res_try, d_try, prof_try
                accepted = True
                break
        if not accepted:
            trace.append({"stage": label, "iter": it + 1, "residual": res, "note": "stalled"})
            return y, MAX_ITER, trace, prof
        if min_gap(y) < COLLAPSE_TOL:
            return y, BOUNDARY_SUSPECTED, trace, prof
    trace.append({"stage": label, "iter": opts.max_iter, "residual": res})
    status = CONVERGED if _settled(res, prof, opts) else MAX_ITER
    return y, status, trace, prof


def _secant_stage(p, sig, y_vec, opts: SolveOptions):
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
    prof = profile(p, y, sig)
    res, d = _residual(prof)
    for sweep in range(SECANT_SWEEPS):
        trace.append({"stage": "secant", "iter": sweep, "residual": res})
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
            prof_new = profile(p, y, sig)
            res_new, d_new = _residual(prof_new)
            accept = res_new < res
            g1 = float(d_new[k - 1])
            if g1 != g0:
                v2 = v1 - g1 * (v1 - v0) / (g1 - g0)
                y[idx] = float(np.clip(v2, lo + pad, hi - pad))
                prof_new = profile(p, y, sig)
                res_new, d_new = _residual(prof_new)
                accept = accept or res_new < res
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
            if min_gap(v) > 0.05:
                candidates.append(v)
    # every candidate is strictly increasing and inside the cell
    best = equidistant_nodes(n, sig).array
    best_res = INF
    if candidates:
        ys = np.array([sig.nodes(v) for v in candidates])
        for y, prof in zip(ys, profile(p, ys, sig)):
            res = _residual(prof)[0]
            if res < best_res:
                best_res = res
                best = y
    return best


def _initial_nodes(p, sig, opts: SolveOptions) -> np.ndarray:
    start = opts.start
    if isinstance(start, str):
        if start == "equidistant":
            return equidistant_nodes(p.n, sig).array
        if start == "coarse_grid":
            return _coarse_grid_start(p, sig, opts)
        raise ValidationError(f"unknown start {start!r}")
    return NodeSystem(node_angles(start, p.n)).array


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
    finished on the exact kernels with Newton and a secant polish.  Rungs
    before the last stop at max(tol_residual, level**-2); the last rung, the
    direct stage and the exact endgame run to tol_residual (see the module
    docstring).  A collapse of two nodes is retried from a spread-apart
    restart before the boundary_suspected verdict is final.
    """
    opts = opts or SolveOptions()
    sig = as_permutation(sigma, p.n)

    trace = []

    def stages():
        """(label, problem, options) of each Newton stage, built only when
        reached: the exact problem, the regularized ladder (its rungs but
        the last with the looser tolerance), the exact endgame."""
        yield "direct", p, opts
        for i, level in enumerate(HOMOTOPY_LEVELS):
            rung_opts = opts if i == len(HOMOTOPY_LEVELS) - 1 else replace(
                opts, tol_residual=max(opts.tol_residual, level ** -2.0))
            yield f"level:{level:g}", Problem(
                tuple(approximant(k, level, HOMOTOPY_KIND) for k in p.kernels)), rung_opts
        if p.all_c1:
            yield "exact", p, opts

    def pipeline(y):
        """(y, status, profile at y on p; None when the last stage was a rung)."""
        for label, q, stage_opts in stages():
            y, status, tr, prof = _newton_stage(q, sig, y, stage_opts, label)
            trace.extend(tr)
            # a ladder rung only warm-starts the next; the exact problem can stop
            if status == BOUNDARY_SUSPECTED or (status == CONVERGED and q is p):
                return y, status, (prof if q is p else None)
        y, status, tr, prof = _secant_stage(p, sig, y, opts)
        trace.extend(tr)
        return y, status, prof

    y, status, prof = pipeline(_initial_nodes(p, sig, opts))
    restarts = 0
    while status == BOUNDARY_SUSPECTED and restarts < 2:
        restarts += 1
        trace.append({"stage": "restart", "iter": restarts, "note": "nodes spread apart"})
        y, status, prof = pipeline(_spread_nodes(y, sig))

    if prof is None:
        prof = profile(p, y, sig)
    res = _residual(prof)[0]
    # a stage ends max_iter or jacobian_singular only unsettled; a settled
    # stage checks no gap, so the collapse verdict is made here
    if _settled(res, prof, opts):
        status = CONVERGED if min_gap(y) >= COLLAPSE_TOL else BOUNDARY_SUSPECTED
    return SolveReport(
        status=status,
        residual=res,
        objective=prof.m_bar,
        profile=prof,
        iterations=_iterations(trace),
        trace=trace,
        seed=opts.seed,
    )


def _mbar_closure(p, sig, ys):
    """m_bar at each node vector of ys (a 2-D array, one per row) projected
    onto the closed cell (degenerate arcs allowed), from one batch profile."""
    closed = np.array([_project_cell(y, sig, 0.0) for y in ys])
    return [prof.m_bar for prof in profile(p, closed, sig)]


def _probe_failures(p, rep: SolveReport):
    """The single-node displacements y +/- h e_r (projected onto the closed
    cell) of the report's node system whose m_bar drops by more than the
    slack: 2n profiled systems."""
    prof = rep.profile
    moves = [(ridx, s) for ridx in range(1, p.n + 1) for s in (+PROBE_H, -PROBE_H)]
    ys = np.repeat(prof.positions[None, 1:], len(moves), axis=0)
    for row, (ridx, s) in zip(ys, moves):
        row[ridx - 1] += s
    return [{"node": ridx, "shift": s, "m_bar": mb}
            for (ridx, s), mb in zip(moves, _mbar_closure(p, prof.sigma, ys))
            if mb < prof.m_bar - CERTIFICATE_SLACK]


def _gordan(p, rep: SolveReport):
    """Gordan's alternative on the arc-maxima Jacobian Jm ((n+1) x n).

    At a converged equioscillation point of C1 kernels with every maximizer
    inside its arc, Jm is the first-order change of the arc maxima.  When Jm
    has rank n its left null space is one line, spanned by lam.  If lam has
    one strict sign, every direction a != 0 gives rates Jm a of both signs
    (lam . Jm a = 0 and Jm a != 0): m_bar has a sharp local minimum there,
    and m_under a sharp local maximum.  The verdict is [] (no failures).
    If lam has both signs, some direction lowers every arc maximum at once;
    the verdict is one failure holding that direction and its rates.
    Anything else (a kink or a maximizer on a node, which the strict
    jacobian_m refuses; a rank-deficient Jm; an entry of lam too small to
    sign) is no verdict: None.
    """
    if not rep.converged:
        return None
    try:
        Jm = jacobian_m(p, rep.profile)
    except (CapabilityError, JacobianUnavailableError):
        return None
    if not np.all(np.isfinite(Jm)):
        return None
    u, s, vt = np.linalg.svd(Jm)
    if s[-1] <= GORDAN_RANK_TOL * s[0]:
        return None
    lam = u[:, -1] if np.sum(u[:, -1]) >= 0.0 else -u[:, -1]
    tol = GORDAN_SIGN_TOL * np.max(np.abs(lam))
    neg = lam < -tol
    if not np.any(neg):
        return [] if np.all(lam > tol) else None
    # w > 0 with lam . w = 0 lies in the range of Jm; a solves Jm a = -w
    w = 1.0 + neg * (np.sum(lam) / -np.sum(lam[neg]))
    a = vt.T @ ((u[:, :-1].T @ -w) / s)
    a = a / np.max(np.abs(a))
    return [{"direction": [float(v) for v in a], "rates": [float(v) for v in Jm @ a]}]


def minimax(p: Problem, sigma, opts: SolveOptions | None = None) -> SolveReport:
    """Equioscillation solve plus a local-minimality certificate for m_bar.

    Where every kernel is C1, the solve converged and every maximizer lies
    inside its arc, Gordan's alternative on the arc-maxima Jacobian decides
    local minimality with one SVD (see _gordan).  Otherwise (a kink, no
    convergence, a maximizer on a node, a rank-deficient Jacobian) the
    certificate probes the 2n single-node displacements y +/- h e_r
    (projected onto the closed cell) and requires m_bar not to drop by more
    than the slack.  flags["certificate"] names the test that ran
    ("gordan" or "probes").  On certificate failure the report is flagged
    and a few seeded restarts are tried.
    """
    opts = opts or SolveOptions()
    sig = as_permutation(sigma, p.n)
    rep = solve_equioscillation(p, sig, opts)

    def certify(r: SolveReport):
        """(failures, kind of certificate); an empty list certifies."""
        failures = _gordan(p, r)
        if failures is None:
            return _probe_failures(p, r), "probes"
        return failures, "gordan"

    failures, kind = certify(rep)
    improved = False
    if failures:
        # seeded multistart: maybe a different equioscillation point exists
        rng = np.random.default_rng(opts.seed)
        best = rep
        for _ in range(MULTISTART):
            v = np.sort(rng.uniform(0.02, TWO_PI - 0.02, p.n))
            alt = solve_equioscillation(p, sig, replace(opts, start=tuple(sig.nodes(v))))
            if alt.converged and alt.objective < best.objective - 1e-12:
                best = alt
        if best is not rep:
            rep, improved = best, True
            failures, kind = certify(best)

    cls = p.classifications()
    rep.flags["preconditions_met"] = all(c.strictly_concave for c in cls) and (
        all(c.cond_inf_prime for c in cls) or all(c.c1 for c in cls)
    )
    rep.flags["local_min_certified"] = not failures
    rep.flags["certificate"] = kind
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


def _steepest_lp(G):
    """Direction maximizing the smallest row rate, inf-norm box.

    maximize s  s.t.  G a >= s,  -1 <= a <= 1, for a G with at least one
    row.  Returns (s*, a*); s* > 0 means every row of G can grow at once,
    the one first-order question the solvers ask.

    A dense tableau simplex on a = a+ - a-, with 0 <= a+, a- <= 1 and
    s >= 0, which loses nothing: a = 0, s = 0 is feasible, so s* >= 0.  Every
    right-hand side is >= 0, so the origin is a feasible start vertex (no
    phase 1); it is degenerate in the rows of G, so the pivots follow
    Bland's rule, which cannot cycle.  G is scaled to max |G| = 1 first, so
    LP_TOL is absolute.  Returns (0, 0) only when LP_PIVOTS pivots do not
    reach the optimum.
    """
    mrows, n = G.shape
    scale = float(np.abs(G).max()) or 1.0
    k, rows = 2 * n + 1, mrows + 2 * n  # columns a+, a-, s; then one slack per row
    T = np.zeros((rows + 1, k + rows + 1))
    T[:mrows, :2 * n] = np.hstack((-G, G)) / scale
    T[:mrows, 2 * n] = 1.0
    T[mrows:rows, :2 * n] = np.eye(2 * n)
    T[mrows:rows, -1] = 1.0
    T[:rows, k:-1] = np.eye(rows)
    T[-1, 2 * n] = -1.0  # objective row of max s: reduced costs | s
    basis = np.arange(k, k + rows)
    for _ in range(LP_PIVOTS):
        entering = np.flatnonzero(T[-1, :-1] < -LP_TOL)
        if entering.size == 0:
            x = np.zeros(k + rows)
            x[basis] = T[:rows, -1]
            return float(T[-1, -1]) * scale, x[:n] - x[n:2 * n]
        j = entering[0]
        cand = np.flatnonzero(T[:rows, j] > LP_TOL)
        ratio = T[cand, -1] / T[cand, j]
        tied = cand[ratio <= ratio.min() + LP_TOL]
        i = tied[np.argmin(basis[tied])]
        T[i] /= T[i, j]
        col = T[:, j].copy()
        col[i] = 0.0
        T -= np.outer(col, T[i])
        basis[i] = j
    return 0.0, np.zeros(n)


def maximin(p: Problem, sigma, opts: SolveOptions | None = None) -> SolveReport:
    """Maximize the smallest arc maximum over one ordering cell.

    Starts at the equioscillation point when the solver finds one (for
    singular kernels it is the maximin point).  Otherwise it starts at
    whichever of the failed solve's last iterate and the configured start
    has the larger m_under, the iterate on a tie: the ascent only rises, so
    it must not start below a point the solve already holds.  It ascends
    m_under along directions that raise every nearly-active arc at once (a
    small linear program).  The LP value doubles as the stationarity
    certificate; a stationary point whose arc maxima are not settled gets
    one direct Newton stage (trace label "polish"), kept when it settles at
    an m_under at most 10 tol_residual lower, and ends max_iter otherwise.
    A start with a Gordan certificate (see _gordan) is a sharp local
    maximum of m_under and converges with no LP; its ascent entry is
    marked.  A start with an arc maximum of -inf ends boundary_suspected.
    The trace opens with the equioscillation solve's.
    """
    opts = opts or SolveOptions()
    sig = as_permutation(sigma, p.n)
    equi = solve_equioscillation(p, sig, opts)
    trace = equi.trace
    prof = equi.profile
    if not equi.converged:
        start = profile(p, _initial_nodes(p, sig, opts), sig)
        if start.m_under > prof.m_under:
            prof = start
    certified = _gordan(p, equi) == []
    status = MAX_ITER
    for it in range(opts.max_iter):
        m_ind = prof.m
        m_under = prof.m_under
        spread = prof.m_bar - m_under
        trace.append({"stage": "ascent", "iter": it, "m_under": m_under, "spread": spread})

        if not math.isfinite(m_under):
            status = BOUNDARY_SUSPECTED
            break
        if certified:
            trace[-1]["note"] = "gordan certificate"
            status = CONVERGED
            break

        act_tol = max(10.0 * opts.tol_residual, 0.25 * spread)
        active = [j for j in range(p.n + 1) if m_ind[j] <= m_under + act_tol]
        Jm = jacobian_m(p, prof, relaxed=True)
        G = Jm[active, :]
        if not np.all(np.isfinite(G)):
            status = JACOBIAN_SINGULAR
            break
        s_star, a = _steepest_lp(G)
        scale = max(1.0, abs(m_under))
        if s_star <= 1e-11 * scale:
            status = CONVERGED
            if not _settled(_residual(prof)[0], prof, opts):
                _, status, tr, polished = _newton_stage(p, sig, prof.positions[1:], opts, "polish")
                trace.extend(tr)
                if status == CONVERGED and polished.m_under >= m_under - 10.0 * opts.tol_residual:
                    prof = polished
                else:
                    status = MAX_ITER
            break
        y = prof.positions[1:]
        gap = min_gap(y)
        accepted = False
        for alpha, _, prof_try in _line_search(p, sig, y, a, MARGIN_FRACTION * gap,
                                               min(0.49 * gap, 0.5), 1e-14):
            if prof_try.m_under > m_under + 1e-6 * alpha * s_star:
                prof = prof_try
                accepted = True
                break
        if not accepted:
            # no line-search progress at a positive LP rate: numerical floor
            res = _residual(prof)[0]
            status = CONVERGED if _settled(res, prof, opts) else MAX_ITER
            break

    return SolveReport(
        status=status,
        residual=_residual(prof)[0],
        objective=prof.m_under,
        profile=prof,
        iterations=_iterations(trace),
        trace=trace,
        seed=opts.seed,
        flags={"objective_kind": "m_under"},
    )
