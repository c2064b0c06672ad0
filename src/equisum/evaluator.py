"""Sum-of-translates functions and their per-arc maxima.

Given kernels K_0..K_n and free nodes y_1..y_n, the object of study is

    F(y, t) = K_0(t) + sum_j K_j(t - y_j),

a concave function on each arc cut out by the nodes.  For an ordering sigma
the profile collects, per arc, the maximum m_j and a maximizer z_j; the
interior solvers work with the vector of consecutive differences of the
m's taken in traversal order.

profile() also takes a batch: a (B, n) array of node systems in one cell
gives B profiles from one lockstep bisection over the arcs of all of them,
each bit for bit the profile of its system alone.  The solvers profile
their line-search trials, certificate probes and coarse-grid candidates
this way.

The bisection is fixed: each edge of a maximizing set gets the same
midpoints, the same verdicts and so the same bits as one-level bisection.
Only the number of slope calls it takes varies.  The left edge is where
the "right" slope sum stops being > 0, the right edge where the "left" one
stops being >= 0, and each call reads both sums of its points from one
kernel pass (deriv(t, "both")).  Each side adds the same per-kernel rows
in the same order as a call for that side alone, so it has that call's
bits; where no kernel's sides differ, off the kinks and the glue point,
the two are one array.  An arc that needs both edges gets one bracket,
which serves both while their verdicts agree and splits in two at the
first point where they differ: a slope sum of exactly 0, or a kink.  The
first call settles a few levels of every bracket at once as a bisection
tree.  Then, when every kernel is C1 and the brackets are few, each call
tests a path per bracket: the midpoints one-level bisection would visit if
the edge sat at the secant root of the bracket's end slopes.  A bracket
keeps the levels up to the first verdict the path did not expect, so a
good guess settles many levels per call and a bad one still settles one.
Kinked kernels keep the tree, which their guesses would not beat.
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
    Permutation,
    ValidationError,
    _cuts,
    as_permutation,
    node_positions,
)

INF = math.inf

# endpoint bisection resolution: absolute angle tolerance
TOL_Z = 1e-12 * TWO_PI
_BOUNDARY_TOL = 4.0 * TOL_Z  # a maximizer this close to an arc end is on it
_UNIQUE_TOL = 1e-10  # a maximizing set at most this wide is one point

# Kernel-point budget of one bisection-tree pass: brackets x kernels x tree
# points.  Below it a slope call costs mostly its fixed numpy overhead.
_TREE_POINTS = 1024

# C1 brackets after the first tree pass follow guided paths (_guided_levels),
# built in Python floats at a cost per bracket and level.  Against the tree
# alone, profiles of weighted log-sines on a 2-vCPU VM took 0.6x the time at
# 6-12 brackets, 0.5-0.75x at 26-34, 0.9x at 42, 1.1x at 48-52 and 1.5-1.9x
# at 96-180.  Up to _PATH_BRACKETS brackets take them; a path is
# _PATH_MARGIN levels longer than twice the last one its bracket kept.
_PATH_BRACKETS = 40
_PATH_MARGIN = 6

# Up to this many brackets walk their trees in a Python loop, beyond it in
# numpy, one step of all of them per level.  One walk on a 2-vCPU VM, loop
# against numpy: 5 against 32 us for 2 brackets 7 levels deep, even at 16
# brackets 1 level deep (6 us) and at 20-24 brackets 3-4 levels deep, 42
# against 7 us for 160 brackets.  With the loop alone, tree-only profiles
# of weighted log-sines took 9% longer at n = 80 and 10% at n = 160.
_LOOP_WALKERS = 16


class JacobianUnavailableError(ValueError):
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

    @cached_property
    def slope_plan(self):
        """Kernels grouped by base kernel, built on first use.

        A tuple of (base, kernel indices, weights): kernel idx[i] equals
        weights[i] * base, with a leading Weighted unwrapped.  Bases with the
        same type and spec behave alike, so one value or deriv call serves a
        group.
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
    return sum_translates_full(p, node_positions(y, p.n), t)


def sum_translates_full(p: Problem, positions, t):
    """Sum of all kernels, in kernel order, at explicit positions (no fixed
    node assumed): (n+1,), or (n+1, c), one per column of t, as in _slopes."""
    pos = np.atleast_1d(np.asarray(positions, dtype=float))
    if len(pos) != len(p.kernels):
        raise ValidationError(f"{len(pos)} positions for {len(p.kernels)} kernels")
    # + 0.0 turns a -0.0 sum into 0.0, as a sum started from 0 would
    acc = _slope_sum(p, pos, t, None) + 0.0
    if np.ndim(t) == 0:
        return float(acc)
    return acc


def _slopes(p: Problem, pos, ts, side):
    """Per-kernel one-sided slopes K_j'(t - pos_j), or with side None the
    values K_j(t - pos_j): shape (n+1,) + shape of ts.  With side "both",
    the pair (left, right) of such arrays, right itself twice when no
    kernel's sides differ at any point.

    pos is (n+1,), one node system for every point, or (n+1, c): the node
    system of each of the c columns of ts (its last axis).  One value or
    deriv call per group of p.slope_plan, on the (group, points) grid.
    """
    ts = np.asarray(ts, dtype=float)
    col = (-1,) + (1,) * ts.ndim
    at = col if pos.ndim == 1 else col[:-1] + (pos.shape[1],)
    out = np.empty((len(p.kernels),) + ts.shape, dtype=float)
    left = out  # the "left" rows, out itself while every group's sides agree
    for base, idx, w in p.slope_plan:
        grid = ts - pos[idx].reshape(at)
        rows = base.value(grid) if side is None else base.deriv(grid, side)
        rows_l, rows = rows if side == "both" else (rows, rows)
        w = w.reshape(col)
        if rows_l is not rows and left is out:
            left = out.copy()
        out[idx] = w * np.asarray(rows)
        if left is not out:
            left[idx] = w * np.asarray(rows_l)
    return (left, out) if side == "both" else out


def _slope_sum(p: Problem, pos, ts, side):
    """One-sided slope of t -> F(y, t) at each entry of ts, or with side None
    the value F(y, t) (pos as in _slopes).  With side "both", the pair
    (left, right) of slopes, right itself twice when no kernel's sides
    differ at any point.

    The running sum adds the kernels in index order, one at a time, so the
    result does not depend on how the slopes were grouped, and each side of
    a "both" call has the bits of a call for that side alone.
    """
    def total(S):
        acc = S[0] + S[1]
        for row in S[2:]:
            acc += row
        return acc

    if side != "both":
        return total(_slopes(p, pos, ts, side))
    left, right = _slopes(p, pos, ts, side)
    sr = total(right)
    return (sr if left is right else total(left)), sr


@dataclass
class ArcProfile:
    """Per-arc maxima of F(y, .) under an ordering sigma.

    The profile is the record of its node system: `positions` holds the
    n+1 node angles reduced into [0, 2*pi), the fixed node's 0 first, then
    y_1..y_n by node index (an array of its own, never a view of the y it
    was computed from).  Traversal arrays follow the arcs counterclockwise
    from the fixed node: traversal arc k is [cuts[k], cuts[k+1]] (see
    torus.arcs) and `labels[k]` is its arc index.  Indexed accessors report
    quantities by arc index j = 0..n.
    """

    sigma: Permutation
    positions: np.ndarray
    cuts: np.ndarray
    z_trav: np.ndarray
    m_trav: np.ndarray
    z_on_boundary_trav: np.ndarray
    unique_trav: np.ndarray

    @property
    def labels(self) -> tuple:
        return self.sigma.labels()

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

    def to_dict(self):
        cuts = self.cuts.tolist()
        return {
            "sigma": list(self.sigma.sigma),
            "arcs": [
                {"index": j, "lo": lo, "hi": hi}
                for j, lo, hi in zip(self.labels, cuts, cuts[1:])
            ],
            "z": [float(v) for v in self.z],
            "m": [float(v) for v in self.m],
            "m_bar": self.m_bar,
            "m_under": self.m_under,
            "z_on_boundary": [bool(v) for v in self.z_on_boundary],
            "unique_max": [bool(v) for v in self.unique],
        }


def _tree_depth(brackets, kernels):
    """Largest d >= 1 with brackets * kernels * (2^d - 1) <= _TREE_POINTS."""
    d = 1
    while brackets * kernels * (2 ** (d + 1) - 1) <= _TREE_POINTS:
        d += 1
    return d


def _walk(go, first, last, d):
    """Where d one-level steps leave the brackets of columns first..last-1
    of a tree E (as in _bisect_levels), under the verdicts go of its points
    (E[1:-1]): their flat indices in E."""
    cols = go.shape[1]
    go = go.ravel()
    # a bracket that starts at E[i, c] tests E[i + h, c] at depth k,
    # h = 2^(d-1-k), and moves its start there when the predicate holds;
    # E[i, c] is E.flat[i * cols + c] and go[(i - 1) * cols + c]
    jumps = [(2 ** (d - 1 - k)) * cols for k in range(d)]  # h rows of E
    if last - first > _LOOP_WALKERS:
        at = np.arange(first, last)
        for jump in jumps:
            at = at + jump * go[at + (jump - cols)]
        return at
    out = []
    for x in range(first, last):
        for jump in jumps:
            if go[x + jump - cols]:
                x += jump
        out.append(x)
    return np.array(out, dtype=int)


def _bisect_levels(p: Problem, pos, lo, hi, a, b, d, ends=None):
    """The next d bisection steps of every bracket, from one slope call.

    The brackets come in three runs: [0, a) bisect a left edge, [a, b) both
    edges of their arc, [b, end) a right edge.  pos: the node positions of
    each bracket's system, as in _slopes.  Column c of E lists the points
    of the first d levels of bracket c's bisection tree in order, between
    lo[c] and hi[c]; each point is 0.5 * (a + b) of its own parent interval.
    Both one-sided slope sums of all 2^d - 1 points of every column come
    from one call, and each edge then walks down its column's tree with the
    predicate of one step, so it visits exactly the midpoints, and ends on
    exactly the bracket, that d one-level steps give.  The two edges of a
    both-edges bracket walk the same tree; where their verdicts first
    differ (a slope sum of exactly 0, or a kink), the bracket splits in
    place into a left-edge and a right-edge bracket, each on its own side
    of that point.

    Returns (lo, hi, a, take): the brackets in the same three runs, b
    unchanged, and take the index of each bracket's predecessor (None when
    no bracket split).  Given ends, the slope sums at lo and hi, also the
    slope sums at the new lo and hi.
    """
    w, cols = 2**d, len(lo)
    E = np.empty((w + 1, cols))
    E[0] = lo
    E[w] = hi
    for k in range(d):
        s = w >> k
        E[s // 2::s] = 0.5 * (E[:-1:s] + E[s::s])
    sl, sr = _slope_sum(p, pos, E[1:w], "both")
    # the left edges walk columns [0, b) on the "right" verdicts and the
    # right edges [a, cols) on the "left" ones
    at_l = _walk(sr > 0.0, 0, b, d)
    at_r = _walk(sl >= 0.0, a, cols, d)
    take = None
    parted = np.flatnonzero(at_l[a:] != at_r[:b - a]) if a < b else ()
    if len(parted):
        stay = np.flatnonzero(at_l[a:] == at_r[:b - a])
        take = np.concatenate((np.arange(a), a + parted, a + stay, a + parted, np.arange(b, cols)))
        at = np.concatenate((at_l[:a], at_l[a + parted], at_l[a + stay],
                             at_r[parted], at_r[b - a:]))
        a += len(parted)
    else:
        at = np.concatenate((at_l, at_r[b - a:]))
    E = E.ravel()
    if ends is None:
        return E[at], E[at + cols], a, take
    # the left edges' ends read "right" sums, the right edges' "left" ones
    SL = np.concatenate((ends[0], sr.ravel(), ends[1]))
    if sl is sr:
        return E[at], E[at + cols], a, take, SL[at], SL[at + cols]
    SR = np.concatenate((ends[0], sl.ravel(), ends[1]))
    slo = np.concatenate((SL[at[:b]], SR[at[b:]]))
    shi = np.concatenate((SL[at[:b] + cols], SR[at[b:] + cols]))
    return E[at], E[at + cols], a, take, slo, shi


def _secant_guess(lo, hi, slo, shi):
    """Where the line through (lo, slo) and (hi, shi) meets 0: a guided
    path's guess of the edge in [lo, hi] (lo when the slopes do not fall)."""
    den = slo - shi
    return lo + (hi - lo) * (slo / den) if den > 0.0 else lo


_LEFT, _BOTH, _RIGHT = 0, 1, 2  # the edges a bracket bisects


def _guided_levels(p: Problem, cols, arcs, lo, hi, slo, shi, a, b, steps, d):
    """Bisect bracket c steps[c] levels: d by one tree call, then one path
    per bracket and call.  d is at most steps.min(): a tree is at most 9
    levels deep (_tree_depth) and a bracket takes at least 12 (_arc_maxima).

    Brackets as in _bisect_levels, the one of arc arcs[c]; cols: the node
    positions of each arc, as in _slopes; slo, shi: the slope sums at lo
    and hi.  After the tree, a call guesses each edge at the secant root g
    of its bracket's end slopes and evaluates the path: the midpoints
    one-level bisection would test if the edge sat at g, each 0.5 * (a + b)
    of its own interval, which moves its lower end up when the midpoint is
    below g.  The bracket keeps the levels up to and including the first
    whose predicate disagrees with the path's move.  Up to there the path's
    midpoints are the ones one-level bisection tests, and the last kept
    verdict, right or wrong for the path, moves the bracket as one level
    would.  So every bracket is one-level bisection's bit for bit, whatever
    g is.  A both-edges bracket also stops where its two verdicts differ,
    and splits there as in _bisect_levels.  A path is twice as long as the
    last one kept plus a margin.  The paths are built in Python floats, for
    the few brackets this serves.  Returns the brackets as (arcs, lo, hi,
    a, b).
    """
    at = cols if cols.ndim == 1 else cols[:, arcs]
    lo, hi, a, take, slo, shi = _bisect_levels(p, at, lo, hi, a, b, d, (slo, shi))
    if take is not None:
        arcs, steps = arcs[take], steps[take]
    A, B, SA, SB = lo.tolist(), hi.tolist(), slo.tolist(), shi.tolist()
    arc, rem = arcs.tolist(), (steps - d).tolist()
    kind = [_LEFT] * a + [_BOTH] * (b - a) + [_RIGHT] * (len(A) - b)
    span = [d] * len(A)
    live = [c for c in range(len(A)) if rem[c] > 0]
    while live:
        pts, guesses, lengths = [], [], []
        for c in live:
            x, y, s0, s1 = A[c], B[c], SA[c], SB[c]
            g = _secant_guess(x, y, s0, s1)
            length = min(rem[c], 2 * span[c] + _PATH_MARGIN)
            for _ in range(length - 1):
                m = 0.5 * (x + y)
                pts.append(m)
                if m < g:
                    x = m
                else:
                    y = m
            pts.append(0.5 * (x + y))
            guesses.append(g)
            lengths.append(length)
        at = cols if cols.ndim == 1 else np.repeat(cols[:, [arc[c] for c in live]], lengths, axis=1)
        sl, sr = _slope_sum(p, at, np.array(pts), "both")
        # the left edges' verdicts and the right edges', as lists
        vr, vl = (sr > 0.0).tolist(), (sl >= 0.0).tolist()
        sr, sl = (sr.tolist(),) * 2 if sl is sr else (sr.tolist(), sl.tolist())
        i, born = 0, []
        for c, g, length in zip(live, guesses, lengths):
            x, y, s0, s1 = A[c], B[c], SA[c], SB[c]
            both = kind[c] == _BOTH
            ss, vs = (sl, vl) if kind[c] == _RIGHT else (sr, vr)
            for j in range(i, i + length):
                m, v = pts[j], vs[j]
                part = both and v != vl[j]
                if part:
                    # the edges part at m: this bracket keeps the left edge,
                    # a new one takes the right edge, moved by its own verdict
                    kind[c] = _LEFT
                    kept = j + 1 - i
                    right = (m, y, sl[j], s1) if vl[j] else (x, m, s0, sl[j])
                    for column, value in zip((A, B, SA, SB, arc, rem, span, kind),
                                             right + (arc[c], rem[c] - kept, kept, _RIGHT)):
                        column.append(value)
                    born.append(len(A) - 1)
                if v:
                    x, s0 = m, ss[j]
                else:
                    y, s1 = m, ss[j]
                if part or v != (m < g):
                    break
            kept = j + 1 - i
            A[c], B[c], SA[c], SB[c] = x, y, s0, s1
            span[c] = kept
            rem[c] -= kept
            i += length
        live = [c for c in live + born if rem[c] > 0]
        if born:
            live.sort(key=kind.__getitem__)  # the runs of _bisect_levels
    order = sorted(range(len(A)), key=kind.__getitem__)
    a, b = kind.count(_LEFT), len(A) - kind.count(_RIGHT)
    return (np.array([arc[c] for c in order]), np.array([A[c] for c in order]),
            np.array([B[c] for c in order]), a, b)


def _arc_maxima(p: Problem, pos, los, his):
    """Maximizing set edges for each arc of B node systems, by bisection on
    one-sided slopes.

    pos, los, his: (B, n+1) node positions and arc bounds, one row per
    system.  For concave F the set of maximizers of an arc is
    [t_left, t_right] with t_left the edge of {D+ F > 0} and t_right the
    edge of {D- F >= 0}; either may sit on the arc boundary.  The arcs of
    all systems are worked on as one flat list, each with its own system's
    node positions.  Every arc that needs an edge gets one bracket, which
    bisects both of its edges while their verdicts agree and splits where
    they first differ (_bisect_levels).  The brackets are bisected in
    lockstep, each the steps that narrow its system's widest arc below
    TOL_Z, d at a time as a bisection tree: one slope call settles d levels
    of every bracket.  Each tree point is the midpoint of its own parent
    interval and each edge's walk applies the same predicate to the same
    slope bits as a one-level step would, so the brackets, and the results,
    are bit for bit those of one-level bisection of each edge of each
    system alone, whatever the sign pattern of the slopes.  The depth d is
    the largest that keeps a call within _TREE_POINTS kernel points, at
    least 1, counted over all brackets.  When every kernel is C1 and there
    are at most _PATH_BRACKETS brackets, one tree call is followed by
    guided paths (_guided_levels): each call tests the midpoints of the
    levels one-level bisection would take if the edge sat at a secant
    guess, and keeps them up to the first verdict that disagrees with the
    guess.  Those are the midpoints one-level bisection tests, and the
    verdicts are read from the same slope bits, so this too gives its
    brackets bit for bit, for any guess.
    Returns (z, m, on_boundary, unique) arrays of shape (B, n+1).
    """
    B, k = los.shape
    los = los.reshape(-1)
    his = his.reshape(-1)
    length = his - los
    degenerate = length <= ANGLE_TOL
    active = ~degenerate
    # the node positions of each arc's system, as in _slopes; one system
    # serves every arc
    cols = pos[0] if B == 1 else pos.T[:, np.repeat(np.arange(B), k)]

    t_left = los.copy()
    t_right = his.copy()

    def settle(arcs, lo, hi, a, b):
        edge = 0.5 * (lo + hi)
        t_left[arcs[:b]] = edge[:b]
        t_right[arcs[a:]] = edge[a:]

    if np.any(active):
        # the "right" slopes at the arcs' starts and the "left" ones at their ends
        sl, sr = _slope_sum(p, cols, np.stack((los, his)), "both")
        dpa, dmb = sr[0], sl[1]
        # a system's widest arc spans at least 2*pi/(n+1), so every system
        # takes at least 12 steps for n below 10^9
        span = np.where(active, length, 0.0).reshape(B, k).max(axis=1)
        iters = np.array([
            int(math.ceil(math.log2(s / TOL_Z))) + 2
            for s in span.tolist()])

        # left edge: lo if already non-increasing, hi if still increasing at hi
        at_lo, at_hi = dpa <= 0.0, dmb > 0.0
        t_left = np.where(active & ~at_lo & at_hi, his, los)
        need_l = active & ~at_lo & ~at_hi
        # right edge: hi if still non-decreasing at hi, lo if decreasing at lo
        at_lo, at_hi = dpa < 0.0, dmb >= 0.0
        t_right = np.where(active & ~at_hi & at_lo, los, his)
        need_r = active & ~at_hi & ~at_lo

        # one bracket per arc: the left edges alone first, then both edges,
        # then the right edges alone; pred(lo) stays True and pred(hi) False
        runs = (np.flatnonzero(need_l > need_r), np.flatnonzero(need_l & need_r),
                np.flatnonzero(need_r > need_l))
        arcs = np.concatenate(runs)
        a, b = len(runs[0]), len(runs[0]) + len(runs[1])
        lo = los[arcs]
        hi = his[arcs]
        if len(arcs):
            d = _tree_depth(len(arcs), len(p.kernels))
            steps = iters[arcs // k]
            if p.all_c1 and len(arcs) <= _PATH_BRACKETS:
                settle(*_guided_levels(p, cols, arcs, lo, hi, dpa[arcs], dmb[arcs], a, b,
                                       steps, d))
            else:
                done = 0
                # the brackets of the systems with the fewest steps stop first
                for stop in sorted(set(steps.tolist())):
                    if done:
                        out = steps == done
                        settle(arcs[out], lo[out], hi[out],
                               int(np.count_nonzero(out[:a])), int(np.count_nonzero(out[:b])))
                        keep = ~out
                        a, b = int(np.count_nonzero(keep[:a])), int(np.count_nonzero(keep[:b]))
                        arcs, steps, lo, hi = arcs[keep], steps[keep], lo[keep], hi[keep]
                    at = cols if B == 1 else cols[:, arcs]
                    for start in range(done, stop, d):
                        lo, hi, a, take = _bisect_levels(p, at, lo, hi, a, b,
                                                         min(d, stop - start))
                        if take is not None:
                            arcs, steps = arcs[take], steps[take]
                            at = cols if B == 1 else cols[:, arcs]
                    done = stop
                settle(arcs, lo, hi, a, b)

    t_right = np.maximum(t_right, t_left)
    z = 0.5 * (t_left + t_right)
    z = np.where(degenerate, los, z)
    m = sum_translates_full(p, cols, z)

    on_boundary = degenerate | (z - los <= _BOUNDARY_TOL) | (his - z <= _BOUNDARY_TOL)
    unique = degenerate | ((t_right - t_left) <= _UNIQUE_TOL)
    return tuple(a.reshape(B, k) for a in (z, m, on_boundary, unique))


def profile(p: Problem, y, sigma):
    """Arc maxima, maximizers and aggregates of F(y, .) under sigma.

    y is one node system, and the result one ArcProfile; or y is a 2-D
    (B, n) array of B node systems, and the result a list of B ArcProfiles,
    all computed by one lockstep bisection.  Each of them is bit for bit the
    profile of its system alone.
    """
    batch = isinstance(y, np.ndarray) and y.ndim == 2
    pos = np.atleast_2d(node_positions(y, p.n))
    sig = as_permutation(sigma, p.n)
    cuts = _cuts(pos[:, 1:], sig)
    z, m, onb, uni = _arc_maxima(p, pos, cuts[:, :-1], cuts[:, 1:])
    profs = [
        ArcProfile(sigma=sig, positions=pos[b], cuts=cuts[b], z_trav=z[b], m_trav=m[b],
                   z_on_boundary_trav=onb[b], unique_trav=uni[b])
        for b in range(len(pos))
    ]
    return profs if batch else profs[0]


def delta(prof: ArcProfile):
    """Consecutive differences of arc maxima in traversal order.

    Zero exactly at equioscillation.  A pair of -inf maxima (doubly
    degenerate boundary data) is reported as +inf: no finite comparison.
    """
    m = prof.m_trav
    with np.errstate(invalid="ignore"):
        d = m[1:] - m[:-1]
    both = np.isneginf(m[1:]) & np.isneginf(m[:-1])
    d = np.where(both, INF, d)
    return d


def _slope_rows(p: Problem, prof: ArcProfile, relaxed: bool):
    """Rows (traversal order) of the maximizer-slope matrix -K_r'(z_k - y_r)
    at the node system of prof.

    The slope formula holds when every kernel is C1 and every maximizer is
    strictly inside its arc; relaxed=True skips that check and takes midpoint
    slopes at kinks, so entries may be nan when a maximizer collides with a
    singular node.
    """
    if not relaxed:
        if not p.all_c1:
            k = next(k for k in p.kernels if not k.classify().c1)
            raise CapabilityError(
                f"jacobian slope formula needs C1 kernels; {k.family} is not"
            )
        if bool(np.any(prof.z_on_boundary_trav)):
            raise JacobianUnavailableError(
                "a maximizer sits on an arc boundary; the slope formula fails there"
            )
    positions = prof.positions
    z = prof.z_trav
    if relaxed:
        with np.errstate(invalid="ignore"):
            left, right = _slopes(p, positions, z, "both")
            d = 0.5 * (left + right)
    else:
        d = _slopes(p, positions, z, "right")
    return -d[1:].T


def jacobian_m(p: Problem, prof: ArcProfile, *, relaxed: bool = False):
    """Sensitivity of the arc maxima to the free nodes at the node system of
    prof: (n+1) x n, by arc index.

    Entry (j, r-1) is -K_r'(z_j - y_r); see _slope_rows for when it holds.
    """
    return prof._to_index(_slope_rows(p, prof, relaxed))


def jacobian_delta(p: Problem, prof: ArcProfile, *, relaxed: bool = False):
    """Jacobian of the traversal difference vector at the node system of
    prof, n x n."""
    rows_trav = _slope_rows(p, prof, relaxed)
    return rows_trav[1:, :] - rows_trav[:-1, :]
