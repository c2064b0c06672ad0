"""End-to-end acceptance checks.

One test per stated guarantee, each at its stated tolerance and runtime
budget, printing a single PASS/FAIL line with the key numbers.  These run
the public API only; the brute-force oracles supply the independent
reference values.
"""
import math
import time

import numpy as np
import pytest

from equisum import (
    BojanovProblem,
    Permutation,
    Problem,
    SolveOptions,
    approximant,
    check_majorization,
    check_mmatrix,
    check_sandwich,
    convergence_probe,
    equidistant_nodes,
    grid_minimax,
    grid_sup,
    interval_gap_minimax,
    jacobian_delta,
    jacobian_m,
    log_sine,
    maximin,
    minimax,
    node_dist,
    parabola,
    profile,
    riesz,
    solve_bojanov,
    solve_doubled_symmetric,
    solve_equioscillation,
    sum_translates,
    tent,
    transference_identity_check,
    weighted,
)
from equisum.torus import TWO_PI

PI = math.pi
SQRT2 = math.sqrt(2.0)

EX_KERNELS = (tent(), tent(), weighted(parabola(), 0.1), weighted(parabola(), 0.1))
EX_P = Problem(EX_KERNELS)
E_POINT = (PI, PI / 2, 3 * PI / 2)
E_SIGMA = Permutation((2, 1, 3))
E_VALUE = PI + 0.15 * PI**2


def _report(capsys, num, label, checks, elapsed, budget):
    ok = all(checks.values()) and elapsed < budget
    failed = [k for k, v in checks.items() if not v]
    detail = "; ".join(failed) if failed else f"{len(checks)} checks"
    with capsys.disabled():
        print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
              f" ({detail}) [{elapsed:.2f}s/{budget:g}s]")
    for name, good in checks.items():
        assert good, f"criterion {num}: failed {name}"
    assert elapsed < budget, (
        f"criterion {num}: runtime {elapsed:.2f}s over the {budget}s budget"
    )


def _interior_sorted(rng, n, margin=0.15):
    while True:
        v = np.sort(rng.uniform(margin, TWO_PI - margin, n))
        gaps = np.diff(np.concatenate(([0.0], v, [TWO_PI])))
        if np.min(gaps) > margin:
            return v


def test_criterion_01_example_equioscillation(capsys):
    t0 = time.perf_counter()
    prof = profile(EX_P, E_POINT, E_SIGMA)
    dev = float(np.max(np.abs(prof.m - E_VALUE)))
    rep = solve_equioscillation(EX_P, E_SIGMA)  # default equidistant start
    dist = node_dist(rep.nodes, E_POINT)
    elapsed = time.perf_counter() - t0
    checks = {
        f"four equal maxima within 1e-9 (dev {dev:.2e})": dev <= 1e-9,
        f"solve reaches e within 1e-7 (dist {dist:.2e})": dist <= 1e-7,
        "solver converged": rep.converged,
    }
    _report(capsys, 1, "example equioscillation", checks, elapsed, 1.0)


def test_criterion_02_example_boundary_profile(capsys):
    t0 = time.perf_counter()
    eps = 0.1
    x1 = PI + (3 - 2 * SQRT2) * eps * PI**2
    x2 = (2 * SQRT2 - 2) * PI
    prof = profile(EX_P, (x1, x2, 0.0), Permutation((3, 2, 1)))
    m0 = PI + eps * PI**2 * (14 * SQRT2 - 19)
    m_rest = PI + eps * PI**2 * (6 * SQRT2 - 7)
    dev_m = max(
        abs(prof.m[0] - m0),
        max(abs(prof.m[j] - m_rest) for j in (1, 2, 3)),
    )
    dev_z = max(
        abs(prof.z[1] - (PI + x2 / 2)),
        abs(prof.z[2] - PI),
        abs(prof.z[3] - x2 / 2),
    )
    elapsed = time.perf_counter() - t0
    checks = {
        f"arc maxima within 1e-9 (dev {dev_m:.2e})": dev_m <= 1e-9,
        f"maximizers within 1e-9 (dev {dev_z:.2e})": dev_z <= 1e-9,
    }
    _report(capsys, 2, "example boundary profile", checks, elapsed, 1.0)


def test_criterion_03_smoothed_cell_dependence(capsys):
    t0 = time.perf_counter()
    p = Problem(tuple(approximant(k, 50, "bump") for k in EX_KERNELS))
    a = grid_minimax(p, (2, 1, 3), node_resolution=120)
    b = grid_minimax(p, (3, 2, 1), node_resolution=120)
    gap = a.value - b.value
    combined = a.tolerance + b.tolerance
    elapsed = time.perf_counter() - t0
    checks = {
        f"M(2,1,3)={a.value:.6f} exceeds M(3,2,1)={b.value:.6f}": gap > 0,
        f"margin {gap:.2e} > 10x combined tolerance {combined:.2e}":
            gap > 10 * combined,
    }
    _report(capsys, 3, "smoothed cell dependence", checks, elapsed, 300.0)


def test_criterion_04_equidistant_optimum(capsys):
    t0 = time.perf_counter()
    worst_node = worst_value = worst_grid = worst_mm = 0.0
    all_converged = True
    for n in range(2, 6):
        p = Problem(tuple(log_sine() for _ in range(n + 1)))
        sig = Permutation.identity(n)
        rep = minimax(p, sig)
        target = -n * math.log(2.0)
        worst_node = max(worst_node, node_dist(rep.nodes, equidistant_nodes(n, sig)))
        worst_value = max(worst_value, abs(rep.objective - target))
        worst_grid = max(worst_grid, abs(grid_sup(p, rep.nodes, 10**6) - target))
        low = maximin(p, sig)
        worst_mm = max(worst_mm, abs(low.objective - rep.objective))
        all_converged = all_converged and rep.converged and low.converged
    elapsed = time.perf_counter() - t0
    checks = {
        f"equidistant nodes within 1e-8 (dev {worst_node:.2e})": worst_node <= 1e-8,
        f"value -n*log2 within 1e-8 (dev {worst_value:.2e})": worst_value <= 1e-8,
        f"grid_sup at 1e6 confirms within 1e-8 (dev {worst_grid:.2e})":
            worst_grid <= 1e-8,
        f"minimax equals maximin within 1e-8 (dev {worst_mm:.2e})": worst_mm <= 1e-8,
        "all solves converged": all_converged,
    }
    _report(capsys, 4, "equidistant optimum n=2..5", checks, elapsed, 10.0)


def test_criterion_05_classical_interval_nodes(capsys):
    t0 = time.perf_counter()
    worst_node = worst_norm = worst_eq = 0.0
    for n in range(2, 6):
        poly = solve_bojanov(BojanovProblem(-1.0, 1.0, (1.0,) * n))
        ref = np.sort(np.cos((2 * np.arange(1, n + 1) - 1) * PI / (2 * n)))
        worst_node = max(worst_node, float(np.max(np.abs(poly.nodes - ref))))
        worst_norm = max(worst_norm, abs(poly.norm - 2.0 ** (1 - n)))
        vals = poly(poly.alternation)
        worst_eq = max(worst_eq, float(np.max(vals) - np.min(vals)))
    elapsed = time.perf_counter() - t0
    checks = {
        f"nodes at cos((2k-1)pi/2n) within 1e-7 (dev {worst_node:.2e})":
            worst_node <= 1e-7,
        f"norm 2^(1-n) within 1e-9 (dev {worst_norm:.2e})": worst_norm <= 1e-9,
        f"alternation values equal within 1e-7 (dev {worst_eq:.2e})":
            worst_eq <= 1e-7,
    }
    _report(capsys, 5, "classical interval nodes n=2..5", checks, elapsed, 30.0)


def test_criterion_06_asymmetric_interval_vs_grid(capsys):
    t0 = time.perf_counter()
    q = BojanovProblem(-1.0, 1.0, (1.0, 2.0))
    poly = solve_bojanov(q)
    vals = poly(poly.alternation)
    dev_eq = float(np.max(np.abs(vals - poly.norm)))
    norm_g, nodes_g = interval_gap_minimax(-1.0, 1.0, (1.0, 2.0), step=1e-3)
    dev_nodes = float(np.max(np.abs(poly.nodes - np.asarray(nodes_g))))
    dev_norm = abs(poly.norm - norm_g)
    elapsed = time.perf_counter() - t0
    checks = {
        "interlacing holds": poly.flags["interlacing"],
        f"equioscillation within 1e-7 (dev {dev_eq:.2e})": dev_eq <= 1e-7,
        f"grid agrees on nodes within 1e-4 (dev {dev_nodes:.2e})": dev_nodes <= 1e-4,
        f"grid agrees on norm within 1e-6 (dev {dev_norm:.2e})": dev_norm <= 1e-6,
    }
    _report(capsys, 6, "asymmetric interval vs grid", checks, elapsed, 120.0)


def test_criterion_07_jacobian_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240301)
    pool = (log_sine, lambda: riesz(2.0), parabola)
    h = 1e-6
    checked = 0
    fd_ok = True
    worst_fd = 0.0
    while checked < 50:
        n = int(rng.integers(2, 4))
        kernels = tuple(pool[int(i)]() for i in rng.integers(0, 3, n + 1))
        p = Problem(kernels)
        y = _interior_sorted(rng, n, margin=0.25)
        sig = Permutation.identity(n)
        prof = profile(p, y, sig)
        if any(prof.z_on_boundary):
            continue
        J = jacobian_m(p, prof)
        fd = np.zeros_like(J)
        for r in range(n):
            for sgn in (1.0, -1.0):
                yy = y.copy()
                yy[r] += sgn * h
                fd[:, r] += sgn * profile(p, yy, sig).m / (2 * h)
        fd_ok = fd_ok and np.allclose(J, fd, rtol=1e-5, atol=1e-7)
        worst_fd = max(worst_fd, float(np.max(np.abs(J - fd))))
        checked += 1

    mm_ok = True
    for kernels in (
        (log_sine(), riesz(2.0), parabola()),
        (riesz(2.0), riesz(2.0), log_sine(), parabola()),
        (parabola(), log_sine(), riesz(2.0)),
    ):
        p = Problem(kernels)
        sig = Permutation.identity(p.n)
        rep = solve_equioscillation(p, sig)
        mm = check_mmatrix(jacobian_delta(p, rep.profile))
        mm_ok = mm_ok and rep.converged and mm.ok
    elapsed = time.perf_counter() - t0
    checks = {
        f"50 FD checks at rel 1e-5 (worst abs dev {worst_fd:.2e})": fd_ok,
        "M-matrix structure at solved equioscillation points": mm_ok,
    }
    _report(capsys, 7, "jacobian property suite", checks, elapsed, 60.0)


def test_criterion_08_sandwich_and_majorization(capsys):
    t0 = time.perf_counter()
    heavy_mix = Problem((weighted(log_sine(), 2.0), log_sine(), log_sine(), log_sine()))
    sig = Permutation.identity(3)
    m_est = grid_minimax(heavy_mix, sig, node_resolution=120).value
    sand = check_sandwich(heavy_mix, sig, m_estimate=m_est, samples=100, tol=1e-9)

    top = maximin(heavy_mix, sig)
    prof_star = profile(heavy_mix, top.nodes, sig)
    rng = np.random.default_rng(20240302)
    rigidity = top.converged
    for _ in range(100):
        x = _interior_sorted(rng, 3)
        if node_dist(x, top.nodes) < 1e-6:
            continue
        verdict = check_majorization(profile(heavy_mix, x, sig), prof_star)
        rigidity = rigidity and verdict == "none"

    m_ex = grid_minimax(EX_P, E_SIGMA, node_resolution=60).value
    witness = check_sandwich(EX_P, E_SIGMA, m_estimate=m_ex, samples=10,
                             include=[E_POINT])
    found = (not witness.ok) and any(
        v["point"] == "include[0]" and v["kind"] == "min_arc_max_above_M"
        for v in witness.violations
    )
    elapsed = time.perf_counter() - t0
    checks = {
        f"100 samples, zero sandwich violations (got {len(sand.violations)})":
            sand.ok,
        "no sampled point majorizes the maximin point": rigidity,
        "example produces a sandwich violation witness": found,
    }
    _report(capsys, 8, "sandwich and majorization", checks, elapsed, 120.0)


def test_criterion_09_convergence_probe(capsys):
    t0 = time.perf_counter()
    cases = (
        # maximizers on nodes: the cusp windows matter at every level
        (Problem((tent(), tent(), tent())), (PI / 2, PI)),
        (EX_P, E_POINT),
    )
    bounded = decreasing = True
    for p, y in cases:
        tab = convergence_probe(p, y, "sqrt_cusp", (4, 16, 64, 256))
        devs = tab.deviations()
        bounded = bounded and all(
            r.deviation <= (p.n + 1) / r.level for r in tab.rows
        )
        decreasing = decreasing and all(
            devs[i + 1] < devs[i] or devs[i + 1] == 0.0
            for i in range(len(devs) - 1)
        )
    elapsed = time.perf_counter() - t0
    checks = {
        "deviations bounded by (n+1)/level": bounded,
        "deviations strictly decreasing": decreasing,
    }
    _report(capsys, 9, "convergence probe", checks, elapsed, 60.0)


def test_criterion_10_doubled_symmetric_transference(capsys):
    t0 = time.perf_counter()
    dbl = solve_doubled_symmetric((1.0, 2.0))
    q = BojanovProblem(-1.0, 1.0, (1.0, 2.0))
    rng = np.random.default_rng(20240303)
    ts = rng.uniform(0.0, TWO_PI, 100)
    res = float(np.max(transference_identity_check(ts, q, dbl.nodes)))
    elapsed = time.perf_counter() - t0
    checks = {
        f"nodes mirror-symmetric within 1e-8 (res {dbl.symmetry_residual:.2e})":
            dbl.symmetry_residual <= 1e-8,
        f"transference residual within 1e-10 on 100 points (max {res:.2e})":
            res <= 1e-10,
        "doubled solve converged": dbl.report.converged,
    }
    _report(capsys, 10, "doubled symmetric transference", checks, elapsed, 60.0)
