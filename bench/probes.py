"""Isolated layer probes: single layer calls on fixed inputs, timed from outside.

Each probe repeats one call and reports the median, so ROADMAP items 2
(batched kernels, faster ``profile``) and 3 (vectorised oracles) have a
direct before-number that no solver path or task mix can blur.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

TWO_PI = 2.0 * np.pi


def _median_seconds(fn, repeats):
    fn()  # first call outside the timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _weighted_log_sine(n):
    from equisum import Problem, log_sine, weighted

    w = np.random.default_rng(0).uniform(0.5, 2.0, n + 1)
    return Problem(tuple(weighted(log_sine(), float(v)) for v in w))


def run_probes():
    """Per-layer probe metrics: {name: (value, unit)}."""
    from equisum import Permutation, equidistant_nodes, grid_sup, profile

    out = {}
    for n, repeats in ((3, 21), (10, 11), (39, 7)):
        p = _weighted_log_sine(n)
        sig = Permutation.identity(n)
        y = equidistant_nodes(n, sig)
        sec = _median_seconds(lambda: profile(p, y, sig), repeats)
        out[f"evaluator.profile_ms.n{n}"] = (sec * 1e3, "ms")

    # one slope sum of 40 kernels at 40 points, as profile() forms it
    p = _weighted_log_sine(39)
    pos = equidistant_nodes(39, Permutation.identity(39)).full_positions()
    ts = np.linspace(0.05, TWO_PI - 0.05, 40)

    def slope_sum():
        acc = np.zeros(ts.shape)
        for j, k in enumerate(p.kernels):
            acc = acc + k.deriv(ts - pos[j], "right")
        return acc

    sec = _median_seconds(slope_sum, 201)
    out["kernels.deriv_ns_per_point.n40"] = (sec / (40 * 40) * 1e9, "ns")

    p = _weighted_log_sine(3)
    y = equidistant_nodes(3, Permutation.identity(3))
    sec = _median_seconds(lambda: grid_sup(p, y, 4096), 11)
    out["oracle.grid_sup_ms.n3"] = (sec * 1e3, "ms")
    return out
