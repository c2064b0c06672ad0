"""Median and quartiles of benchmark records, per workload and metric.

    python3 bench/summarize.py .bench_out/result-*-trace0.json

Reads the JSON records that ``run.py`` writes to ``.bench_out/`` and prints
one JSON document: for every workload and metric the sample count, median,
first and third quartile (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median, the figure the bounds in BENCHMARK.json are
judged against.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths):
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    seeds = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        seeds[rec["workload"]].append(rec["seed"])
        for name, m in rec["metrics"].items():
            values[rec["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    out = {}
    for workload, metrics in sorted(values.items()):
        out[workload] = {"seeds": sorted(seeds[workload]), "metrics": {}}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            out[workload]["metrics"][name] = {
                "unit": units[name], "n": len(vals), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    sys.stdout.write("\n")
