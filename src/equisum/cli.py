"""Command-line front end.

Reads a JSON problem config, dispatches to the library, and prints a single
JSON report to stdout.  Exit codes: 0 solved/verified, 2 finished but
flagged (non-converged status, failed property check, uncertified minimum),
1 malformed input or internal error (diagnostic on stderr).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .evaluator import Problem, profile, delta, jacobian_delta, sum_translates
from .kernels import from_config
from .oracle import (
    DEFAULT_SEED,
    check_mmatrix,
    check_sandwich,
    convergence_probe,
    grid_minimax,
    grid_sup,
)
from .extremal import (
    BojanovProblem,
    GtpProblem,
    eval_gap,
    gtp_value,
    solve_bojanov,
    solve_gtp,
)
from .solver import SolveOptions, minimax, minimax_global, maximin, solve_equioscillation
from .torus import TWO_PI, NodeSystem, ValidationError, as_permutation, locate, node_angles

OK, FLAGGED, ERROR = 0, 2, 1

# report keys holding torus angles (--degrees)
_ANGLE_KEYS = frozenset({"nodes", "z", "maximizers", "lo", "hi", "t", "coarse_nodes"})
# the one part of a report that lies on the circle, where not all of it does:
# bojanov's interval coordinates are not angles, its doubled report is
_ANGLE_PART = {"bojanov": "doubled"}


def _jsonify(obj, degrees=False, key=None):
    """JSON-safe copy: numpy floats unwrapped, non-finite floats as strings.

    degrees=True turns every float under an _ANGLE_KEYS key into degrees
    (--degrees); degrees=KEY does so only inside the dict's entry KEY.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonify(v, degrees is True or k == degrees, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, degrees, key) for v in obj]
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float):
        if degrees is True and key in _ANGLE_KEYS:
            obj = math.degrees(obj)
        if math.isnan(obj):
            return "nan"
        if obj == math.inf:
            return "inf"
        if obj == -math.inf:
            return "-inf"
        return obj
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"no JSON form for a {type(obj).__name__}")


def _radians_in(cfg):
    """Read the config's angles, given in degrees (--degrees), as radians, in
    place: nodes (--nodes included), eval's t, sandwich's include points and a
    list-valued options.start.  Commands see radians only."""
    def rad(v):
        return np.radians(np.asarray(v, dtype=float)).tolist()

    for key in ("nodes", "t"):
        if cfg.get(key) is not None:
            cfg[key] = rad(cfg[key])
    if "include" in cfg:
        cfg["include"] = [rad(pt) for pt in cfg["include"]]
    opts = cfg.get("options")
    if isinstance(opts, dict) and isinstance(opts.get("start"), list):
        cfg["options"] = dict(opts, start=rad(opts["start"]))


def _degrees_curve(curve):
    """The curve with its t column, a torus angle, in degrees (--degrees)."""
    def curve_deg(resolution):
        header, (x, *ys) = curve(resolution)
        return header, (np.degrees(x) if header[0] == "t" else x, *ys)

    return None if curve is None else curve_deg


def _load_config(path):
    if path is None:
        return {}
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


def _problem_from(cfg) -> Problem:
    kernels = cfg.get("kernels")
    if not kernels:
        raise ValidationError("config needs a 'kernels' list")
    return Problem(tuple(from_config(k) for k in kernels))


def _nodes_from(cfg, n):
    nodes = cfg.get("nodes")
    if nodes is None:
        raise ValidationError("no nodes given (config 'nodes' or --nodes)")
    return NodeSystem(node_angles(nodes, n))


def _sigma_from(cfg, args, n):
    raw = cfg.get("sigma")
    if getattr(args, "sigma", None):
        raw = [int(v) for v in args.sigma.split(",")]
    return None if raw is None else as_permutation(raw, n)


def _sigma_or_locate(cfg, args, ns: NodeSystem):
    sig = _sigma_from(cfg, args, ns.n) or locate(ns)
    if sig is None:
        raise ValidationError("nodes sit on a cell face; pass --sigma explicitly")
    return sig


def _seed(cfg, args) -> int:
    """The one seed of a run, which its report names and its solve or
    sandwich check draws from: --seed, else options.seed, else the config's
    seed, else DEFAULT_SEED."""
    if args.seed is not None:
        return args.seed
    opts = cfg.get("options") if isinstance(cfg.get("options"), dict) else {}
    return int(opts.get("seed", cfg.get("seed", DEFAULT_SEED)))


def _options_from(cfg, args) -> SolveOptions:
    opts = SolveOptions()
    raw = dict(cfg.get("options", {}))
    if args.tol is not None:
        raw["tol_residual"] = args.tol
    if args.max_iter is not None:
        raw["max_iter"] = args.max_iter
    raw["seed"] = _seed(cfg, args)
    known = {f for f in vars(opts)}
    for key, val in raw.items():
        if key not in known:
            raise ValidationError(f"unknown solver option {key!r}")
        if key == "start" and isinstance(val, list):
            val = tuple(val)
        setattr(opts, key, val)
    return opts


def _write_csv(path, header, columns):
    """Write equal-length columns as CSV rows, every value as %.17g (the
    bytes of f"{v:.17g}", inf and nan included); returns the row count."""
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*[np.asarray(c).tolist() for c in columns])
    text = ",".join(header) + "\n" + "".join(map(fmt.__mod__, rows))
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(columns[0])


def _floats(text):
    """A comma-separated command-line list as floats; None when not given."""
    return [float(v) for v in text.split(",")] if text else None


def _resolution(cfg, args):
    resolution = args.resolution
    if resolution is None:
        resolution = int(cfg.get("resolution", 1024))
    if resolution < 1:
        raise ValidationError(f"resolution must be positive, got {resolution}")
    return resolution


# curves, resolution -> (CSV header, columns), are written by run()

def _f_curve(p, ns, resolution):
    ts = np.arange(resolution) * (TWO_PI / resolution)
    return ("t", "F"), (ts, sum_translates(p, ns, ts))


def _gtp_curve(res, resolution):
    ts = np.arange(resolution) * (TWO_PI / resolution)
    return ("t", "T"), (ts, gtp_value(ts, res.nodes, res.exponents))


def _gap_curve(poly, resolution):
    xs = np.linspace(*poly.interval, resolution)
    return ("x", "P"), (xs, eval_gap(xs, poly))


# ---------------------------------------------------------------- commands

def _cmd_eval(cfg, args):
    p = _problem_from(cfg)
    ns = _nodes_from(cfg, p.n)
    t = cfg.get("t")
    if t is None:
        raise ValidationError("eval needs 't' in the config (angle or list)")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    vals = sum_translates(p, ns, ts)
    result = {"nodes": list(ns.values), "t": [float(v) for v in ts],
              "F": [float(v) for v in np.atleast_1d(vals)]}
    return result, OK, functools.partial(_f_curve, p, ns)


def _cmd_profile(cfg, args):
    p = _problem_from(cfg)
    ns = _nodes_from(cfg, p.n)
    sig = _sigma_or_locate(cfg, args, ns)
    prof = profile(p, ns, sig)
    d = delta(prof)
    result = {
        "nodes": list(ns.values),
        "sigma": list(sig.sigma),
        "profile": prof.to_dict(),
        "delta": [float(v) for v in d],
        "m_bar": prof.m_bar,
        "m_under": prof.m_under,
    }
    return result, OK, functools.partial(_f_curve, p, ns)


def _solve_common(cfg, args, fn):
    p = _problem_from(cfg)
    opts = _options_from(cfg, args)
    if cfg.get("nodes") is not None:
        opts.start = tuple(_nodes_from(cfg, p.n).values)
    if args.all_sigma:
        if fn is not minimax:
            raise ValidationError("--all-sigma sweeps the ordering cells for minimax only")
        if not isinstance(opts.start, str):
            raise ValidationError(
                "--all-sigma solves every ordering cell, but start nodes lie in one cell; "
                "drop the start nodes ('nodes', --nodes or options.start)")
        glob = minimax_global(p, opts, max_permutations=int(cfg.get("max_permutations", 6)))
        rep, result = glob.best, glob.to_dict()
    else:
        rep = fn(p, _sigma_from(cfg, args, p.n), opts)
        result = rep.to_dict()
    flagged = not rep.converged or (
        fn is minimax and not rep.flags.get("local_min_certified", True))
    return result, FLAGGED if flagged else OK, functools.partial(_f_curve, p, rep.nodes)


def _cmd_equioscillate(cfg, args):
    return _solve_common(cfg, args, solve_equioscillation)


def _cmd_minimax(cfg, args):
    return _solve_common(cfg, args, minimax)


def _cmd_maximin(cfg, args):
    return _solve_common(cfg, args, maximin)


def _cmd_gtp(cfg, args):
    exps = _floats(args.exponents) or cfg.get("exponents")
    if not exps:
        raise ValidationError("gtp needs --exponents r0,r1,...")
    res = solve_gtp(GtpProblem(tuple(exps)), _options_from(cfg, args))
    code = OK if res.report.converged else FLAGGED
    return res.to_dict(), code, functools.partial(_gtp_curve, res)


def _cmd_bojanov(cfg, args):
    exps = _floats(args.exponents) or cfg.get("exponents")
    interval = _floats(args.interval) or cfg.get("interval")
    if not exps or not interval or len(interval) != 2:
        raise ValidationError("bojanov needs --interval a,b and --exponents nu1,...")
    q = BojanovProblem(interval[0], interval[1], tuple(exps))
    poly = solve_bojanov(q, _options_from(cfg, args))
    ok = poly.flags["equioscillates"] and poly.flags["interlacing"] and poly.flags["converged"]
    return poly.to_dict(), OK if ok else FLAGGED, functools.partial(_gap_curve, poly)


def _cmd_sample(cfg, args):
    """The curve alone; run() writes it (to stdout when no path is given)."""
    p = _problem_from(cfg)
    result = {"rows": _resolution(cfg, args), "path": args.emit_samples}
    return result, OK, functools.partial(_f_curve, p, _nodes_from(cfg, p.n))


def _cmd_verify(cfg, args):
    check = args.check
    if check is None:
        raise ValidationError("verify needs --check sandwich|mmatrix|convergence|grid-minimax")
    p = _problem_from(cfg)
    if check == "sandwich":
        sig = _sigma_from(cfg, args, p.n)
        if sig is None:
            raise ValidationError("sandwich check needs --sigma")
        rep = check_sandwich(
            p, sig,
            m_estimate=cfg.get("m_estimate"),
            samples=int(cfg.get("samples", 100)),
            seed=_seed(cfg, args),
            tol=float(cfg.get("check_tol", 1e-9)),
            include=cfg.get("include", ()),
        )
        return rep.to_dict(), OK if rep.ok else FLAGGED, None
    if check == "mmatrix":
        ns = _nodes_from(cfg, p.n)
        sig = _sigma_or_locate(cfg, args, ns)
        J = jacobian_delta(p, profile(p, ns, sig), relaxed=bool(cfg.get("relaxed", True)))
        rep = check_mmatrix(J)
        result = rep.to_dict()
        result["jacobian"] = [[float(v) for v in row] for row in J]
        return result, OK if rep.ok else FLAGGED, functools.partial(_f_curve, p, ns)
    if check == "convergence":
        ns = _nodes_from(cfg, p.n)
        levels = tuple(cfg.get("levels", (4, 16, 64, 256)))
        tab = convergence_probe(p, ns, levels)
        code = OK if (tab.decreasing and tab.bound_ok) else FLAGGED
        return tab.to_dict(), code, functools.partial(_f_curve, p, ns)
    if check == "grid-minimax":
        sig = _sigma_from(cfg, args, p.n)
        if sig is None:
            raise ValidationError("grid-minimax check needs --sigma")
        res = grid_minimax(
            p, sig,
            node_resolution=int(cfg.get("node_resolution", 120)),
        )
        result = res.to_dict()
        result["grid_sup_at_nodes"] = grid_sup(p, res.nodes, 4096)
        return result, OK, functools.partial(_f_curve, p, res.nodes)
    raise ValidationError(f"unknown check {check!r}")


_COMMANDS = {
    "eval": _cmd_eval,
    "profile": _cmd_profile,
    "equioscillate": _cmd_equioscillate,
    "minimax": _cmd_minimax,
    "maximin": _cmd_maximin,
    "gtp": _cmd_gtp,
    "bojanov": _cmd_bojanov,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="equisum",
        description="Equilibrium node placement for sums of translated concave kernels.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", help="JSON config file, or - for stdin")
    ap.add_argument("--sigma", help="ordering permutation, e.g. 2,1,3")
    ap.add_argument("--all-sigma", action="store_true",
                    help="sweep all orderings (minimax only)")
    ap.add_argument("--nodes", help="node angles, e.g. 3.14,1.57,4.71")
    ap.add_argument("--exponents", help="exponent list for gtp/bojanov")
    ap.add_argument("--interval", help="interval a,b for bojanov")
    ap.add_argument("--tol", type=float, help="residual tolerance")
    ap.add_argument("--max-iter", type=int, help="iteration cap")
    ap.add_argument("--seed", type=int, help="seed of solves and sandwich draws")
    ap.add_argument("--resolution", type=int, help="grid/sample resolution")
    ap.add_argument("--check", help="verify: sandwich|mmatrix|convergence|grid-minimax")
    ap.add_argument("--emit-samples", metavar="PATH",
                    help="write a CSV of curve samples (sample: stdout if omitted)")
    ap.add_argument("--degrees", action="store_true",
                    help="angles in degrees on input and output")
    ap.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp field (byte-stable output)")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser run() uses, built once per process: parse_args keeps no
    state in the parser, and building it costs far more than a parse."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        seed = _seed(cfg, args)
        if args.nodes:
            cfg["nodes"] = _floats(args.nodes)
        if args.degrees:
            _radians_in(cfg)
        result, code, curve = _COMMANDS[args.command](cfg, args)
        if args.degrees:
            curve = _degrees_curve(curve)
        if curve is not None and (args.emit_samples is not None or args.command == "sample"):
            rows = _write_csv(args.emit_samples, *curve(_resolution(cfg, args)))
            if args.command != "sample":
                result["samples_written"] = rows
            elif args.emit_samples is None:
                return code  # the CSV on stdout is sample's whole output
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return ERROR

    doc = {"schema": 1, "command": args.command}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    doc["seed"] = seed
    doc["result"] = _jsonify(result, args.degrees and _ANGLE_PART.get(args.command, True))
    if args.degrees:
        doc["units"] = "degrees"
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
