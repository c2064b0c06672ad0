"""The option surface: what a caller or a config may set.

Numerics that no caller tunes (the ladder's levels, the secant polish's
sweep cap, the oracles' grid sizes, the convergence probe's smoothing kind)
are module constants, not options.  The README documents what a config may
set: its option bullets must name exactly the fields of SolveOptions, its
config-key table every key the CLI reads, and its kernel list the
smoothing kinds.
"""
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import equisum.cli
from equisum.kernels import Smoothed
from equisum.oracle import check_sandwich, convergence_probe, grid_minimax
from equisum.solver import SolveOptions

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(start, stop):
    """README lines from the first that starts with `start` up to, not
    including, the next that starts with `stop`."""
    lines = README.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(start))
    j = next(k for k in range(i + 1, len(lines)) if lines[k].startswith(stop))
    return lines[i:j]


def test_solve_options_and_oracle_checks_take_no_numerics_knob():
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "tol_residual", "max_iter", "start", "seed"]
    for fn in (grid_minimax, check_sandwich, convergence_probe):
        params = inspect.signature(fn).parameters
        assert "t_resolution" not in params and "resolution" not in params, fn.__name__
    assert "kind" not in inspect.signature(convergence_probe).parameters


def _cli_config_keys():
    """{receiver: string keys cli.py reads from it}, for the config (`cfg`)
    and its options dict (`opts`): `.get("key", ...)` and `["key"]` loads."""
    keys = {"cfg": set(), "opts": set()}
    for node in ast.walk(ast.parse(Path(equisum.cli.__file__).read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args):
            owner, key = node.func.value, node.args[0]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            owner, key = node.value, node.slice
        else:
            continue
        if (isinstance(owner, ast.Name) and owner.id in keys
                and isinstance(key, ast.Constant) and isinstance(key.value, str)):
            keys[owner.id].add(key.value)
    return keys


def test_readme_lists_exactly_the_keys_the_cli_reads():
    bullets = _readme_section("Solver `options` a config may set", "Conventions:")
    documented = {m.group(1) for line in bullets if (m := re.match(r"- `(\w+)`:", line))}
    assert documented == {f.name for f in dataclasses.fields(SolveOptions)}

    table = _readme_section("| command | keys", "A command with a curve")
    in_table = set(re.findall(r"`([^`]+)`", "\n".join(table)))
    keys = _cli_config_keys()
    assert keys["cfg"] and keys["opts"]
    assert keys["cfg"] <= in_table, sorted(keys["cfg"] - in_table)
    assert keys["opts"] <= documented, sorted(keys["opts"] - documented)


def test_readme_lists_exactly_the_smoothing_kinds():
    text = " ".join(README.read_text().split())
    sentence = re.search(r"`approximant\(base, level, kind\)`(.*?)\.", text).group(1)
    assert tuple(re.findall(r'`"(\w+)"`', sentence)) == Smoothed.KINDS
