"""Span tracing from outside the package, for the traced benchmark run.

``Tracer.install`` replaces the names through which one ``equisum`` module
calls the next with wrappers that record a span per call: name, start,
end, parent span and task id.  Spans are kept in compact arrays and can be
written out with ``save``.  Kernel ``value``/``deriv`` record only the
outermost call, so a weighted kernel counts once, not twice.  Nothing
under ``src/`` changes; ``uninstall`` puts every original back.

Span names are ``<layer>.<function>``; the layer is the package module
that owns the code (``lp`` stands for ``scipy.optimize.linprog``).
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (module, attribute, span name) of the wrapped functions
_FUNCTIONS = (
    ("equisum.extremal", "minimax", "solver.minimax"),
    ("equisum.solver", "solve_equioscillation", "solver.solve_equioscillation"),
    ("equisum.solver", "minimax", "solver.minimax"),
    ("equisum.solver", "profile", "evaluator.profile"),
    ("equisum.solver", "delta", "evaluator.delta"),
    ("equisum.solver", "jacobian_delta", "evaluator.jacobian_delta"),
    ("equisum.solver", "jacobian_m", "evaluator.jacobian_m"),
    ("equisum.solver", "approximant", "kernels.approximant"),
    # solver stages; a Newton stage on regularized kernels is a ladder stage
    ("equisum.solver", "_newton_stage", "solver.newton_stage"),
    ("equisum.solver", "_secant_stage", "solver.secant_stage"),
    ("equisum.solver", "_mbar_closure", "solver.certificate_probe"),
    ("equisum.solver", "_spread_nodes", "solver.restart"),
    ("equisum.oracle", "grid_sup", "oracle.grid_sup"),
    ("equisum.oracle", "grid_profile", "oracle.grid_profile"),
    ("equisum.oracle", "grid_minimax", "oracle.grid_minimax"),
    ("equisum.kernels", "reduce_angle", "torus.reduce_angle"),
    ("scipy.optimize", "linprog", "lp.linprog"),
)

# cli imports from these modules are wrapped under the owning module's name
_CLI_SOURCES = {
    "equisum.solver": "solver",
    "equisum.oracle": "oracle",
    "equisum.extremal": "extremal",
    "equisum.evaluator": "evaluator",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.missing = []
        self._patches = []
        self.task = -1
        self._stack = []      # (span index, name id, start, child seconds)
        self._kdepth = 0      # open kernel value/deriv calls
        self.span_overhead_s = 0.0  # set by calibrate()
        self.reset()

    # -------------------------------------------------------------- storage
    def reset(self):
        """Drop recorded spans and aggregates (between passes)."""
        self.s_name = array("H")
        self.s_parent = array("i")
        self.s_task = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        n = len(self.names)
        self.count = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self.pairs = {}  # (name id, parent name id) -> count
        self.counters = {"kernel_points": 0, "profile_kernel_calls": 0,
                         "oracle_kernel_points": 0, "secant_sweeps": 0}
        self._scope = {"profile": 0, "oracle": 0}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.s_name)
        parent = self._stack[-1][0] if self._stack else -1
        self.s_name.append(nid)
        self.s_parent.append(parent)
        self.s_task.append(self.task)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        start = time.perf_counter()
        self._stack.append([idx, nid, start, 0.0])

    def _close(self):
        end = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        dur = end - start
        self.s_start[idx] = start
        self.s_end[idx] = end
        self.count[nid] += 1
        self.incl[nid] += dur
        self.self_s[nid] += dur - child
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            key = (nid, top[1])
        else:
            key = (nid, -1)
        self.pairs[key] = self.pairs.get(key, 0) + 1

    # -------------------------------------------------------------- tasks
    def begin_task(self, task_id):
        self.task = task_id
        self._open(self._id("cli.run"))

    def end_task(self):
        self._close()
        self.task = -1

    # -------------------------------------------------------------- wrappers
    def _wrap(self, fn, name, name_of=None, on_return=None):
        nid = self._id(name)
        tr = self
        scope = _scope(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.task < 0:
                return fn(*args, **kwargs)
            tr._open(name_of(args) if name_of else nid)
            if scope:
                tr._scope[scope] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                if scope:
                    tr._scope[scope] -= 1
                tr._close()
            if on_return:
                on_return(out)
            return out

        return wrapper

    def _wrap_kernel(self, fn, name):
        nid = self._id(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(kernel, t, *args, **kwargs):
            if tr.task < 0 or tr._kdepth:
                return fn(kernel, t, *args, **kwargs)
            tr._kdepth += 1
            tr._open(nid)
            try:
                return fn(kernel, t, *args, **kwargs)
            finally:
                tr._close()
                tr._kdepth -= 1
                pts = np.size(t)
                c = tr.counters
                c["kernel_points"] += pts
                if tr._scope["profile"]:
                    c["profile_kernel_calls"] += 1
                if tr._scope["oracle"]:
                    c["oracle_kernel_points"] += pts

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import importlib

        import equisum.cli
        import equisum.kernels
        import scipy.optimize  # noqa: F401  (linprog is patched on the module)

        def sweeps(out):
            self.counters["secant_sweeps"] += len(out[2])

        newton, ladder = self._id("solver.newton_stage"), self._id("solver.ladder_stage")
        extra = {
            # _newton_stage(p, sig, y, opts, label, max_iter): labels "level:*" are rungs
            "_newton_stage": {"name_of": lambda a: ladder if str(a[4]).startswith("level")
                              else newton},
            "_secant_stage": {"on_return": sweeps},
        }
        for modname, attr, name in _FUNCTIONS:
            mod = importlib.import_module(modname)
            if not hasattr(mod, attr):
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name, **extra.get(attr, {})))

        for attr, fn in list(vars(equisum.cli).items()):
            layer = _CLI_SOURCES.get(getattr(fn, "__module__", None))
            if layer and callable(fn) and not isinstance(fn, type):
                self._patch(equisum.cli, attr, self._wrap(fn, f"{layer}.{fn.__name__}"))

        for cls in _subclasses(equisum.kernels.Kernel):
            for meth in ("value", "deriv"):
                if meth in cls.__dict__:
                    self._patch(cls, meth, self._wrap_kernel(cls.__dict__[meth], f"kernels.{meth}"))

    def calibrate(self, calls=20000, rounds=5):
        """Seconds that one complete child span adds to its parent's inclusive
        time: a wrapped no-op against a bare one, best of a few rounds."""

        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibrate")
        saved, self.task = self.task, 0
        best = float("inf")
        try:
            for _ in range(rounds):
                t0 = time.perf_counter()
                for _ in range(calls):
                    noop()
                t1 = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                t2 = time.perf_counter()
                best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        finally:
            self.task = saved
            self.reset()
        self.span_overhead_s = max(best, 0.0)
        return self.span_overhead_s

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------------- results
    def layer_self(self, layer):
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.split(".", 1)[0] == layer)

    def layer_spans(self, layer):
        return sum(c for name, c in zip(self.names, self.count)
                   if name.split(".", 1)[0] == layer)

    def n(self, name):
        return self.count[self._ids[name]] if name in self._ids else 0

    def seconds(self, name):
        return self.incl[self._ids[name]] if name in self._ids else 0.0

    def children_of(self, parents):
        """Spans whose direct parent is one of the named spans."""
        ids = {self._ids[p] for p in parents if p in self._ids}
        return sum(c for (a, b), c in self.pairs.items() if b in ids)

    def pair(self, name, parent):
        if name not in self._ids or parent not in self._ids:
            return 0
        return self.pairs.get((self._ids[name], self._ids[parent]), 0)

    def parent_layer_count(self, name, layer):
        if name not in self._ids:
            return 0
        nid = self._ids[name]
        return sum(c for (a, b), c in self.pairs.items()
                   if a == nid and b >= 0 and self.names[b].split(".", 1)[0] == layer)

    def save(self, path):
        """Write the recorded spans as arrays (times in perf_counter seconds)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.s_name, dtype=np.uint16),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            task=np.frombuffer(self.s_task, dtype=np.int32),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
        )


def _scope(name):
    """Kernel calls made inside these spans are also counted per scope."""
    if name.startswith("oracle."):
        return "oracle"
    return "profile" if name == "evaluator.profile" else None


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
