"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of the seven simnet modules
(and two hot methods) by rebinding it in every simnet module namespace that
holds it, and counts numpy eigen-decompositions by rebinding the
``numpy.linalg`` entry points; ``uninstall`` restores the originals.  No
source file changes.  Each call records a span (name, start, end, parent,
command); spans stay in memory until ``dump`` writes them out.

``call_main`` runs ``simnet.cli.main`` in-process with stdout captured, so
the traced and untraced runs of a command can be compared byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import os
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

LAYERS = ("linalg", "network", "certificates", "composition", "simulate", "swing", "cli")
METHODS = (("network", "NetworkSpec", "__init__"), ("composition", "ComposedCertificate", "evaluate_V"))
EIG_FUNCS = ("eig", "eigh", "eigvals", "eigvalsh")
# tracemalloc runs from the operator build to the composed certificate, the
# stages that hold the dense n x n operator copies
ALLOC_FROM = "composition.build_gain_operator_from_network"
ALLOC_TO = "composition.compose_certificate"

NAME, START, END, PARENT, COMMAND, INFO = range(6)


# extra facts recorded on a span from (args, result)
INFO_HOOKS = {
    "network.load_network": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "network.step_with_modes": lambda args, result: {"nodes": len(args[1])},
    "composition.build_gain_operator_from_network": lambda args, result: {"n": len(result.node_ids)},
    "simulate.export_run": lambda args, result: {"bytes": os.path.getsize(args[1])},
}


def call_main(argv):
    """Run ``simnet.cli.main(argv)`` in-process; return (exit code, stdout, wall s)."""
    import simnet.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = simnet.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


class Tracer:
    def __init__(self):
        self.spans = []
        self.eig_calls = 0
        self.alloc_peaks = []
        self.command = None
        self._stack = []
        self._undo = []

    def install(self):
        import simnet

        modules = [simnet] + [importlib.import_module(f"simnet.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, name, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"simnet.{layer}"), cls_name)
            self._rebind(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))
        for name in EIG_FUNCS:
            self._rebind(np.linalg, name, self._count_eig(getattr(np.linalg, name)))

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def run(self, command, argv):
        """Traced ``call_main``; spans are tagged with ``command``."""
        self.command = command
        try:
            return call_main(argv)
        finally:
            self._stop_alloc()
            self.command = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "command": s[COMMAND],
                                     **(s[INFO] or {})}) + "\n")

    def _rebind(self, target, name, value):
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _stop_alloc(self):
        if tracemalloc.is_tracing():
            self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = INFO_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == ALLOC_FROM and not tracemalloc.is_tracing():
                tracemalloc.start()
            span = [name, clock(), None, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, result)
            if name == ALLOC_TO:
                self._stop_alloc()
            return result

        return traced


class Spans:
    """Queries over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                self.child_time[s[PARENT]] += s[END] - s[START]

    def _outermost(self, names, within=None):
        """Spans named in ``names`` with no ancestor also named there (so
        recursion is not counted twice), optionally under a span named
        ``within``."""
        for idx, s in enumerate(self.spans):
            if s[NAME] not in names:
                continue
            p, nested, inside = s[PARENT], False, within is None
            while p >= 0:
                pname = self.spans[p][NAME]
                nested |= pname in names
                inside |= pname == within
                p = self.spans[p][PARENT]
            if not nested and inside:
                yield idx, s

    def total(self, *names, within=None):
        return sum(s[END] - s[START] for _, s in self._outermost(set(names), within))

    def self_time(self, *names):
        return sum(s[END] - s[START] - self.child_time[i] for i, s in self._outermost(set(names)))

    def count(self, *names):
        return sum(1 for s in self.spans if s[NAME] in names)

    def children_per_parent(self, name, parent):
        """Number of ``name`` spans directly under each ``parent`` span."""
        counts = {}
        for s in self.spans:
            if s[NAME] == name and s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == parent:
                counts[s[PARENT]] = counts.get(s[PARENT], 0) + 1
        return counts

    def info(self, name, key):
        return [s[INFO][key] for s in self.spans if s[NAME] == name and s[INFO]]

    def roots(self, name):
        return [(i, s) for i, s in enumerate(self.spans) if s[NAME] == name and s[PARENT] < 0]
