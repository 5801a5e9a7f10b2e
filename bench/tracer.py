"""Spans around hypflow's public functions, recorded from outside the program.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper under every name that refers to the original, in every
loaded hypflow module: they import each other with ``from ... import``, so
patching only the defining module would miss most calls.  Code outside the
package reaches the functions through module attributes (``flows.integrate``),
which the rebinding covers.

A span is recorded only while a benchmark root span is open (`root`), so
checks and anything else the benchmark runs outside its roots cost nothing
and count nowhere.  Spans are aggregated in memory by (root kind, name,
parent name); the first `MAX_SPANS` raw spans are kept as well, and both are
written out by `dump` when the run ends.  Processes that the benchmark starts
send their state back (`state`, `absorb`, `merge`).  Self time is a span's duration
minus the durations of its direct children; calls are strictly nested (one
thread), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

TRACED_MODULES = (
    "conformal",
    "hexagon",
    "jacobian",
    "energy",
    "flows",
    "newton",
    "instances",
    "cli",
    "triangulation",
)
MAX_SPANS = 100_000


def _states(args, kwargs, result):
    w = args[2] if len(args) > 2 else kwargs["w"]
    shape = getattr(w, "shape", None)
    if shape is None:
        return 1
    states = 1
    for d in shape[:-1]:
        states *= d
    return states


def _steps(args, kwargs, result):
    return (result.accepted_steps, result.rejected_steps)


def _iterations(args, kwargs, result):
    return result.iterations


# per-call work counts read from a call's arguments or its result; an
# exception that carries a partial result (StepCollapse, MaxIterations,
# LineSearchFailure) is counted through that result
UNITS = {
    "conformal.boundary_lengths": (_states, None),
    "flows.integrate": (_steps, "trajectory"),
    "newton.solve_prescribed": (_iterations, "report"),
}


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, start, child_seconds]
        self.kind = None  # kind of the open root span
        self.root_index = -1
        self.agg = {}  # (kind, name, parent) -> [calls, total_s, self_s]
        self.units = {}  # (kind, name, parent) -> summed work count
        self.spans = []  # (root index, name, parent, start, end)
        self.max_spans = MAX_SPANS
        self.roots = []  # (kind, label, start, end, child_seconds)

    # -- roots ---------------------------------------------------------------

    def root(self, kind: str, label: str):
        return _Root(self, kind, label)

    def reset(self) -> None:
        """Forget what was recorded, keeping the raw-span budget that is left.
        A forked round process calls this so that it sends back only its own
        spans (see `state` and `absorb`)."""
        self.max_spans = max(0, self.max_spans - len(self.spans))
        self.agg.clear()
        self.units.clear()
        self.spans.clear()
        self.roots.clear()

    def state(self) -> dict:
        """Everything recorded, as JSON-ready lists."""
        return {
            "agg": [[*key, *row] for key, row in self.agg.items()],
            "units": [[*key, value] for key, value in self.units.items()],
            "roots": self.roots,
            "spans": self.spans,
        }

    def _add_rows(self, state: dict) -> None:
        for kind, name, parent, calls, total, self_s in state["agg"]:
            row = self.agg.setdefault((kind, name, parent), [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        for kind, name, parent, value in state["units"]:
            key = (kind, name, parent)
            self.units[key] = add_counts(self.units.get(key), value)

    def absorb(self, state: dict) -> None:
        """Add the state of a process that ran whole roots of its own."""
        self._add_rows(state)
        offset = len(self.roots)
        self.roots.extend(tuple(root) for root in state["roots"])
        room = self.max_spans - len(self.spans)
        self.spans.extend((r + offset, *rest) for r, *rest in state["spans"][:room])

    def merge(self, state: dict) -> None:
        """Add the state of a traced CLI process (cli_probe.py) that ran inside
        the root open here.  It opened a root of the same kind, so its
        top-level spans already name this root as their parent, and their time
        counts as covered by children of this root.  Its raw spans are left
        out."""
        self._add_rows(state)
        root_name = self.stack[-1][0]
        for kind, name, parent, calls, total, self_s in state["agg"]:
            if parent == root_name:
                self.stack[-1][2] += total

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller, such as a child process's start-up."""
        parent = self.stack[-1][0]
        self.stack[-1][2] += end - start
        row = self.agg.setdefault((self.kind, name, parent), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start
        if len(self.spans) < self.max_spans:
            self.spans.append((self.root_index, name, parent, start, end))

    # -- wrapping --------------------------------------------------------------

    def install(self, package) -> None:
        originals = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package.__name__}.{short}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        prefix = package.__name__ + "."
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, fn):
        count, carrier = UNITS.get(name, (None, None))
        stack = self.stack
        agg = self.agg
        units = self.units
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1][0]
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            result = carried = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                carried = getattr(exc, carrier, None) if carrier else None
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                stack[-1][2] += duration
                key = (self.kind, name, parent)
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
                if count is not None:
                    source = result if carried is None else carried
                    if source is not None:
                        units[key] = add_counts(units.get(key), count(args, kwargs, source))
                if len(spans) < self.max_spans:
                    spans.append((self.root_index, name, parent, frame[1], end))

        return traced

    # -- output ----------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        doc = {
            "aggregates": [
                {"root": k, "name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (k, n, p), (c, t, s) in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
            ],
            "roots": [
                {"kind": k, "label": label, "start": a, "end": b, "self_s": (b - a) - c}
                for k, label, a, b, c in self.roots
            ],
            "spans": [
                {"root": r, "name": n, "parent": p, "start": a, "end": b}
                for r, n, p, a, b in self.spans
            ],
            "spans_truncated": len(self.spans) >= self.max_spans,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def add_counts(a, b):
    """Sum two work counts: numbers, or tuples (lists after JSON)."""
    if isinstance(b, list):
        b = tuple(b)
    if a is None:
        return b
    if isinstance(b, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


class _Root:
    def __init__(self, tracer: Tracer, kind: str, label: str):
        self.tracer = tracer
        self.kind = kind
        self.label = label

    def __enter__(self):
        t = self.tracer
        t.kind = self.kind
        t.root_index = len(t.roots)
        self.frame = [f"bench.{self.kind}", perf_counter(), 0.0]
        t.stack.append(self.frame)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = perf_counter()
        t.stack.pop()
        t.roots.append((self.kind, self.label, self.frame[1], end, self.frame[2]))
        return False
