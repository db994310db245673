"""Span tracing at the layer boundaries of the dichotomy package.

The tracer wraps the public functions of each layer module from the outside:
a function is replaced in every module namespace that imported it (the
package binds names with ``from .x import f``), but not in its defining
module, so a span marks a call *into* a layer and calls inside one layer
stay within that layer's span.  Game methods are wrapped on their classes.

Each finished span is one record of seven doubles in a single in-memory
array: span id, name index, start, end, parent id, job id and a work count
(rows, samples, bytes ...).  ``array.extend`` runs under the interpreter
lock, so records from the Monte Carlo worker threads never interleave.  A
span opened on a worker thread with nothing open on that thread takes as
parent the span open on the thread that runs the jobs.
"""

import array
import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

# Modules of src/dichotomy that do work; ``errors`` and ``__main__`` do none.
LAYERS = (
    "numerics",
    "coalition",
    "production",
    "dvalue",
    "taxpolicy",
    "posterior",
    "apps",
    "serialize",
    "cli",
)

# Work counters, measured on each call's result: span name -> (counter, measure).
_WORK = {
    "coalition.sample_memberships": ("coalition.rows_sampled", len),
    "dvalue.mc_valuation": ("dvalue.mc_samples", lambda r: r.samples),
    "taxpolicy.solve_theta_rho": ("taxpolicy.cells_solved", lambda r: 1),
    "taxpolicy.feasible_set_probe": ("taxpolicy.cells_solved", len),
    "serialize.csv_line": ("serialize.bytes_out", len),
    "serialize.json_dumps": ("serialize.bytes_out", len),
    # Only the base-class method builds a table; DenseTableGame returns its own.
    "production.Game.dense_values": ("production.dense_builds", lambda r: 1),
}
# Every values_for_memberships call evaluates one row per membership row.
_ROWS_EVALUATED = ("production.rows_evaluated", len)

COUNTERS = (
    "coalition.rows_sampled",
    "production.dense_builds",
    "production.rows_evaluated",
    "dvalue.mc_samples",
    "taxpolicy.cells_solved",
    "serialize.bytes_out",
)

_FIELDS = 7


class Tracer:
    """Records spans around calls into the package layers."""

    def __init__(self):
        self.names: list[str] = []
        self.work_of: list[str | None] = []
        self.records = array.array("d")
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._job_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """A callable that runs ``fn`` inside a span called ``name``."""
        idx = len(self.names)
        self.names.append(name)
        counter, measure = _WORK.get(name, (None, None))
        if name.endswith(".values_for_memberships"):
            counter, measure = _ROWS_EVALUATED
        self.work_of.append(counter)
        records = self.records
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._job_stack:
                parent = tracer._job_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            work = measure(result) if measure else 0
            records.extend((sid, idx, t0, t1, parent, tracer.job, work))
            return result

        return traced

    def install(self, extra_namespaces=()) -> None:
        """Wrap every public function and game method of the loaded layers.

        ``extra_namespaces`` are modules outside the package (the benchmark's
        own) whose imported names should be traced as well.
        """
        loaded = {
            layer: sys.modules[f"dichotomy.{layer}"]
            for layer in LAYERS
            if f"dichotomy.{layer}" in sys.modules
        }
        importers = [
            m
            for name, m in list(sys.modules.items())
            if name == "dichotomy" or name.startswith("dichotomy.")
        ] + list(extra_namespaces)
        traced = {}  # id of the original function -> (its module, wrapper)
        for layer, module in loaded.items():
            public = tuple(getattr(module, "__all__", ()))
            for attr in public + (("main",) if layer == "cli" else ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    traced[id(fn)] = (module, self.wrap(fn, f"{layer}.{attr}"))
        if "cli" in loaded:  # the launcher calls cli.main itself
            cli = loaded["cli"]
            cli.main = traced[id(cli.main)][1]
        for other in importers:
            namespace = vars(other)
            # Module-level tables hold functions too (the CLI's verify table).
            tables = [v for v in namespace.values() if type(v) is dict]
            for table in [namespace, *tables]:
                for key, value in list(table.items()):
                    hit = traced.get(id(value))
                    if hit is not None and hit[0] is not other:
                        table[key] = hit[1]
        production = loaded.get("production")
        if production is not None:
            for cls in vars(production).values():
                if not (inspect.isclass(cls) and issubclass(cls, production.Game)):
                    continue
                for meth in ("values_for_memberships", "dense_values"):
                    fn = vars(cls).get(meth)
                    if inspect.isfunction(fn):
                        name = f"production.{cls.__name__}.{meth}"
                        setattr(cls, meth, self.wrap(fn, name))

    def spans(self) -> np.ndarray:
        """All finished spans as an (k, 7) array, in completion order."""
        return np.frombuffer(self.records, dtype=float).reshape(-1, _FIELDS).copy()

    def summary(self) -> dict:
        """Per-layer call counts and self seconds, plus the work counters."""
        return summarize(self.spans(), self.names, self.work_of)

    def dump(self, path) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self.names))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children on one thread run one after another; the children of a Monte
    Carlo span also run on worker threads and overlap, hence the union.
    """
    k = len(spans)
    sid = spans[:, 0].astype(np.int64)
    start, end, parent = spans[:, 2], spans[:, 3], spans[:, 4].astype(np.int64)
    covered = np.zeros(k)
    child = np.flatnonzero(parent >= 0)
    if len(child):
        row_of = np.full(sid.max() + 1, -1, dtype=np.int64)
        row_of[sid] = np.arange(k)
        prow = row_of[parent[child]]
        child, prow = child[prow >= 0], prow[prow >= 0]  # parent recorded
        order = np.lexsort((start[child], prow))
        child, prow = child[order], prow[order]
        cs, ce = start[child], end[child]
        # Running maximum of the earlier ends in each parent's group: shift
        # each group past the previous one so one accumulate serves them all.
        first = np.concatenate(([True], prow[1:] != prow[:-1]))
        shift = (np.cumsum(first) - 1) * (end.max() - start.min() + 1.0) - start.min()
        reach = np.maximum.accumulate(ce + shift) - shift
        prev_end = np.where(first, -np.inf, np.concatenate(([-np.inf], reach[:-1])))
        np.add.at(covered, prow, np.maximum(0.0, ce - np.maximum(cs, prev_end)))
    return end - start - covered


def summarize(spans: np.ndarray, names, work_of) -> dict:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for counter in COUNTERS:
        out[counter] = 0
    if len(spans) == 0:
        return out
    idx = spans[:, 1].astype(np.int64)
    selfs = self_times(spans)
    calls = np.bincount(idx, minlength=len(names))
    self_by_name = np.bincount(idx, weights=selfs, minlength=len(names))
    work_by_name = np.bincount(idx, weights=spans[:, 6], minlength=len(names))
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        out[f"{layer}.calls"] += int(calls[i])
        out[f"{layer}.self_s"] += float(self_by_name[i])
        if work_of[i] is not None:
            out[work_of[i]] += int(work_by_name[i])
    return out


def merge(summaries) -> dict:
    """Sum of several summaries (one per traced process)."""
    out: dict = {}
    for s in summaries:
        for key, value in s.items():
            out[key] = out.get(key, 0) + value
    return out
