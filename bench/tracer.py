"""Outside-in span tracer for the public functions of the vlab modules.

Nothing in ``src/`` knows about it.  :meth:`Tracer.install` replaces every
public function of the eight traced modules, in every loaded ``vlab``
namespace that holds a reference to it (``cli``, ``means`` and
``counterexample`` import names directly), with a wrapper that records one
span per call: span id, parent span id, run id, name, start, end and
whether an exception escaped.  ``ExperimentReport.write`` is wrapped on the
class and named ``report.write``.  Generator functions get one span per
resumption, so spans always nest.

Spans stay in memory and :meth:`Tracer.dump` writes them as JSON lines when
the run ends.  A few spans also carry work figures: ``madds`` and the
bytes a naive pass streams are computed from argument shapes, other
``bytes`` are sizes of results or files, and ``key`` identifies the input
for distinct-input ratios.  None of them is read from vlab's own counters.
The stack assumes one thread, which holds because the benchmark runs the
CLI with ``VLAB_THREADS=1``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import time
import types

MODULES = (
    "group_core",
    "step_functions",
    "transform",
    "means",
    "operators",
    "counterexample",
    "report",
    "cli",
)

_CACHED = type(functools.lru_cache(maxsize=1)(lambda: None))
COMPLEX_BYTES = 16


def _size(seq) -> int:
    return seq.scales[seq.depth]


def _character_row(args, kwargs, result):
    seq, n = args[0], int(args[1])
    # digit table (M_N x N) times the phase vector: M_N * N multiply-adds
    return {"key": (seq.radices, n), "madds": _size(seq) * seq.depth}


def _analysis_matrix(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _forward_naive(args, kwargs, result):
    # one pass streams the whole dense M_N x M_N complex matrix
    m = _size(args[0].radix_seq)
    return {"madds": m * m, "bytes": COMPLEX_BYTES * m * m}


def _per_axis(args, kwargs, result):
    seq = args[0].radix_seq
    # one small DFT kernel per digit axis: M_N * sum_k m_k multiply-adds
    return {"madds": _size(seq) * sum(seq.radices)}


def _log_mean(args, kwargs, result):
    f = args[0]
    n = int(args[1]) if len(args) > 1 else int(kwargs["n"])
    digest = hashlib.blake2b(f.values.tobytes(), digest_size=8).hexdigest()
    return {"key": (f.radix_seq.radices, n, digest)}


def _partial_sum_stack(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _report_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# Computed work per call, keyed by span name; evaluated after the call.
WORK = {
    "transform.character_row": _character_row,
    "transform.forward_naive": _forward_naive,
    "transform.forward_fast": _per_axis,
    "transform.inverse": _per_axis,
    "means.log_mean": _log_mean,
    "means.partial_sum_stack": _partial_sum_stack,
    "report.write": _report_write,
}
# Work of lru-cached functions, counted only on a miss, when the value is built.
BUILD_WORK = {"transform.analysis_matrix": _analysis_matrix}


class Tracer:
    """Span recorder for one traced CLI run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    # -- recording (kept lean: the hot spans last a few microseconds) ----

    def wrap(self, name: str, fn):
        """Return a span-recording stand-in for ``fn``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        work = WORK.get(name)
        build_work = BUILD_WORK.get(name)
        cache_info = fn.cache_info if build_work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, clock(), True, None))
                raise
            end = clock()
            stack.pop()
            extra = work(args, kwargs, result) if work else None
            if cache_info and cache_info().misses > misses:
                extra = build_work(args, kwargs, result)
            spans.append((sid, parent, name, start, end, False, extra))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = next(ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    stack.pop()
                    spans.append((sid, parent, name, start, clock(), False, None))
                    return
                except BaseException:
                    stack.pop()
                    spans.append((sid, parent, name, start, clock(), True, None))
                    raise
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, False, None))
                yield item

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of :data:`MODULES` and ``ExperimentReport.write``."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"vlab.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, (types.FunctionType, _CACHED)):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vlab" or mod_name.startswith("vlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        report_cls = importlib.import_module("vlab.report").ExperimentReport
        report_cls.write = self.wrap("report.write", report_cls.write)

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, error, work in self.spans:
                rec = {
                    "id": sid,
                    "parent": parent,
                    "run": self.run_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "error": error,
                }
                if work:
                    if "key" in work:
                        work = dict(work, key=repr(work["key"]))
                    rec.update(work)
                fh.write(json.dumps(rec) + "\n")
