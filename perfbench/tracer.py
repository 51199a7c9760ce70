"""Span tracer that times closedstring from outside, by wrapping its functions.

Nothing in ``src/`` is edited: :func:`install` replaces each public function
of the traced modules, in every ``closedstring`` namespace that binds it, by
a wrapper that records a span (name, parent, start, end) while a root span
is open.  ``verify``'s thread pool is swapped for a subclass that hands the
submitting thread's open span to the worker, so suite spans nest under
``verify.run_suites`` although they run on other threads.  Spans stay in
memory; :func:`aggregate` turns one op's spans into per-layer counts and
self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

# Layers, in the order the pipeline uses them.  Each is a closedstring module.
LAYERS = ("phase_space", "numerics", "jets", "ddf", "pohlmeyer", "reparam",
          "poisson", "verify", "cli")

# Methods timed as if they were module functions: (module, class, method).
METHODS = (("poisson", "CoordinateChart", "omega"),)

# Spans reported under one metric name.
MERGED = {"jets.fft": "jets.fft_ifft", "jets.ifft": "jets.fft_ifft",
          "poisson.CoordinateChart.omega": "poisson.omega"}

# The FFT helpers of jets pass plain arrays straight to numpy.fft; only calls
# on Jets are forward-mode work, so only those open a jets span.
JET_ONLY = ("jets.fft", "jets.ifft")

# Spans whose tracemalloc peak is taken when memory tracing is on.
MEMORY_SPANS = ("ddf.ddf_modes",)

ROOT = "bench.op"


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "cpu")

    def __init__(self, sid, parent, name, t0):
        self.sid, self.parent, self.name, self.t0 = sid, parent, name, t0
        self.t1 = None
        self.cpu = None


class Tracer:
    """Thread-safe span recorder with a per-thread parent stack."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans = []
        self.counters = {}
        self.peaks = {}
        self.recording = False
        self.memory = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread (or its adopted parent)."""
        stack = self._stack()
        return stack[-1].sid if stack else getattr(self._local, "adopted", None)

    def adopt(self, parent):
        self._local.adopted = parent

    def add(self, name, amount):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def _open(self, name, cpu):
        span = Span(next(self._ids), self.current(), name, time.perf_counter())
        if cpu:
            span.cpu = time.thread_time()
        self._stack().append(span)
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        if span.cpu is not None:
            span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def run_root(self, fn):
        """Run fn() as the root span of one op; returns (result, spans, counters, peaks)."""
        self.spans, self.counters, self.peaks = [], {}, {}
        self.recording = True
        span = self._open(ROOT, cpu=False)
        try:
            out = fn()
        finally:
            self._close(span)
            self.recording = False
        return out, self.spans, self.counters, self.peaks

    def wrap(self, name, fn, cpu=False):
        memory = name in MEMORY_SPANS
        jet_only = name in JET_ONLY
        from closedstring.jets import Jet

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording or (jet_only and not isinstance(args[0], Jet)):
                return fn(*args, **kwargs)
            if memory and self.memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span = self._open(name, cpu)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                if memory and self.memory:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2.0 ** 20
                    with self._lock:
                        self.peaks[name] = max(self.peaks.get(name, 0.0), peak)

        return traced


def _pool_class(tracer):
    class TracingPool(ThreadPoolExecutor):
        """Pool whose jobs nest under the span open at submit time and report queue wait."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            submitted = time.perf_counter()

            def job(*a, **kw):
                if tracer.recording:
                    tracer.add("verify.pool.wait_s", time.perf_counter() - submitted)
                tracer.adopt(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    tracer.adopt(None)

            return super().submit(job, *args, **kwargs)

    return TracingPool


def _namespaces():
    import closedstring

    return [closedstring] + [importlib.import_module(f"closedstring.{name}") for name in LAYERS]


def install(tracer):
    """Wrap every traced function everywhere it is bound; returns an undo callable."""
    namespaces = _namespaces()
    verify = importlib.import_module("closedstring.verify")
    suites = {id(fn): nm for nm, fn in verify.SUITES.items()}
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"closedstring.{layer}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if id(fn) in suites:
                wrappers[id(fn)] = tracer.wrap(f"verify.{suites[id(fn)]}", fn, cpu=True)
            else:
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{fn.__name__}", fn)

    undo = []
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            if inspect.isfunction(val) and id(val) in wrappers:
                undo.append((ns, attr, val))
                setattr(ns, attr, wrappers[id(val)])
    for nm, fn in list(verify.SUITES.items()):
        undo.append((verify.SUITES, nm, fn))
        verify.SUITES[nm] = wrappers[id(fn)]
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"closedstring.{layer}"), cls_name)
        fn = vars(cls)[meth]
        undo.append((cls, meth, fn))
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", fn))
    undo.append((verify, "ThreadPoolExecutor", verify.ThreadPoolExecutor))
    verify.ThreadPoolExecutor = _pool_class(tracer)

    def uninstall():
        for target, attr, val in reversed(undo):
            if isinstance(target, dict):
                target[attr] = val
            else:
                setattr(target, attr, val)

    return uninstall


def _covered(intervals):
    """Total length of the union of (t0, t1) intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - _covered(children.get(s.sid, ())) for s in spans}


def aggregate(spans):
    """Per-name call counts, self seconds, inclusive seconds and thread CPU for one op."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        name = MERGED.get(s.name, s.name)
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "thread_cpu_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += selfs[s.sid]
        rec["wall_s"] += s.t1 - s.t0
        if s.cpu is not None:
            rec["thread_cpu_s"] += s.cpu
    return out
