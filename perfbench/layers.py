"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of each layer of ``repro``
(the table in ``perfbench/README.md``) with timing spans kept in memory
by a :class:`Collector`.  Nothing in ``src/`` changes: every module
attribute bound to a wrapped function — including names other modules
imported with ``from ... import`` — is rebound to the wrapper.

Spans nest per thread; a layer's busy time is the sum of its spans' self
time (duration minus what their children cover).  Forked pool workers
inherit the wrappers and ship their aggregates home inside the result
envelope; the request server runs under ``serve_shim.py`` and writes its
aggregates to a file when it exits.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

from stats import covered_length, self_time

#: ``(module, attribute, tag)`` of every wrapped function.
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("repro.graph.serialize", "from_json", "graph"),
    ("repro.graph.generators", "random_dfg", "graph"),
    ("repro.retiming.optimal", "minimize_cycle_period", "retiming"),
    ("repro.retiming.optimal", "retime_for_period", "retiming"),
    ("repro.unfolding.orders", "retime_unfold", "unfolding"),
    ("repro.unfolding.orders", "unfold_retime", "unfolding"),
    ("repro.codegen.original", "original_loop", "codegen"),
    ("repro.codegen.pipelined", "pipelined_loop", "codegen"),
    ("repro.codegen.unfolded", "unfolded_loop", "codegen"),
    ("repro.codegen.combined", "retimed_unfolded_loop", "codegen"),
    ("repro.codegen.combined", "unfold_retimed_loop", "codegen"),
    ("repro.core.csr", "csr_pipelined_loop", "core"),
    ("repro.core.unfolded_csr", "csr_unfolded_loop", "core"),
    ("repro.core.combined_csr", "csr_retimed_unfolded_loop", "core"),
    ("repro.core.combined_csr", "csr_unfold_retimed_loop", "core"),
    ("repro.machine.vm", "run_program", "machine.exec"),
    ("repro.machine.dispatch", "compile_program", "machine.compile"),
    ("repro.core.verify", "assert_equivalent", "verify"),
)

#: ``(module, class, method, tag)`` of every wrapped method.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.runner.engine", "ExperimentEngine", "run_jobs", "engine"),
    ("repro.runner.engine", "ExperimentEngine", "run_units", "engine"),
    ("repro.runner.cache", "ResultCache", "get", "cache.get"),
    ("repro.runner.cache", "ResultCache", "put", "cache.put"),
    ("repro.runner.journal", "RunJournal", "append", "journal.append"),
)


class Collector:
    """In-memory spans, one list per thread, plus plain counters.

    A span is ``(tag, start, end, parent)`` where ``parent`` indexes the
    same thread's list (``-1`` for a root).
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lists: list[list] = []
        self.counters: dict[str, float] = {}
        self.absorbed: list[dict] = []

    def reset(self) -> None:
        self.__init__()

    def _thread_state(self):
        st = self._local
        if getattr(st, "spans", None) is None:
            st.spans, st.stack = [], []
            with self._lock:
                self._lists.append(st.spans)
        return st

    def bump(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, tag: str, fn):
        collector = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = collector._thread_state()
            idx = len(st.spans)
            st.spans.append(None)
            parent = st.stack[-1] if st.stack else -1
            st.stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                st.spans[idx] = (tag, t0, t1, parent)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def wrap_async(self, tag: str, fn):
        """Coroutine spans interleave on one thread, so they are recorded
        as roots and never become parents."""
        collector = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            st = collector._thread_state()
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                st.spans.append((tag, t0, time.perf_counter(), -1))

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------

    def spans(self) -> list[list]:
        with self._lock:
            return [[s for s in lst if s is not None] for lst in self._lists]

    def aggregate(self) -> dict:
        """``{"tags": {tag: [self_s, total_s, calls]}, "counters": ...}``
        over this process's spans plus every absorbed aggregate."""
        tags: dict[str, list] = {}
        for lst in self.spans():
            children: dict[int, list] = {}
            for tag, t0, t1, parent in lst:
                if parent >= 0:
                    children.setdefault(parent, []).append((t0, t1))
            for i, (tag, t0, t1, _parent) in enumerate(lst):
                row = tags.setdefault(tag, [0.0, 0.0, 0])
                row[0] += self_time(t0, t1, children.get(i, ()))
                row[1] += t1 - t0
                row[2] += 1
        counters = dict(self.counters)
        for doc in self.absorbed:
            for tag, (s, t, c) in doc["tags"].items():
                row = tags.setdefault(tag, [0.0, 0.0, 0])
                row[0] += s
                row[1] += t
                row[2] += c
            for name, v in doc["counters"].items():
                counters[name] = counters.get(name, 0) + v
        return {"tags": tags, "counters": counters}

    def export(self) -> dict:
        """This process's aggregate, then forget it (worker deltas)."""
        doc = self.aggregate()
        self.reset()
        return doc

    def root_intervals(self) -> list[tuple[float, float]]:
        """Every span with no parent, on any thread."""
        return [(t0, t1) for lst in self.spans() for _, t0, t1, p in lst if p < 0]

    def unattributed(self, windows) -> float:
        """Share of the ``(start, end)`` windows no span covers."""
        roots = self.root_intervals()
        total = sum(b - a for a, b in windows)
        covered = sum(covered_length(roots, a, b) for a, b in windows)
        return (total - covered) / total if total > 0 else 0.0


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(collector: Collector, server: bool = False) -> None:
    """Wrap every layer entry point; idempotent per process."""
    import repro.__main__  # noqa: F401  - the CLI's whole import graph
    import repro.runner.engine as engine_mod
    import repro.runner.supervisor as supervisor_mod

    if getattr(engine_mod, "__perfbench_installed__", False):
        return
    engine_mod.__perfbench_installed__ = True

    for mod_name, attr, tag in FUNCTIONS:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        _rebind(original, collector.wrap(tag, original))
    codesize = importlib.import_module("repro.core.codesize")
    for attr in [a for a in vars(codesize) if a.startswith("size_")]:
        original = getattr(codesize, attr)
        if callable(original):
            _rebind(original, collector.wrap("core.size", original))

    trace_mod = importlib.import_module("repro.machine.trace")
    body_hook = trace_mod.body_hook

    def counted_body_hook(compiled, loop, n, initial):
        hook = body_hook(compiled, loop, n, initial)
        if hook is None:
            return None

        def traced(arrays, reg_values):
            out = hook(arrays, reg_values)
            if out is not None:
                collector.bump("machine.traced_runs")
            return out

        return traced

    _rebind(body_hook, counted_body_hook)

    for mod_name, cls_name, meth, tag in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, meth, collector.wrap(tag, getattr(cls, meth)))

    fsync = os.fsync

    def counted_fsync(fd):
        collector.bump("journal.fsyncs")
        return fsync(fd)

    os.fsync = counted_fsync

    # Forked pool workers: start from an empty collector, and ship each
    # unit's aggregate home inside its result envelope.
    pool_worker = engine_mod._pool_worker

    def shipping_pool_worker(task):
        if collector.pid != os.getpid():
            collector.reset()
        envelope = pool_worker(task)
        envelope["perfbench"] = collector.export()
        return envelope

    engine_mod._pool_worker = shipping_pool_worker
    pool_run = supervisor_mod.SupervisedPool.run

    def absorbing_run(self, tasks, on_result=None):
        envelopes = pool_run(self, tasks, on_result)
        for env in envelopes:
            doc = env.pop("perfbench", None)
            if doc is not None:
                collector.absorbed.append(doc)
        return envelopes

    supervisor_mod.SupervisedPool.run = absorbing_run

    if server:
        http_mod = importlib.import_module("repro.server.http")
        cls = http_mod.HttpFrontend
        cls._handle = collector.wrap_async("server", cls._handle)


#: Every per-layer metric, in ``BENCHMARK.json`` order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("setup.modules", "count"),
    ("setup.numpy_loaded", "bool"),
    ("graph.busy_s", "s"),
    ("graph.calls", "count"),
    ("retiming.busy_s", "s"),
    ("retiming.calls", "count"),
    ("retiming.relax_sweeps", "count"),
    ("unfolding.busy_s", "s"),
    ("unfolding.calls", "count"),
    ("codegen.busy_s", "s"),
    ("codegen.programs", "count"),
    ("core.busy_s", "s"),
    ("core.programs", "count"),
    ("machine.compile_s", "s"),
    ("machine.compiles", "count"),
    ("machine.exec_s", "s"),
    ("machine.runs", "count"),
    ("machine.instr", "count"),
    ("machine.trace_steps", "count"),
    ("machine.traced_frac", "frac"),
    ("verify.busy_s", "s"),
    ("verify.calls", "count"),
    ("engine.busy_s", "s"),
    ("engine.self_s", "s"),
    ("engine.worker_util", "frac"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.puts", "count"),
    ("cache.hit_ratio", "frac"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("journal.records", "count"),
    ("journal.fsyncs", "count"),
    ("journal.fsyncs_per_unit", "count"),
    ("journal.append_s", "s"),
    ("server.overhead_ms_p50", "ms"),
    ("server.batches", "count"),
    ("server.batch_mean", "count"),
    ("server.deduped", "count"),
    ("server.shed", "count"),
    ("server.cache_hit_ratio", "frac"),
    ("host.calib_ms", "ms"),
    ("unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


def layer_values(agg: dict, obs_counters: dict) -> dict[str, float]:
    """Per-layer metrics derived from one aggregate and the program's
    own observability counters; metrics of layers that did no work
    read 0."""
    tags = agg["tags"]
    counters = agg["counters"]

    def self_s(*names):
        return sum(tags.get(n, (0.0, 0.0, 0))[0] for n in names)

    def total_s(name):
        return tags.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return tags.get(name, (0.0, 0.0, 0))[2]

    runs = calls("machine.exec")
    return {
        "graph.busy_s": self_s("graph"),
        "graph.calls": calls("graph"),
        "retiming.busy_s": self_s("retiming"),
        "retiming.calls": calls("retiming"),
        "retiming.relax_sweeps": obs_counters.get("kernel.relax_sweeps", 0),
        "unfolding.busy_s": self_s("unfolding"),
        "unfolding.calls": calls("unfolding"),
        "codegen.busy_s": self_s("codegen"),
        "codegen.programs": calls("codegen"),
        "core.busy_s": self_s("core", "core.size"),
        "core.programs": calls("core"),
        "machine.compile_s": self_s("machine.compile"),
        "machine.compiles": calls("machine.compile"),
        "machine.exec_s": self_s("machine.exec"),
        "machine.runs": runs,
        "machine.instr": obs_counters.get("vm.instructions.executed", 0),
        "machine.trace_steps": obs_counters.get("vm.trace.steps", 0),
        "machine.traced_frac": (
            counters.get("machine.traced_runs", 0) / runs if runs else 0.0
        ),
        "verify.busy_s": self_s("verify"),
        "verify.calls": calls("verify"),
        "engine.busy_s": total_s("engine"),
        "engine.self_s": self_s("engine"),
        "cache.get_s": total_s("cache.get"),
        "cache.put_s": total_s("cache.put"),
        "journal.fsyncs": counters.get("journal.fsyncs", 0),
        "journal.append_s": total_s("journal.append"),
    }
