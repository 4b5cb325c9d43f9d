"""Differential battery for the emitted-source loop executor.

The contract is the dispatch engine's: the same arrays, the same
executed/disabled counters and the same exceptions with the same messages
as the reference interpreter (``run_program(..., dispatch=False)``).  The
emitter proves at loop entry that no write leaves ``1..n``, no instance is
written twice and every register is set; where it cannot, it declines with
machine state untouched and dispatch raises.  The battery runs the paper
benchmarks under every transform and random programs in four forms at trip
counts around the emit crossover and at n=1000, then the error shapes, the
backend/fallback counters and the code cache.
"""

from __future__ import annotations

import copy
import random
import sys
import threading

import pytest

from repro import observability
from repro.codegen import original_loop, pipelined_loop, retimed_unfolded_loop
from repro.codegen.ir import (
    ComputeInstr,
    DecInstr,
    Guard,
    IndexBase,
    IndexExpr,
    Loop,
    LoopProgram,
    Operand,
    SetupInstr,
)
from repro.core.csr import csr_pipelined_loop
from repro.graph import OpKind
from repro.graph.generators import random_dfg
from repro.machine import MachineError, emit, vm
from repro.machine.vm import run_program
from repro.retiming import minimize_cycle_period
from repro.runner.difftest import DIFFTEST_TRANSFORMS
from repro.runner.jobs import _program_for
from repro.workloads import figure8, get_workload
from repro.workloads.registry import BENCHMARKS

_FACTORLESS = {"original", "pipelined", "csr-pipelined"}


@pytest.fixture
def obs():
    observability.OBS.reset()
    observability.enable()
    yield observability.OBS
    observability.disable()
    observability.OBS.reset()


def _counters(obs) -> dict:
    return {
        name: value
        for name, value in obs.metrics.as_dict()["counters"].items()
        if name.startswith(("vm.backend.", "vm.fallback."))
    }


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - parity check needs everything
        return None, exc


def _assert_parity(program, n, **kwargs):
    ref, ref_exc = _outcome(lambda: run_program(program, n, dispatch=False, **kwargs))
    new, new_exc = _outcome(lambda: run_program(program, n, **kwargs))
    if ref_exc is not None or new_exc is not None:
        assert type(ref_exc) is type(new_exc), (ref_exc, new_exc)
        assert str(ref_exc) == str(new_exc)
        return None
    assert new.arrays == ref.arrays
    assert new.executed == ref.executed
    assert new.disabled == ref.disabled
    return new


def _valid(program, n: int) -> bool:
    meta = program.meta
    if n < (meta.get("min_n") or 0):
        return False
    factor, residue = meta.get("factor"), meta.get("residue")
    if factor and residue is not None:
        return (n - meta.get("residue_shift", 0)) % factor == residue
    return True


def _n_for_trips(program, trips: int) -> int:
    """The smallest runnable ``n`` whose loop makes at least ``trips`` trips."""
    n = max(program.meta.get("min_n") or 0, 0)
    while not (_valid(program, n) and program.loop.trip_count(n) >= trips):
        n += 1
    return n


def _crossover_ns(program) -> list[int]:
    """Trip counts just below, at and above the emit crossover, and n=1000."""
    cut = vm.EMIT_MIN_TRIP
    ns = {_n_for_trips(program, t) for t in (cut - 1, cut, cut + 1)}
    n = 1000
    while not _valid(program, n):
        n += 1
    ns.add(n)
    return sorted(ns)


def _random_forms(g, rng):
    yield original_loop(g)
    _, r = minimize_cycle_period(g)
    yield pipelined_loop(g, r)
    yield csr_pipelined_loop(g, r)
    yield retimed_unfolded_loop(g, r, rng.choice((2, 3)))


class TestEmitDifferential:
    def test_paper_benchmarks_every_transform(self, obs):
        runs = long_runs = 0
        for name in BENCHMARKS:
            g = get_workload(name)
            for transform in DIFFTEST_TRANSFORMS:
                if transform == "orders":
                    continue  # two programs per unit: covered by its parts
                for f in (1,) if transform in _FACTORLESS else (2, 3):
                    program, _n, _ = _program_for(g, transform, f, 1000)
                    for n in _crossover_ns(program):
                        _assert_parity(program, n)
                        runs += 1
                        long_runs += program.loop.trip_count(n) >= vm.EMIT_MIN_TRIP
        assert runs >= 400
        # No trip reaches TRACE_MIN_TRIP: every long loop ran emitted code.
        assert _counters(obs) == {
            "vm.backend.emit": long_runs,
            "vm.backend.dispatch": runs - long_runs,
            "vm.fallback.short_trip": runs - long_runs,
        }

    def test_random_programs_four_forms(self, obs):
        rng = random.Random(0xE417)
        runs = long_runs = 0
        for k in range(12):
            g = random_dfg(rng, num_nodes=rng.randint(3, 10), name=f"e{k}")
            for program in _random_forms(g, rng):
                for n in _crossover_ns(program):
                    _assert_parity(program, n)
                    runs += 1
                    long_runs += program.loop.trip_count(n) >= vm.EMIT_MIN_TRIP
        assert runs >= 150
        assert _counters(obs)["vm.backend.emit"] == long_runs

    def test_custom_initial(self, obs):
        g = figure8()
        _, r = minimize_cycle_period(g)
        for program in (original_loop(g), csr_pipelined_loop(g, r)):
            _assert_parity(program, 300, initial=lambda a, i: (len(a) * 1000 + i) % 97)
            _assert_parity(program, 300, initial=lambda a, i: -3 * i)
        assert _counters(obs)["vm.backend.emit"] == 4

    def test_raising_initial(self):
        def bad(array, index):
            raise ValueError(f"no live-in for {array}[{index}]")

        _assert_parity(original_loop(figure8()), 200, initial=bad)


def _loop(body, start=1, end_off=0, step=1):
    return Loop(
        start=IndexExpr(IndexBase.CONST, start),
        end=IndexExpr(IndexBase.N, end_off),
        step=step,
        body=tuple(body),
    )


def _compute(array, off, op=OpKind.SOURCE, srcs=(), guard=None, imm=5):
    return ComputeInstr(
        dest=Operand(array, IndexExpr(IndexBase.I, off)),
        op=op,
        imm=imm,
        srcs=tuple(srcs),
        guard=guard,
    )


def _read(array, off):
    return Operand(array, IndexExpr(IndexBase.I, off))


class TestEmitErrorParity:
    """Each shape runs at a trip count where the emitted code is chosen;
    each must end in the reference interpreter's exact error."""

    N = 200

    def _assert_declined(self, program, obs, reason="emit_declined"):
        _assert_parity(program, self.N)
        counters = _counters(obs)
        assert counters.get(f"vm.fallback.{reason}") == 1, counters
        assert counters.get("vm.backend.dispatch") == 1, counters

    def test_out_of_range_write(self, obs):
        p = LoopProgram("oob", (), _loop([_compute("A", 2)]), ())
        self._assert_declined(p, obs)
        with pytest.raises(MachineError, match=r"write to A\[201\] outside 1..200"):
            run_program(p, self.N)

    def test_double_write_in_body(self, obs):
        body = [_compute("A", 0), _compute("A", 1, imm=7)]
        p = LoopProgram("dup", (), _loop(body, end_off=-1), ())
        self._assert_declined(p, obs)
        with pytest.raises(MachineError, match=r"A\[2\] computed twice"):
            run_program(p, self.N)

    def test_double_write_over_pre_region(self, obs):
        pre = (
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.CONST, 150)),
                op=OpKind.SOURCE,
                imm=1,
                srcs=(),
            ),
        )
        p = LoopProgram("pre-dup", pre, _loop([_compute("A", 0)]), ())
        self._assert_declined(p, obs)
        with pytest.raises(MachineError, match=r"A\[150\] computed twice"):
            run_program(p, self.N)

    def test_register_read_before_setup(self, obs):
        p = LoopProgram("unset", (), _loop([_compute("A", 0, guard=Guard("p"))]), ())
        self._assert_declined(p, obs)
        with pytest.raises(MachineError, match="read of register 'p' before setup"):
            run_program(p, self.N)

    def test_decrement_before_setup(self, obs):
        body = [_compute("A", 0), DecInstr("q", 1)]
        p = LoopProgram("undec", (), _loop(body), ())
        self._assert_declined(p, obs)
        with pytest.raises(MachineError, match="decrement of register 'q' before setup"):
            run_program(p, self.N)

    def test_setup_in_body(self, obs):
        body = [SetupInstr("p", 0), _compute("A", 0, guard=Guard("p"))]
        p = LoopProgram("setup-body", (), _loop(body), ())
        self._assert_declined(p, obs)

    def test_malformed_arity(self, obs):
        body = [_compute("A", 0, op=OpKind.MAC, srcs=[_read("A", -1)])]
        p = LoopProgram("bad-mac", (), _loop(body), ())
        self._assert_declined(p, obs)

    def test_guarded_out_of_range_instance_stays_disabled(self, obs):
        """A write that would leave 1..n only on disabled iterations is
        legal: the window proof must not decline it."""
        pre = (SetupInstr("p", -1),)  # off on the last iteration only
        body = [_compute("A", 1, guard=Guard("p")), DecInstr("p", 1)]
        p = LoopProgram("edge", pre, _loop(body), ())
        result = _assert_parity(p, self.N)
        assert result is not None and result.disabled == 1
        assert _counters(obs) == {"vm.backend.emit": 1}

    def test_zero_trip(self, monkeypatch, obs):
        monkeypatch.setattr(vm, "EMIT_MIN_TRIP", 0)
        p = LoopProgram("empty", (), _loop([_compute("A", 0)], start=5, end_off=-10), ())
        result = _assert_parity(p, 7)
        assert result is not None and result.executed == 0
        assert _counters(obs)["vm.backend.emit"] == 1

    @pytest.mark.parametrize("amount", [1, 2, 0, -1, -3])
    def test_guard_windows_any_decrement(self, amount, monkeypatch):
        """Windows from decrements of either sign, or none, and guards
        read before and after the decrement in the same iteration."""
        monkeypatch.setattr(vm, "EMIT_MIN_TRIP", 0)
        for init in (-250, -40, 0, 3, 90, 400):
            pre = (SetupInstr("p", init),)
            body = [
                _compute("A", 0, guard=Guard("p", 2)),
                DecInstr("p", amount),
                _compute("B", 0, op=OpKind.COPY, srcs=[_read("A", 0)], guard=Guard("p")),
                _compute("C", 0, op=OpKind.ADD, srcs=[_read("B", 0), _read("C", -1)]),
            ]
            post = (
                ComputeInstr(
                    dest=Operand("D", IndexExpr(IndexBase.CONST, 1)),
                    op=OpKind.SOURCE,
                    imm=0,
                    srcs=(),
                    guard=Guard("p"),
                ),
            )
            p = LoopProgram("win", pre, _loop(body), post)
            for n in (1, 2, 37, 150):
                _assert_parity(p, n)

    def test_unfolded_writers_share_an_array(self, monkeypatch):
        """Step-3 body with three writers of one array (distinct residues)
        plus a constant-cell and an n-relative read."""
        monkeypatch.setattr(vm, "EMIT_MIN_TRIP", 0)
        body = [
            _compute("A", k, op=OpKind.MAC, imm=k,
                     srcs=[_read("A", k - 1), Operand("K", IndexExpr(IndexBase.CONST, 2)),
                           Operand("K", IndexExpr(IndexBase.N, -1))])
            for k in range(3)
        ]
        p = LoopProgram("unf", (), _loop(body, end_off=-2, step=3), ())
        for n in (3, 4, 5, 96, 301):
            _assert_parity(p, n)


class TestBackendCounters:
    def test_pinned_backend_and_fallback_counts(self, obs, monkeypatch):
        """One fixed program set hits every backend and every fallback."""
        monkeypatch.delenv("REPRO_VM_TRACE", raising=False)
        g = figure8()
        _, r = minimize_cycle_period(g)
        csr = csr_pipelined_loop(g, r)
        long_n = _n_for_trips(csr, vm.TRACE_MIN_TRIP)
        unfolded = retimed_unfolded_loop(g, r, 2)
        fixed_cell = LoopProgram(
            "fixed-cell",
            (),
            _loop([
                _compute("A", 0),
                _compute("B", 0, op=OpKind.COPY,
                         srcs=[Operand("A", IndexExpr(IndexBase.CONST, 1))]),
            ]),
            (),
        )
        nonaffine = LoopProgram(
            "nonaffine",
            (),
            _loop([_compute("X", 0, op=OpKind.MUL, imm=3,
                            srcs=[_read("X", -1), _read("X", -2)])]),
            (),
        )
        oob = LoopProgram("oob", (), _loop([_compute("A", 2)]), ())

        run_program(csr, 20)  # dispatch: short_trip
        run_program(csr, 200)  # emit
        run_program(csr, long_n)  # trace
        run_program(unfolded, _n_for_trips(unfolded, vm.TRACE_MIN_TRIP))  # step
        run_program(fixed_cell, vm.TRACE_MIN_TRIP)  # untraceable
        run_program(nonaffine, vm.TRACE_MIN_TRIP)  # trace_declined
        with pytest.raises(MachineError):
            run_program(oob, 200)  # emit_declined
        assert _counters(obs) == {
            "vm.backend.dispatch": 2,
            "vm.backend.emit": 4,
            "vm.backend.trace": 1,
            "vm.fallback.short_trip": 1,
            "vm.fallback.step": 1,
            "vm.fallback.untraceable": 1,
            "vm.fallback.trace_declined": 1,
            "vm.fallback.emit_declined": 1,
        }

    def test_span_names_the_backend(self, obs):
        g = figure8()
        _, r = minimize_cycle_period(g)
        csr = csr_pipelined_loop(g, r)
        run_program(csr, 20)
        run_program(csr, 200)
        backends = [s.attributes["backend"] for s in obs.tracer.roots
                    if s.name == "vm.run"]
        assert backends == ["dispatch", "emit"]

    def test_kill_switch_moves_trace_runs_to_emit(self, obs, monkeypatch):
        g = figure8()
        _, r = minimize_cycle_period(g)
        csr = csr_pipelined_loop(g, r)
        monkeypatch.setenv("REPRO_VM_TRACE", "0")
        _assert_parity(csr, _n_for_trips(csr, vm.TRACE_MIN_TRIP))
        assert _counters(obs) == {"vm.backend.emit": 1}


class TestCodeCache:
    def test_same_content_compiles_once(self, monkeypatch):
        compiled = []

        def counting_compile(source, *args):
            compiled.append(source)
            return compile(source, *args)

        monkeypatch.setattr(emit, "compile", counting_compile, raising=False)
        g = get_workload("iir")
        _, r = minimize_cycle_period(g)
        emit._CODE_CACHE.clear()
        for _ in range(3):  # a new program object each time
            _assert_parity(csr_pipelined_loop(g, r), 300)
        assert len(compiled) == 1
        assert list(emit._CODE_CACHE) == compiled

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(emit, "CODE_CACHE_SIZE", 2)
        emit._CODE_CACHE.clear()
        for name in ("iir", "allpole", "elliptic"):
            g = get_workload(name)
            _, r = minimize_cycle_period(g)
            _assert_parity(csr_pipelined_loop(g, r), 300)
        assert len(emit._CODE_CACHE) == 2

    def test_concurrent_runs_share_code_and_plans(self, monkeypatch):
        """Threads (the server's batch executor) build plans and fill the
        code cache at once; a two-entry cache forces evictions meanwhile."""
        monkeypatch.setattr(emit, "CODE_CACHE_SIZE", 2)
        emit._CODE_CACHE.clear()
        programs = []
        for name in ("iir", "allpole", "elliptic"):
            g = get_workload(name)
            _, r = minimize_cycle_period(g)
            programs.append(csr_pipelined_loop(g, r))
        want = [run_program(p, 150, dispatch=False) for p in programs]
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(12):
                    k = rng.randrange(len(programs))
                    got = run_program(copy.copy(programs[k]), 150)
                    assert (got.arrays, got.executed, got.disabled) == (
                        want[k].arrays, want[k].executed, want[k].disabled
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(emit._CODE_CACHE) <= 2
