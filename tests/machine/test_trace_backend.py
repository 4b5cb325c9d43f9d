"""Differential battery for the trace-compiling vector VM backend.

The contract is identical to the dispatch engine's: total behavioral
equivalence with the reference interpreter — same arrays, same
executed/disabled counters, same exceptions with the same messages — with
the extra twist that the trace backend silently falls back to the
interpreter whenever it cannot *prove* the loop body vectorizable, so the
battery deliberately mixes traceable programs (guarded CSR bodies, affine
recurrences) with fallback shapes (multi-writer unfolded bodies, malformed
arities, out-of-range writes, zero trip counts).
"""

from __future__ import annotations

import random

import pytest

from repro import observability
from repro.codegen import original_loop, pipelined_loop, retimed_unfolded_loop
from repro.codegen.ir import (
    ComputeInstr,
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
from repro.machine import vm
from repro.machine.dispatch import compile_program
from repro.machine.trace import body_hook
from repro.machine.vm import run_program
from repro.machine.vliw_vm import run_packed
from repro.retiming import minimize_cycle_period
from repro.schedule.resources import ResourceModel
from repro.workloads import WORKLOADS

_MACHINE = ResourceModel(units={"alu": 2, "mul": 1})


@pytest.fixture(autouse=True)
def _offer_trace_every_loop(monkeypatch):
    monkeypatch.setattr(vm, "EMIT_MIN_TRIP", 0)
    monkeypatch.setattr(vm, "TRACE_MIN_TRIP", 0)


@pytest.fixture
def trace_on(monkeypatch):
    """Trace switched on even where the suite runs with REPRO_VM_TRACE=0,
    for the tests that assert trace itself ran."""
    monkeypatch.delenv("REPRO_VM_TRACE", raising=False)


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - parity check needs everything
        return None, exc


def _assert_trace_parity(program, n, monkeypatch=None, **kwargs):
    """Reference vs dispatch-with-trace vs dispatch-without-trace."""
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


def _assert_packed_parity(program, n):
    ref, ref_exc = _outcome(lambda: run_packed(program, n, _MACHINE, dispatch=False))
    new, new_exc = _outcome(lambda: run_packed(program, n, _MACHINE))
    if ref_exc is not None or new_exc is not None:
        assert type(ref_exc) is type(new_exc), (ref_exc, new_exc)
        assert str(ref_exc) == str(new_exc)
        return None
    assert new.arrays == ref.arrays
    assert new.cycles == ref.cycles
    assert new.executed == ref.executed
    assert new.disabled == ref.disabled
    return new


def _program_variants(g, rng):
    """Original, software-pipelined and CSR forms (CSR exercises guards)."""
    yield original_loop(g)
    _, r = minimize_cycle_period(g)
    yield pipelined_loop(g, r)
    yield csr_pipelined_loop(g, r)
    # Unfolded bodies write each array from several instructions per
    # iteration — a guaranteed static-fallback shape.
    yield retimed_unfolded_loop(g, r, rng.choice((2, 3)))


class TestTraceDifferential:
    def test_random_program_battery(self):
        """200+ program/trip-count differential runs, trace vs reference."""
        rng = random.Random(0xC0DE)
        runs = 0
        for i in range(20):
            g = random_dfg(rng, num_nodes=rng.randint(3, 12), name=f"t{i}")
            for p in _program_variants(g, rng):
                min_n = p.meta.get("min_n", 1) or 1
                factor = p.meta.get("factor") or 1
                shift = p.meta.get("residue_shift", 0)
                for k in (0, 1, rng.randint(2, 5)):
                    n = min_n + k * factor
                    if factor > 1 and (n - shift) % factor != (min_n - shift) % factor:
                        continue
                    _assert_trace_parity(p, n)
                    runs += 1
        assert runs >= 200

    def test_registry_workloads_sequential(self, bench_graph):
        _, r = minimize_cycle_period(bench_graph)
        p = csr_pipelined_loop(bench_graph, r)
        min_n = p.meta.get("min_n", 1) or 1
        for n in (min_n, min_n + 1, min_n + 29):
            _assert_trace_parity(p, n)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_registry_workloads_packed(self, name):
        g = WORKLOADS[name]()
        _, r = minimize_cycle_period(g)
        p = csr_pipelined_loop(g, r)
        min_n = p.meta.get("min_n", 1) or 1
        for n in (min_n, min_n + 23):
            _assert_packed_parity(p, n)

    def test_random_packed_battery(self):
        rng = random.Random(0xF00D)
        for i in range(12):
            g = random_dfg(rng, num_nodes=rng.randint(3, 9), name=f"pk{i}")
            p = original_loop(g)
            min_n = p.meta.get("min_n", 1) or 1
            _assert_packed_parity(p, min_n + rng.randint(0, 9))

    def test_zero_trip_count(self, fig8):
        """An empty trip must leave pre/post semantics untouched."""
        _, r = minimize_cycle_period(fig8)
        for p in (original_loop(fig8), csr_pipelined_loop(fig8, r)):
            lo = p.loop.start.resolve(None, 0)
            hi = p.loop.end.resolve(None, 0)
            min_n = p.meta.get("min_n", 0) or 0
            if hi < lo and min_n == 0:
                _assert_trace_parity(p, 0)

    def test_custom_initial_values(self, fig8):
        """A non-default initial function must flow through the vector
        prestate path bit-identically."""
        p = original_loop(fig8)
        _assert_trace_parity(p, 9, initial=lambda a, i: (len(a) * 1000 + i) % 97)
        _assert_trace_parity(p, 9, initial=lambda a, i: -3 * i)  # negative values

    def test_raising_initial_falls_back(self, fig8):
        """An initial function that raises must surface the interpreter's
        exception, not a vector-path artifact."""

        def bad(array, index):
            raise ValueError(f"no live-in for {array}[{index}]")

        p = original_loop(fig8)
        _assert_trace_parity(p, 5, initial=bad)


class TestTraceFallbackShapes:
    """Statically untraceable bodies must be *detected*, not mis-executed."""

    def _loop(self, body, start=1, end_off=0):
        return Loop(
            start=IndexExpr(IndexBase.CONST, start),
            end=IndexExpr(IndexBase.N, end_off),
            step=1,
            body=tuple(body),
        )

    def test_setup_inside_body(self):
        body = [
            SetupInstr(register="p", init=0),
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 0)),
                op=OpKind.SOURCE,
                imm=5,
                srcs=(),
                guard=Guard("p"),
            ),
        ]
        p = LoopProgram(name="setup-body", pre=(), loop=self._loop(body), post=())
        assert body_hook(compile_program(p), p.loop, 6, None) is None
        _assert_trace_parity(p, 6)

    def test_constant_dest_in_body(self):
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.CONST, 1)),
                op=OpKind.SOURCE,
                imm=5,
                srcs=(),
            )
        ]
        p = LoopProgram(name="const-dest", pre=(), loop=self._loop(body), post=())
        assert body_hook(compile_program(p), p.loop, 1, None) is None
        _assert_trace_parity(p, 1)  # n=1: single write, no double-write error
        _assert_trace_parity(p, 3)  # n=3: double write must raise identically

    def test_malformed_arity_falls_back(self):
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 0)),
                op=OpKind.MAC,  # MAC needs >= 2 inputs: DFGError at exec
                imm=5,
                srcs=(Operand("A", IndexExpr(IndexBase.I, -1)),),
            )
        ]
        p = LoopProgram(name="bad-mac", pre=(), loop=self._loop(body), post=())
        assert body_hook(compile_program(p), p.loop, 4, None) is None
        _assert_trace_parity(p, 4)

    def test_out_of_range_write_error_parity(self):
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 2)),  # writes n+2
                op=OpKind.SOURCE,
                imm=5,
                srcs=(),
            )
        ]
        p = LoopProgram(name="oob-body", pre=(), loop=self._loop(body), post=())
        _assert_trace_parity(p, 4)

    def test_nonaffine_recurrence_falls_back_correctly(self):
        """x[i] = x[i-1] * x[i-2]: a cyclic component whose recurrence is
        state * state — must run through the interpreter, bit-identically."""
        body = [
            ComputeInstr(
                dest=Operand("X", IndexExpr(IndexBase.I, 0)),
                op=OpKind.MUL,
                imm=3,
                srcs=(
                    Operand("X", IndexExpr(IndexBase.I, -1)),
                    Operand("X", IndexExpr(IndexBase.I, -2)),
                ),
            )
        ]
        p = LoopProgram(name="nonaffine", pre=(), loop=self._loop(body), post=())
        result = _assert_trace_parity(p, 12)
        assert result is not None and result.executed == 12

    def test_affine_self_recurrence_is_traced(self, trace_on):
        """x[i] = 7*x[i-1] + 11: the simplest cyclic-scan case."""
        body = [
            ComputeInstr(
                dest=Operand("X", IndexExpr(IndexBase.I, 0)),
                op=OpKind.MAC,
                imm=11,
                srcs=(
                    Operand("X", IndexExpr(IndexBase.I, -1)),
                    Operand("C", IndexExpr(IndexBase.CONST, 1)),
                ),
            )
        ]
        p = LoopProgram(name="affine-rec", pre=(), loop=self._loop(body), post=())
        hook = body_hook(compile_program(p), p.loop, 500, run_program.__defaults__[0])
        assert hook is not None
        _assert_trace_parity(p, 500)

    def test_guard_windows_cover_never_and_always(self):
        """Guards that are always-off, always-on and windowed mid-trip."""
        pre = [
            SetupInstr(register="off", init=5),  # never in (-n, 0]
            SetupInstr(register="on", init=0),  # always active (never dec'd)
            SetupInstr(register="win", init=3),  # activates at iteration 4
        ]
        body = [
            ComputeInstr(
                dest=Operand("A", IndexExpr(IndexBase.I, 0)),
                op=OpKind.SOURCE,
                imm=2,
                srcs=(),
                guard=Guard("off"),
            ),
            ComputeInstr(
                dest=Operand("B", IndexExpr(IndexBase.I, 0)),
                op=OpKind.SOURCE,
                imm=4,
                srcs=(),
                guard=Guard("on"),
            ),
            ComputeInstr(
                dest=Operand("C", IndexExpr(IndexBase.I, 0)),
                op=OpKind.COPY,
                imm=1,
                srcs=(Operand("B", IndexExpr(IndexBase.I, 0)),),
                guard=Guard("win", offset=1),
            ),
            ComputeInstr(
                dest=Operand("D", IndexExpr(IndexBase.I, 0)),
                op=OpKind.COPY,
                imm=0,
                srcs=(Operand("C", IndexExpr(IndexBase.I, -1)),),
                guard=Guard("win"),
            ),
        ]
        from repro.codegen.ir import DecInstr

        body.append(DecInstr(register="win", amount=1))
        p = LoopProgram(
            name="windows", pre=tuple(pre), loop=self._loop(body), post=()
        )
        result = _assert_trace_parity(p, 9)
        assert result is not None
        assert result.disabled > 0  # the windows really masked instances


class TestTraceSwitchesAndCounters:
    def test_kill_switch(self, fig8, monkeypatch, trace_on):
        """REPRO_VM_TRACE=0 must disable the backend (hook is None) while
        results stay identical through the interpreter."""
        _, r = minimize_cycle_period(fig8)
        p = csr_pipelined_loop(fig8, r)
        compiled = compile_program(p)
        n = (p.meta.get("min_n", 1) or 1) + 10
        enabled = run_program(p, n)
        assert body_hook(compiled, p.loop, n, run_program.__defaults__[0]) is not None
        monkeypatch.setenv("REPRO_VM_TRACE", "0")
        assert body_hook(compiled, p.loop, n, run_program.__defaults__[0]) is None
        disabled = run_program(p, n)
        assert disabled.arrays == enabled.arrays
        assert disabled.executed == enabled.executed
        assert disabled.disabled == enabled.disabled

    def test_trace_steps_counter(self, fig8, trace_on):
        """A traced run must report vm.trace.steps and the same
        vm.instructions.* totals as the interpreter."""
        _, r = minimize_cycle_period(fig8)
        p = csr_pipelined_loop(fig8, r)
        n = (p.meta.get("min_n", 1) or 1) + 15
        observability.enable()
        try:
            run_program(p, n)
            counters = observability.OBS.metrics.as_dict()["counters"]
        finally:
            observability.disable()
        assert counters.get("vm.trace.steps", 0) > 0
        ref = run_program(p, n, dispatch=False)
        assert counters["vm.instructions.executed"] == ref.executed
        assert counters["vm.instructions.disabled"] == ref.disabled

    def test_trace_flag_still_uses_reference_path(self, fig8):
        p = original_loop(fig8)
        traced = run_program(p, 9, trace=True)
        assert traced.trace is not None
        vectored = run_program(p, 9)
        assert vectored.arrays == traced.arrays
