"""The virtual DSP machine: executes loop programs with conditional registers.

This is the substrate that stands in for the paper's TMS320C6000-class
hardware.  It executes a :class:`~repro.codegen.ir.LoopProgram` for a
concrete trip count ``n`` and returns the full array state, enforcing two
invariants that turn execution into a semantic proof:

* **single assignment** — every array instance is written at most once
  (a transformation that computed an instance twice, or whose guards failed
  to disable an out-of-range copy, dies loudly);
* **range discipline** — writes land only in instances ``1 .. n``.

Array reads of never-written instances return deterministic *initial
values* (the loop's live-in state, e.g. ``B[-1]`` in the paper's figures),
so programs are comparable even across transformations that read different
out-of-range instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..codegen.ir import ComputeInstr, DecInstr, Instr, LoopProgram, SetupInstr
from ..graph.dfg import evaluate_op
from ..observability import OBS, span
from . import trace as _tracer
from .registers import ConditionalRegisterFile, MachineError
from .trace import ExecutionTrace

__all__ = ["VMResult", "run_program", "default_initial", "MachineError"]


def default_initial(array: str, index: int) -> int:
    """Deterministic initial value of ``array[index]`` (live-in state).

    A fixed polynomial in a stable per-name seed and the index — the same
    across processes and Python versions (unlike built-in ``hash``).
    """
    seed = 0
    for ch in array:
        seed = (seed * 131 + ord(ch)) % 1_000_003
    return seed * 31 + index * 7 + 1


@dataclass
class VMResult:
    """Outcome of one program execution.

    Attributes
    ----------
    arrays:
        ``array name -> {instance -> value}`` for every *written* instance.
    executed:
        Number of compute instructions that actually executed.
    disabled:
        Number of guarded computes whose predicate was off.
    trace:
        Full execution trace when tracing was requested, else ``None``.
    """

    arrays: dict[str, dict[int, int]]
    executed: int
    disabled: int
    trace: ExecutionTrace | None = None

    def written(self, array: str) -> dict[int, int]:
        """Written instances of one array (empty dict if none)."""
        return self.arrays.get(array, {})


def _check_meta(program: LoopProgram, n: int) -> None:
    meta = program.meta
    min_n = meta.get("min_n")
    if min_n is not None and n < min_n:
        raise MachineError(
            f"{program.name}: trip count {n} below the program's minimum {min_n}"
        )
    factor = meta.get("factor")
    residue = meta.get("residue")
    if factor and residue is not None:
        shift = meta.get("residue_shift", 0)
        if (n - shift) % factor != residue:
            raise MachineError(
                f"{program.name}: trip count {n} has residue "
                f"{(n - shift) % factor} (mod {factor}, shifted by {shift}), "
                f"but the program was specialized for residue {residue}"
            )


#: The emitted-source executor runs loops from this trip count on.  Below
#: it the dispatch interpreter is cheaper than generating the source and,
#: on a code-cache miss, ``compile()``-ing it (docs/PERFORMANCE.md).
EMIT_MIN_TRIP = 64

#: The trace compiler is offered loops from this trip count on.  Below it
#: the emitted code is faster than trace's numpy set-up and per-segment
#: work on every traceable paper benchmark (docs/PERFORMANCE.md).
TRACE_MIN_TRIP = 8192


class _BackendChoice:
    """The loop backend for one run, picked by cost.

    By trip count ``T``: the dispatch interpreter below
    :data:`EMIT_MIN_TRIP`; the emitted code from there; from
    :data:`TRACE_MIN_TRIP` on the trace compiler first, if it accepts the
    body.  A declining backend hands the loop to the next one, down to
    dispatch, which runs everything.

    ``hook`` is the body hook for
    :func:`~repro.machine.dispatch.execute_compiled` (``None`` when the
    trip is too short for a faster backend).  After the run, ``backend``
    names what executed the loop — ``"trace"``, ``"emit"`` or
    ``"dispatch"`` — and ``fallbacks`` lists why a backend the trip count
    selected did not: ``short_trip``, ``step``, ``untraceable``,
    ``trace_declined`` or ``emit_declined``.
    """

    __slots__ = ("compiled", "loop", "n", "initial", "trace_hook", "hook",
                 "backend", "fallbacks")

    def __init__(self, compiled, loop, n: int, initial) -> None:
        self.compiled, self.loop, self.n, self.initial = compiled, loop, n, initial
        self.backend = "dispatch"
        self.fallbacks: list[str] = []
        self.hook = None
        self.trace_hook = None
        trips = loop.trip_count(n)
        if trips < EMIT_MIN_TRIP:
            self.fallbacks.append("short_trip")
            return
        self.hook = self._run
        if trips < TRACE_MIN_TRIP or not _tracer._trace_enabled():
            return  # trace not offered (or off): emitted code, no fallback
        if loop.step != 1:
            self.fallbacks.append("step")
            return
        self.trace_hook = _tracer.body_hook(compiled, loop, n, initial)
        if self.trace_hook is None:
            self.fallbacks.append("untraceable")

    def _run(self, arrays, reg_values):
        if self.trace_hook is not None:
            out = self.trace_hook(arrays, reg_values)
            if out is not None:
                self.backend = "trace"
                return out
            self.fallbacks.append("trace_declined")
        from .emit import body_hook

        hook = body_hook(self.compiled, self.loop, self.n, self.initial)
        out = hook(arrays, reg_values) if hook is not None else None
        if out is None:
            self.fallbacks.append("emit_declined")
            return None
        self.backend = "emit"
        return out


def run_program(
    program: LoopProgram,
    n: int,
    initial: Callable[[str, int], int] = default_initial,
    trace: bool = False,
    register_capacity: int | None = None,
    dispatch: bool = True,
) -> VMResult:
    """Execute ``program`` with trip count ``n`` and return the array state.

    ``register_capacity`` bounds the conditional register file (see
    :class:`~repro.machine.registers.ConditionalRegisterFile`);
    ``initial`` supplies live-in array values.

    By default execution goes through the pre-compiled threaded-dispatch
    engine (:mod:`repro.machine.dispatch`), which is differential-tested
    bit-identical to the reference interpreter.  Its loop runs on the
    cheapest backend for the trip count: the dispatch interpreter below
    :data:`EMIT_MIN_TRIP` iterations, the emitted-source executor
    (:mod:`repro.machine.emit`) above, and from :data:`TRACE_MIN_TRIP` on
    the trace compiler (:mod:`repro.machine.trace`) when it accepts the
    body.  ``dispatch=False`` forces the reference interpreter;
    ``trace=True`` implies it (tracing hooks live only there, and tracing
    cost dwarfs interpretation cost anyway).
    """
    if n < 0:
        raise MachineError(f"trip count must be >= 0, got {n}")
    _check_meta(program, n)

    if dispatch and not trace:
        from .dispatch import compile_program, execute_compiled

        if register_capacity is not None and register_capacity < 0:
            raise MachineError(f"capacity must be >= 0, got {register_capacity}")
        compiled = compile_program(program)
        choice = _BackendChoice(compiled, program.loop, n, initial)
        with span("vm.run", program=program.name, n=n) as sp:
            try:
                arrays, executed, disabled = execute_compiled(
                    compiled,
                    n,
                    initial,
                    {},
                    register_capacity,
                    program.loop.iter_indices(n),
                    body_hook=choice.hook,
                )
            finally:
                # Counted even when the run raises: no fallback goes unseen.
                sp.set(backend=choice.backend)
                if OBS.enabled:
                    m = OBS.metrics
                    m.counter(
                        f"vm.backend.{choice.backend}", "runs per loop backend"
                    ).inc()
                    for reason in choice.fallbacks:
                        m.counter(
                            f"vm.fallback.{reason}",
                            "runs a selected loop backend declined",
                        ).inc()
            sp.set(executed=executed, disabled=disabled)
        if OBS.enabled:
            m = OBS.metrics
            m.counter(
                "vm.instructions.executed", "compute instructions executed"
            ).inc(executed)
            m.counter(
                "vm.instructions.disabled", "guarded computes whose predicate was off"
            ).inc(disabled)
            m.histogram(
                "vm.run.instructions", "executed instructions per program run"
            ).observe(executed)
        return VMResult(arrays=arrays, executed=executed, disabled=disabled, trace=None)

    regs = ConditionalRegisterFile(trip_count=n, capacity=register_capacity)
    arrays: dict[str, dict[int, int]] = {}
    tr = ExecutionTrace() if trace else None
    executed = 0
    disabled = 0

    def read(array: str, index: int) -> int:
        store = arrays.get(array)
        if store is not None and index in store:
            return store[index]
        return initial(array, index)

    def execute(instr: Instr, i: int | None, region: str) -> None:
        nonlocal executed, disabled
        if isinstance(instr, SetupInstr):
            regs.setup(instr.register, instr.init)
            return
        if isinstance(instr, DecInstr):
            regs.decrement(instr.register, instr.amount)
            return
        assert isinstance(instr, ComputeInstr)
        if not regs.is_active(instr.guard):
            disabled += 1
            if tr is not None:
                tr.disabled += 1
            return
        dest_index = instr.dest.index.resolve(i, n)
        if not 1 <= dest_index <= n:
            raise MachineError(
                f"{program.name}: write to {instr.dest.array}[{dest_index}] "
                f"outside 1..{n} (instruction: {instr})"
            )
        store = arrays.setdefault(instr.dest.array, {})
        if dest_index in store:
            raise MachineError(
                f"{program.name}: {instr.dest.array}[{dest_index}] computed twice "
                f"(instruction: {instr})"
            )
        values = [read(s.array, s.index.resolve(i, n)) for s in instr.srcs]
        store[dest_index] = evaluate_op(instr.op, instr.imm, values, dest_index)
        executed += 1
        if tr is not None:
            tr.record(instr.dest.array, dest_index, region, i)

    # One span per run and bulk counter updates at the end — the per-
    # instruction loop carries no observability cost.
    with span("vm.run", program=program.name, n=n) as sp:
        for instr in program.pre:
            execute(instr, None, "pre")
        for i in program.loop.iter_indices(n):
            for instr in program.loop.body:
                execute(instr, i, "body")
        for instr in program.post:
            execute(instr, None, "post")
        sp.set(executed=executed, disabled=disabled)

    if OBS.enabled:
        m = OBS.metrics
        m.counter(
            "vm.instructions.executed", "compute instructions executed"
        ).inc(executed)
        m.counter(
            "vm.instructions.disabled", "guarded computes whose predicate was off"
        ).inc(disabled)
        m.histogram(
            "vm.run.instructions", "executed instructions per program run"
        ).observe(executed)

    return VMResult(arrays=arrays, executed=executed, disabled=disabled, trace=tr)
