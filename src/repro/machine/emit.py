"""Emitted-source loop executor for compiled sequential loop bodies.

The dispatch interpreter (:mod:`repro.machine.dispatch`) walks a list of
instruction tuples once per iteration and pays, per instruction, a kind
switch, a guard lookup, index resolution, two dictionary probes for the
single-assignment and range checks and a closure call for the operation.
None of that depends on the iteration.  This module turns one compiled
loop body into straight-line Python source, compiles it once, and runs the
whole trip in one call:

* one statement per compute instruction, with ``i + offset`` indices, the
  operation's arithmetic (copied from :func:`~repro.machine.dispatch.
  _op_closure`) and, for the default live-in state, the
  :func:`~repro.machine.vm.default_initial` polynomial inlined as constants;
* a value written earlier in the same iteration, on a path that always ran,
  is read back from a local variable instead of its array;
* consecutive computes whose guards always agree share one ``if``.

Guards ``-n < p + offset <= 0`` read a register that only moves by the
body's constant decrements, so each guard's active iterations form one
exact window, computed when the loop is entered.  The emitted code tests
the loop variable against that window, and the registers' final values
are written back once (the body-order decrements are folded into each
window's constant).  The same windows prove, before any state is touched,
that every active write lands in ``1..n`` and that no array instance is
written twice — by two body writers or over a value the pre region left.
Where that proof fails, or a register is unset at loop entry, the hook
returns ``None`` with machine state untouched and the dispatch interpreter
runs the loop and raises its error exactly as it always does.  Bodies the
emitter does not handle at all (a ``setup`` inside the loop, a destination
index that does not move with ``i``, a malformed operation arity) are
rejected statically in the same way.

Code objects are cached by their source text in a small bounded LRU, so
rebuilding the same program (a sweep's next pass, a server's next request)
costs no ``compile()``.  The executable plan for one compiled program is
tied weakly to its :class:`~repro.machine.dispatch.CompiledProgram`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

from ..graph.dfg import MODULUS, OpKind
from .dispatch import _COMPUTE, _CONST, _DEC, _LOOP, _TRIP
from .vm import default_initial

__all__ = ["body_hook"]

#: Distinct emitted sources whose code objects stay compiled.  The six
#: paper benchmarks under every transform at f in {2, 3} emit 86.
CODE_CACHE_SIZE = 256

_CODE_CACHE: OrderedDict[str, object] = OrderedDict()
_CODE_LOCK = threading.Lock()

#: Per-compiled-program plans: ``{custom_initial: _Plan or None}``.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_PLANS_LOCK = threading.Lock()

_ARITY_OK = {
    OpKind.ADD: lambda k: True,
    OpKind.SUB: lambda k: True,
    OpKind.MUL: lambda k: True,
    OpKind.MAC: lambda k: k >= 2,
    OpKind.COPY: lambda k: k == 1,
    OpKind.SOURCE: lambda k: k == 0,
}


def _code_for(source: str):
    """The code object for ``source``, compiled at most once while cached."""
    with _CODE_LOCK:
        code = _CODE_CACHE.get(source)
        if code is not None:
            _CODE_CACHE.move_to_end(source)
            return code
    code = compile(source, "<repro.machine.emit>", "exec")
    with _CODE_LOCK:
        _CODE_CACHE[source] = code
        while len(_CODE_CACHE) > CODE_CACHE_SIZE:
            _CODE_CACHE.popitem(last=False)
    return code


def _plus(k: int) -> str:
    """`` + k`` / `` - k`` / ``''`` — a signed constant term."""
    return f" + {k}" if k > 0 else f" - {-k}" if k < 0 else ""


class _Plan:
    """One compiled body lowered to an executable closure plus the static
    facts its entry checks need."""

    __slots__ = ("fn", "arrays", "keys", "dec", "regs", "writers")

    def __init__(self, body: list[tuple], step: int, custom: bool) -> None:
        dec: dict[str, int] = {}
        arrays: dict[str, int] = {}  # array -> store slot, first-use order
        keys: dict[tuple[str, int], int] = {}  # guard key -> window slot
        groups: list[tuple[int | None, list[tuple]]] = []
        for op in body:
            if op[0] == _DEC:
                dec[op[1]] = dec.get(op[1], 0) + op[2]
                continue
            # _COMPUTE (a body _SETUP was rejected by _build)
            greg = op[1]
            slot = None
            if greg is not None:
                slot = keys.setdefault((greg, op[2] - dec.get(greg, 0)), len(keys))
            for sarr, _sbase, _soff in op[7]:
                arrays.setdefault(sarr, len(arrays))
            arrays.setdefault(op[3], len(arrays))
            if groups and groups[-1][0] == slot:
                groups[-1][1].append(op)
            else:
                groups.append((slot, [op]))
        self.arrays = list(arrays)
        self.keys = list(keys)
        self.dec = dec
        self.regs = sorted({reg for reg, _ in keys} | set(dec))
        # (store slot, dest offset, window slot or None) per body write.
        self.writers = [
            (arrays[op[3]], op[5], slot) for slot, ops in groups for op in ops
        ]
        self.fn = self._emit(groups, step, custom)

    def _emit(self, groups, step: int, custom: bool):
        stores = [f"s{k}" for k in range(len(self.arrays))]
        names = dict(zip(self.arrays, stores))
        uses_j = False
        used: set[str] = set()  # locals some later read takes

        def idx(off: int) -> str:
            return f"i{_plus(off)}"

        def read(sarr: str, sbase: int, soff: int, scope: dict) -> str:
            nonlocal uses_j
            if sbase == _LOOP:
                if (sarr, soff) in scope:
                    used.add(scope[(sarr, soff)])
                    return scope[(sarr, soff)]
                at = idx(soff)
            elif sbase == _CONST:
                at = str(soff)
            else:  # _TRIP
                at = f"n{_plus(soff)}"
            s = names[sarr]
            if custom:
                return f"R({s}, {sarr!r}, {at})"
            base = default_initial(sarr, 0)
            if sbase == _LOOP:
                uses_j = True
                return f"{s}.get({at}, {base + 7 * soff} + j)"
            if sbase == _CONST:
                return f"{s}.get({at}, {base + 7 * soff})"
            return f"{s}.get({at}, {base + 7 * soff} + 7 * n)"

        def expr(op: tuple, scope: dict) -> str:
            instr = op[8]
            kind, imm = instr.op, instr.imm
            v = [read(*src, scope) for src in op[7]]
            if kind is OpKind.SOURCE:
                return f"({imm + 13 * op[5]} + 13 * i) % {MODULUS}"
            if kind is OpKind.MUL:  # ((imm % M) * v0 % M) * v1 % M ...
                return str(imm % MODULUS) + "".join(f" * {x} % {MODULUS}" for x in v)
            if not v:  # ADD / SUB of nothing
                return str(imm % MODULUS)
            if kind is OpKind.ADD or kind is OpKind.COPY:
                head = " + ".join(v)
            elif kind is OpKind.SUB:
                head = v[0] if len(v) == 1 else (
                    f"{v[0]} - {v[1]}" if len(v) == 2
                    else f"{v[0]} - ({' + '.join(v[1:])})"
                )
            else:  # MAC
                head = f"{v[0]} * {v[1]}"
                if len(v) > 2:
                    head += f" + ({' + '.join(v[2:])})"
            return f"({head}{_plus(imm)}) % {MODULUS}"

        # A value written earlier in the iteration is still in a local when
        # its writer surely ran: unguarded (``top``), or under the same
        # window (``under``).  The entry checks rule out a second write.
        top: dict[tuple[str, int], str] = {}
        under: dict[int, dict[tuple[str, int], str]] = {}
        rows: list[tuple[str, str, str | None, str]] = []
        for slot, ops in groups:
            ind = "        "
            scope = top
            if slot is not None:
                rows.append(("        ", f"if a{slot} <= i <= b{slot}:", None, ""))
                ind += "    "
                scope = under[slot] = {**under.get(slot, {}), **top}
            for op in ops:
                rhs = expr(op, scope)
                t = f"t{len(rows)}"
                scope[(op[3], op[5])] = t
                rows.append((ind, f"{names[op[3]]}[{idx(op[5])}]", t, rhs))
        lines = [
            f"{ind}{target}" if t is None
            else f"{ind}{target} = {t} = {rhs}" if t in used
            else f"{ind}{target} = {rhs}"
            for ind, target, t, rhs in rows
        ]
        head = [
            "def run(S, W, n, i0, stop, R):",
            f"    {', '.join(stores)}, = S" if stores else "    pass",
        ]
        if self.keys:
            bounds = ", ".join(f"a{k}, b{k}" for k in range(len(self.keys)))
            head.append(f"    {bounds} = W")
        head.append(f"    for i in range(i0, stop, {step}):")
        if uses_j:
            head.append("        j = 7 * i")
        if not lines:
            lines.append("        pass")
        namespace: dict = {}
        exec(_code_for("\n".join(head + lines) + "\n"), namespace)
        return namespace["run"]


def _build(compiled, step: int, custom: bool) -> _Plan | None:
    """A plan for ``compiled``'s body, or ``None`` if the emitter declines
    it statically (the dispatch interpreter then runs it)."""
    for op in compiled.body:
        if op[0] == _DEC:
            continue
        if op[0] != _COMPUTE or op[4] != _LOOP:
            return None  # setup in the body / a destination fixed in time
        if any(sbase not in (_CONST, _LOOP, _TRIP) for _a, sbase, _o in op[7]):
            return None  # loop-variable index outside the body
        ok = _ARITY_OK.get(op[8].op)
        if ok is None or not ok(len(op[7])):
            return None  # evaluate_op raises: leave it to dispatch
    return _Plan(compiled.body, step, custom)


def _plan(compiled, step: int, custom: bool) -> _Plan | None:
    """The cached plan of ``compiled`` (tied weakly to it)."""
    entry = _PLANS.get(compiled)
    if entry is not None and custom in entry:
        return entry[custom]
    plan = _build(compiled, step, custom)
    with _PLANS_LOCK:
        _PLANS.setdefault(compiled, {})[custom] = plan
    return plan


def _window(A: int, D: int, n: int, T: int) -> tuple[int, int]:
    """Iterations ``k`` in ``[0, T)`` where ``-n < A - k*D <= 0``, as an
    inclusive ``(klo, khi)``; ``khi < klo`` when there are none."""
    if D == 0:
        return (0, T - 1) if -n < A <= 0 else (0, -1)
    if D > 0:
        klo = -((-A) // D)
        khi = (A + n - 1) // D
    else:
        klo = (-n - A) // -D + 1
        khi = A // D
    return max(klo, 0), min(khi, T - 1)


def body_hook(compiled, loop, n: int, initial):
    """A loop-body hook for :func:`~repro.machine.dispatch.execute_compiled`,
    or ``None`` if the emitter declines the body statically.

    The hook takes the live ``(arrays, reg_values)`` after the pre region
    and either runs the whole trip — returning ``(executed, disabled)`` —
    or returns ``None`` with both structures untouched.
    """
    custom = initial is not default_initial
    plan = _plan(compiled, loop.step, custom)
    if plan is None:
        return None
    step = loop.step
    T = loop.trip_count(n)
    i0 = loop.start.resolve(None, n)

    def hook(arrays, reg_values):
        if T == 0:
            return 0, 0
        for reg in plan.regs:
            if reg not in reg_values:
                return None  # dispatch raises the before-setup error
        W: list[int] = []
        spans = []
        for reg, c in plan.keys:
            klo, khi = _window(reg_values[reg] + c, plan.dec.get(reg, 0), n, T)
            spans.append((klo, khi))
            if klo <= khi:
                W += (i0 + klo * step, i0 + khi * step)
            else:
                W += (1, 0)  # ``1 <= i <= 0``: never
        executed = 0
        disabled = 0
        cells: dict[int, list[tuple[int, int]]] = {}
        for slot, doff, wslot in plan.writers:
            klo, khi = (0, T - 1) if wslot is None else spans[wslot]
            if khi < klo:
                disabled += T
                continue
            active = khi - klo + 1
            executed += active
            if wslot is not None:
                disabled += T - active
            lo = i0 + klo * step + doff
            hi = i0 + khi * step + doff
            if lo < 1 or hi > n:
                return None  # dispatch raises the range error
            cells.setdefault(slot, []).append((lo, hi))
        names = plan.arrays
        for slot, runs in cells.items():
            # Same residue mod step and overlapping ranges: a double write.
            runs.sort(key=lambda r: (r[0] % step, r[0]))
            for (lo1, hi1), (lo2, _hi2) in zip(runs, runs[1:]):
                if lo1 % step == lo2 % step and lo2 <= hi1:
                    return None
            pre = arrays.get(names[slot])
            if pre:
                for cell in pre:
                    for lo, hi in runs:
                        if lo <= cell <= hi and (cell - lo) % step == 0:
                            return None  # writes over a pre-region value
        stores = []
        fresh = []
        for slot, name in enumerate(names):
            store = arrays.get(name)
            if store is None:
                store = {}
                if slot in cells:
                    fresh.append((name, store))
            stores.append(store)
        reader = None
        if custom:
            def reader(store, array, index):
                if index in store:
                    return store[index]
                return initial(array, index)
        plan.fn(stores, W, n, i0, i0 + T * step, reader)
        for name, store in fresh:
            if store:
                arrays[name] = store
        for reg, amount in plan.dec.items():
            reg_values[reg] -= amount * T
        return executed, disabled

    return hook
