"""Host-speed calibration probe.

A fixed piece of pure-Python work, shaped like the program's hot paths:
small graphs held as dicts of lists of tuples, shortest-path relaxation
over them, many short-lived objects and dicts, list sorts and string
building.  It never calls the program, so a change to the program cannot
move it.  The workloads time it between measured windows, never while
their own work is in flight, and scale CPU-bound timings by it: on a
shared host the same code runs at visibly different speeds seconds
apart, and the probe sees the same drift.
"""

from __future__ import annotations

import time

#: Probe time (ms) that scaled figures are normalised to.  Any constant
#: works: parent and child commits are scaled by the same one.
REFERENCE_MS = 1.3

_MOD = 65521


class _Node:
    __slots__ = ("name", "weight", "edges")

    def __init__(self, name: str, weight: int) -> None:
        self.name = name
        self.weight = weight
        self.edges: list[tuple[str, int]] = []


def _graph(seed: int, size: int) -> dict[str, _Node]:
    nodes = {f"n{i}": _Node(f"n{i}", (seed * 7 + i * 13) % 5 + 1) for i in range(size)}
    acc = seed
    for i in range(size):
        for k in range(3):
            acc = (acc * 31 + i * 7 + k) % _MOD
            nodes[f"n{i}"].edges.append((f"n{acc % size}", acc % 4))
    return nodes


def _relax(nodes: dict[str, _Node]) -> int:
    dist = {name: 0 for name in nodes}
    for _ in range(4):
        changed = False
        for node in nodes.values():
            base = dist[node.name] + node.weight
            for dst, delay in node.edges:
                cand = base - 3 * delay
                if cand > dist[dst]:
                    dist[dst] = cand
                    changed = True
        if not changed:
            break
    return sum(dist.values())


def _work() -> int:
    total = 0
    for seed in range(12):
        nodes = _graph(seed, 24)
        total += _relax(nodes)
        rows = sorted((n.weight, n.name, len(n.edges)) for n in nodes.values())
        total += len(";".join(f"{w}:{name}" for w, name, _ in rows))
        total += sum(v for _, v in sorted({k: len(k) for k in nodes}.items()))
    return total % _MOD


def calibrate(repeats: int = 3) -> float:
    """Fastest of ``repeats`` probe runs, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3
