"""Seeded inputs of every workload.

Each workload's inputs are a pure function of ``--seed``; the program
only ever sees the generated graphs and parameters.
"""

from __future__ import annotations

import json
import random

from repro.graph.generators import random_dfg
from repro.graph.serialize import to_json
from repro.runner.difftest import DIFFTEST_TRANSFORMS, differential_jobs
from repro.runner.jobs import Job
from repro.workloads.registry import BENCHMARKS

#: Transforms whose units ignore the unfolding factor.
FACTORLESS = {"original", "pipelined", "csr-pipelined"}

#: Graph shapes of the seeded sweeps: ``(nodes, extra edges)`` strata.
#: Drawing one graph per stratum keeps the work of a pass nearly equal
#: from seed to seed, so seeds vary the graphs but not the load.
SWEEP_SMALL_STRATA = tuple((k, e) for k in range(1, 7) for e in range(6))
SWEEP_DURABLE_STRATA = tuple((k, 3) for k in range(1, 7))
DSP_FACTORS = (2, 3)
DSP_TRIP_COUNT = 1000


def stratified_seeds(seed: int, strata, salt: int) -> list[int]:
    """One differential-sweep graph seed per stratum, found by scanning
    the graph seeds ``seed * 1_000_000 + salt + j`` in order."""
    want = list(strata)
    found: dict[tuple[int, int], int] = {}
    j = 0
    while len(found) < len(set(want)):
        s = seed * 1_000_000 + salt + j
        doc = json.loads(differential_jobs(s, trip_counts=(0,), transforms=("original",))[0].graph_json)
        k = len(doc["nodes"])
        shape = (k, len(doc["edges"]) - (k - 1))
        if shape in want and shape not in found:
            found[shape] = s
        j += 1
    return [found[shape] for shape in want]


def sweep_small_seeds(seed: int) -> list[int]:
    """Graph seeds of the ``sweep-small`` sweep (70 units each)."""
    return stratified_seeds(seed, SWEEP_SMALL_STRATA, 0)


def durable_units(seed: int) -> list[Job]:
    """``sweep-durable`` units: a narrower differential sweep (f=2,
    n in {7, 12}: 21 units per graph) of one random graph per node
    count, 126 units, so a short pooled pass still spans six graphs.

    The graphs are those of seed 0 and ``seed`` only orders the units,
    as on ``dsp-long``: with graphs drawn per seed, which six graphs a
    seed drew moved the unit-latency percentiles by more than the host
    did (``perfbench/README.md``).
    """
    jobs = [
        j
        for s in stratified_seeds(0, SWEEP_DURABLE_STRATA, 500_000)
        for j in differential_jobs(s, factors=(2,), trip_counts=(7, 12))
    ]
    random.Random(f"sweep-durable/{seed}").shuffle(jobs)
    return jobs


def dsp_windows(seed: int) -> list[list[Job]]:
    """``dsp-long`` units (114), one window each, so every unit is timed
    between two host probes that follow the host's speed over it.

    The inputs are the paper's fixed graphs at one trip count; the seed
    only orders the units.
    """
    jobs = [
        Job(transform=t, workload=name, factor=f, trip_count=DSP_TRIP_COUNT)
        for name in BENCHMARKS
        for t in DIFFTEST_TRANSFORMS
        for f in ((1,) if t in FACTORLESS else DSP_FACTORS)
    ]
    random.Random(f"dsp-long/{seed}").shuffle(jobs)
    return [[j] for j in jobs]


# -- serve-closed request stream -------------------------------------------

SERVE_REPEAT_SHARE = 0.25
SERVE_TRIP_COUNTS = (0, 1, 7, 12)
SERVE_ANALYZE_TRIP_COUNTS = (7, 12, 20)


class RequestStream:
    """Seeded, endless stream of ``(doc, fresh)`` server requests.

    A fixed share repeats an earlier request of the stream (a cache or
    single-flight hit on the server); the rest are new ``transform`` or
    ``analyze`` requests on seeded random graphs of at most 6 nodes.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve-closed/{seed}")
        self.issued: list[str] = []
        self.fresh = 0

    def _fresh_doc(self) -> dict:
        rng = self.rng
        g = random_dfg(
            rng,
            num_nodes=rng.randint(1, 6),
            extra_edges=rng.randint(0, 5),
            max_delay=3,
            name=f"req{self.fresh}",
        )
        graph = json.loads(to_json(g, indent=None))
        if rng.random() < 0.5:
            return {
                "kind": "analyze",
                "params": {
                    "graph": graph,
                    "trip_count": rng.choice(SERVE_ANALYZE_TRIP_COUNTS),
                },
            }
        transform = rng.choice(DIFFTEST_TRANSFORMS)
        return {
            "kind": "transform",
            "params": {
                "graph": graph,
                "transform": transform,
                "factor": 1 if transform in FACTORLESS else rng.choice((2, 3)),
                "trip_count": rng.choice(SERVE_TRIP_COUNTS),
            },
        }

    def next(self) -> tuple[str, bool]:
        """The next request body and whether it is new to the stream."""
        if self.issued and self.rng.random() < SERVE_REPEAT_SHARE:
            return self.rng.choice(self.issued), False
        body = json.dumps(self._fresh_doc(), sort_keys=True)
        self.fresh += 1
        self.issued.append(body)
        return body, True
