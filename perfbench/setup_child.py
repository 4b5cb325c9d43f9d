"""Fresh-interpreter set-up probe for the sweep workloads.

Usage: ``python3 perfbench/setup_child.py WORKLOAD SEED TMPDIR``

Imports the CLI, starts the workload's engine (and pool), runs its first
unit and prints one JSON line the moment that unit is ready
(``import-only`` stops after the import).  The parent
times from process start to that line: that is ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time

t0 = time.perf_counter()
modules_before = len(sys.modules)
import repro.__main__  # noqa: E402,F401  - the CLI's import graph

import_s = time.perf_counter() - t0
modules = len(sys.modules) - modules_before
numpy_loaded = "numpy" in sys.modules

import units  # noqa: E402
from repro.runner.cache import ResultCache  # noqa: E402
from repro.runner.difftest import differential_jobs  # noqa: E402
from repro.runner.engine import ExperimentEngine  # noqa: E402
from repro.runner.journal import RunCheckpoint  # noqa: E402


def main(workload: str, seed: int, tmp: str) -> int:
    checkpoint = None
    jobs = []
    if workload == "import-only":
        engine = None
    elif workload == "sweep-small":
        engine = ExperimentEngine(jobs=1)
        jobs = differential_jobs(units.sweep_small_seeds(seed)[0])[:1]
    elif workload == "dsp-long":
        engine = ExperimentEngine(jobs=1)
        jobs = units.dsp_windows(seed)[0][:1]
    elif workload == "sweep-durable":
        engine = ExperimentEngine(
            jobs=2, cache=ResultCache(f"{tmp}/cache"), supervised=True
        )
        checkpoint = RunCheckpoint(f"{tmp}/run")
        checkpoint.attach(engine, "sweep", {"setup": True})
        # Two units: a single pending unit would run inline, not pooled.
        jobs = units.durable_units(seed)[:2]
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    results = engine.run_jobs(jobs) if engine is not None else []
    ok = all(r.ok for r in results)
    print(
        json.dumps(
            {
                "ok": ok,
                "import_s": import_s,
                "modules": modules,
                "numpy_loaded": numpy_loaded,
            }
        ),
        flush=True,
    )
    if checkpoint is not None:
        checkpoint.finish(engine)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
