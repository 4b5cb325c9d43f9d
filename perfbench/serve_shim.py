"""Run ``python -m repro serve`` with the per-layer tracer installed.

Usage: ``python3 perfbench/serve_shim.py OUT.json SERVE-ARGS...``

Used by the traced ``serve-closed`` run only.  When the server drains
and returns, the layer aggregate, the program's own observability
counters and every unit's compute time (keyed by the response ``key``)
are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
import time

import layers


def main(out_path: str, argv: list[str]) -> int:
    collector = layers.Collector()
    layers.install(collector, server=True)

    from repro import observability
    from repro.runner import jobs
    from repro.runner.cache import cache_key
    from repro.server import work

    compute_s: dict[str, float] = {}

    def timed(kind, fn):
        def unit(params):
            t0 = time.perf_counter()
            try:
                return fn(params)
            finally:
                compute_s[cache_key(kind, params)] = time.perf_counter() - t0

        return unit

    # The request key is the unit's cache key, so each response can be
    # matched to its unit's compute time.
    layers._rebind(jobs.execute_job, timed("job", jobs.execute_job))
    layers._rebind(work.analyze_graph, timed("analyze", work.analyze_graph))

    from repro.__main__ import main as cli

    rc = cli(argv)
    doc = {
        "aggregate": collector.aggregate(),
        "roots": collector.root_intervals(),
        "obs": observability.OBS.metrics.as_dict().get("counters", {}),
        "compute_s": compute_s,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2:]))
