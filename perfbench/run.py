"""End-to-end benchmark of the repro CLI and server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Runs one workload for ``--seconds``, checks every output, and prints as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
split with ``--trace 1``.  Exits 1 if an output guard fails and 2 if the
program's sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-small", "dsp-long", "sweep-durable", "serve-closed")
DEFAULT_SEED = 0
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 7
#: Workloads whose timings are scaled by the host probe; the others
#: report raw timings.  They run on one CPU, their children (the server)
#: included: the host's speed changes per core from second to second,
#: and the probe then times the same core the work runs on.
#: ``perfbench/README.md`` gives the spreads behind this.
SCALED = {"sweep-small", "dsp-long", "serve-closed"}
#: Share of a traced run spent untraced, for ``trace.overhead_frac``.
UNTRACED_SHARE = 0.4

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "warm_units_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "code_size_total": "count",
    "registers_total": "count",
    "vm_instr_total": "count",
    "ok_frac": "frac",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_once(workload: str, seed: int, tmp: Path, i: int) -> tuple[float, dict]:
    """One fresh-interpreter set-up: ``(seconds to first unit, info)``."""
    import workloads

    if workload == "serve-closed":
        return workloads.serve_setup(seed, tmp, i), {}
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed),
           str(tmp / f"setup-{i}")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=workloads._env(), text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    proc.communicate(timeout=120)
    info = json.loads(line) if line.strip() else {}
    if proc.returncode != 0 or not info.get("ok"):
        raise workloads.GuardError(f"set-up probe for {workload} failed")
    return ready, info


def _import_probe(seed: int, tmp: Path, i: int) -> dict:
    import workloads

    cmd = [sys.executable, str(HERE / "setup_child.py"), "import-only", str(seed),
           str(tmp / f"import-{i}")]
    out = subprocess.run(cmd, capture_output=True, env=workloads._env(), text=True,
                         timeout=120)
    return json.loads(out.stdout.splitlines()[0])


def _check_expected(workload: str, totals: dict) -> None:
    """The default seed's exact outputs must equal the recorded ones."""
    import workloads

    want = json.loads((HERE / "expected.json").read_text())["totals"][workload]
    if totals != want:
        raise workloads.GuardError(
            f"{workload}: default-seed totals {totals} != recorded {want}"
        )


def _run(workload: str, seed: int, seconds: float, tmp: Path, reference=True,
         shim_out=None, tag="main"):
    import workloads

    if workload == "serve-closed":
        return workloads.serve_closed(seed, seconds, tmp, reference, shim_out, tag)
    if workload == "dsp-long" and reference:
        workloads.check_tables(Path.cwd())
    run = {
        "sweep-small": workloads.sweep_small,
        "dsp-long": workloads.dsp_long,
        "sweep-durable": workloads.sweep_durable,
    }[workload]
    return run(seed, seconds, tmp, reference)


def _adjust(samples, factors, rate: bool = False) -> list[float]:
    """Values at the reference host speed, or raw if ``factors`` is None."""
    if factors is None:
        return [v for v, _ in samples]
    return [v / factors[w] if rate else v * factors[w] for v, w in samples]


def _throughput(m, scaled: bool, warm: bool = False) -> float:
    from stats import median
    from workloads import window_factors

    factors = window_factors(m) if scaled else None
    windows = m.warm if warm else m.cold
    if windows:
        # One pass: every window of the fixed input set at its median.
        return m.units_per_pass / sum(median(_adjust(w, factors)) for w in windows)
    return median(_adjust(m.warm_rates if warm else m.rates, factors, rate=True))


def _timings(m, scaled: bool) -> dict:
    from stats import median, tail_percentile
    from workloads import window_factors

    factors = window_factors(m) if scaled else None
    # A unit's latency is its median over the passes that ran it; the
    # percentiles are then taken over units (requests, on the server).
    latencies = [median(_adjust(samples, factors)) for samples in m.latencies.values()]
    p, tail, n = tail_percentile(latencies)
    return {
        "units_per_s": _throughput(m, scaled),
        "warm_units_per_s": _throughput(m, scaled, warm=True),
        "req_p50_ms": median(latencies),
        "req_tail_ms": tail,
        "tail": f"p{p:g} of {n}",
    }


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path):
    import probe
    from stats import median
    from workloads import serve_mix

    m = _run(workload, seed, seconds, tmp)
    _check_expected(workload, m.totals)
    scaled = workload in SCALED
    setups = []  # (raw seconds, host factor of a probe right before)
    for i in range(SETUPS):
        factor = probe.REFERENCE_MS / probe.calibrate()
        setups.append((_setup_once(workload, seed, tmp, i)[0], factor))

    def timings(scale: bool) -> dict:
        return {
            "setup_s": median(t * f if scale else t for t, f in setups),
            **_timings(m, scale),
        }

    chosen, other = timings(scaled), timings(not scaled)
    print(f"req_tail_ms is the {chosen.pop('tail')} unit or request latencies")
    if workload == "serve-closed":
        print(serve_mix(m))
    print(f"host.calib_ms median {median(ms for _, ms in m.probes):.4f} "
          f"over {len(m.probes)} probes")
    other.pop("tail")
    print(
        "with the other scaling choice: "
        + " ".join(f"{k}={v:.6g}" for k, v in other.items())
    )
    values = {
        **chosen,
        "peak_rss_mb": m.peak_rss_mb,
        **m.totals,
        "ok_frac": 1.0 - m.failed / m.attempted,
    }
    return m, values


def _server_layers(m, doc: dict) -> dict:
    """``server.*`` and ``unattributed_frac`` of a traced ``serve-closed``
    run, from its exchanges, ``/healthz`` and the server's trace file."""
    from stats import covered_length, median

    total = sum(b - a for a, b in m.windows)
    covered = sum(covered_length(doc["roots"], a, b) for a, b in m.windows)
    overheads, seen = [], set()
    for x in m.server["exchanges"]:
        key = x.envelope.get("key")
        if x.fresh and key in doc["compute_s"] and key not in seen:
            seen.add(key)  # the first answer computed the unit
            overheads.append((x.latency_s - doc["compute_s"][key]) * 1e3)
    stats = m.server.get("stats", {})
    cache = m.server.get("engine", {}).get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    batches = stats.get("batches", 0)
    return {
        "unattributed_frac": (total - covered) / total,
        "server.overhead_ms_p50": median(overheads) if overheads else 0.0,
        "server.batches": batches,
        "server.batch_mean": stats.get("batched_units", 0) / batches if batches else 0.0,
        "server.deduped": stats.get("deduped", 0),
        "server.shed": stats.get("shed", 0),
        "server.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
    }


def traced(workload: str, seed: int, seconds: float, tmp: Path):
    import layers
    from repro import observability
    from stats import median

    untraced = _run(workload, seed, UNTRACED_SHARE * seconds, tmp, tag="untraced")
    _check_expected(workload, untraced.totals)
    collector = layers.Collector()
    shim_out = None
    if workload == "serve-closed":
        shim_out = tmp / "server-trace.json"
    else:
        layers.install(collector)
        observability.OBS.reset()
        observability.enable()
    m = _run(workload, seed, (1 - UNTRACED_SHARE) * seconds, tmp, reference=False,
             shim_out=shim_out, tag="traced")
    infos = [
        _setup_once(workload, seed, tmp, i)[1] if workload != "serve-closed"
        else _import_probe(seed, tmp, i)
        for i in range(3)
    ]

    values = {name: 0.0 for name, _ in layers.PER_LAYER}
    if shim_out is not None:
        doc = json.loads(shim_out.read_text())
        agg, obs = doc["aggregate"], doc["obs"]
        m.compute_s = sum(doc["compute_s"].values())
        cache = m.server.get("engine", {}).get("cache", {})
        values.update(_server_layers(m, doc))
    else:
        agg = collector.aggregate()
        obs = observability.OBS.metrics.as_dict().get("counters", {})
        values["unattributed_frac"] = collector.unattributed(m.windows)
        cache = {
            name: sum(getattr(c.stats, name) for c in m.caches)
            for name in ("hits", "misses", "puts")
        }
    values.update(layers.layer_values(agg, obs))
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    values["cache.hits"], values["cache.misses"] = hits, misses
    values["cache.puts"] = cache.get("puts", 0)
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    engine_busy = values["engine.busy_s"]
    values["engine.worker_util"] = (
        m.compute_s / (m.workers * engine_busy) if engine_busy else 0.0
    )
    records = sum(j.records_written for j in m.journals)
    values["journal.records"] = records
    values["journal.fsyncs_per_unit"] = (
        values["journal.fsyncs"] / m.computed_units if records and m.computed_units else 0.0
    )
    values["setup.import_s"] = median(i["import_s"] for i in infos)
    values["setup.modules"] = median(i["modules"] for i in infos)
    values["setup.numpy_loaded"] = 1.0 if all(i["numpy_loaded"] for i in infos) else 0.0
    values["host.calib_ms"] = median(ms for _, ms in m.probes)
    scaled = workload in SCALED
    rate0, rate1 = _throughput(untraced, scaled), _throughput(m, scaled)
    values["trace.overhead_frac"] = 1.0 - rate1 / rate0
    m.attempted += untraced.attempted
    m.failed += untraced.failed
    return m, values


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each
    metric by name and unit and fails if any workload fails."""
    results, rc = {}, 0
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        for name, metric in result["metrics"].items():
            print(f"{workload:13s} {name:24s} {metric['value']:16.6g} {metric['unit']}")
        results[workload] = result
        rc = rc or out.returncode or (0 if result["correct"] else 1)
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload in SCALED and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))

    import layers
    import workloads

    # Everything the run writes, including the supervisor's heartbeat
    # files and the children's temp files, stays inside the checkout.
    bench_tmp = root / ".perfbench-tmp"
    bench_tmp.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench_tmp) as d:
        tmp = Path(d)
        os.environ["TMPDIR"] = d
        tempfile.tempdir = d
        try:
            if args.trace:
                m, values = traced(args.workload, args.seed, args.seconds, tmp)
                units = dict(layers.PER_LAYER)
            else:
                m, values = end_to_end(args.workload, args.seed, args.seconds, tmp)
                units = END_TO_END_UNITS
        except workloads.GuardError as exc:
            print(f"perfbench: output guard failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
    try:
        bench_tmp.rmdir()
    except OSError:
        pass
    result = {
        "correct": True,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
