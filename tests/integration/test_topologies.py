"""Every execution topology prints the same sweep, byte for byte.

The same seeded ``python -m repro sweep`` runs inline, on the local pool,
on the local pool with a run journal, on the supervised pool, and leased
to remote workers over a work plane.  Their stdout must be identical, and the two journaled
runs must have recorded identical per-unit payloads.  This is the guard
that lets executors be collapsed or rewritten without changing results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SWEEP = ["sweep", "--graphs", "4", "--seed", "3", "--no-cache", "--oracle"]


def _sweep(*extra: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *SWEEP, *extra],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _journaled_payloads(run_dir: Path) -> dict[str, dict]:
    done = {}
    with open(run_dir / "journal.jsonl") as fh:
        for line in fh:
            record = json.loads(line)
            if record["type"] == "job.done":
                done[record["data"]["key"]] = record["data"]["payload"]
    return done


def test_sweep_output_identical_across_topologies(tmp_path):
    pool_run, remote_run = tmp_path / "pool", tmp_path / "remote"
    outputs = {
        "serial": _sweep(),
        "pool": _sweep("--jobs", "2"),
        "pool+journal": _sweep("--jobs", "2", "--journal", str(pool_run)),
        "supervised": _sweep("--jobs", "2", "--supervised"),
        "remote+journal": _sweep(
            "--workers", "remote", "--remote-workers", "2",
            "--journal", str(remote_run),
        ),
    }
    assert "differential sweep: PASS" in outputs["serial"]
    for name, out in outputs.items():
        assert out == outputs["serial"], f"{name} output differs from serial"
    pooled = _journaled_payloads(pool_run)
    assert pooled, "the journaled pool run recorded no completions"
    assert _journaled_payloads(remote_run) == pooled
