"""Machine-readable snapshots of guardrail benchmark results.

The guardrail benchmarks (warm-cache sweep, batched engine, telemetry
overhead) assert *relative* promises — "not slower", "at least 2x" — but the
absolute numbers behind those assertions were previously printed and lost.
``write_snapshot`` persists them: each guardrail writes one
``BENCH_<name>.json`` file so perf trajectories can be tracked across
commits and machines (compare files, archive them from CI, plot them).

Snapshots land in the repository root by default — that is where the perf
trajectory is read from (committed ``BENCH_*.json`` files next to this
repo's sources, archived as CI artifacts).  Point ``REPRO_BENCH_SNAPSHOT_DIR``
somewhere else (e.g. a scratch directory) to redirect them.  Every snapshot
carries the same envelope::

    {
      "kind": "repro-bench-snapshot",
      "name": "<benchmark name>",
      "created_at": <unix time>,
      "host": {"node": ..., "platform": ..., "python": ..., "cpus": ...},
      "metrics": {<benchmark-specific numbers, flat and JSON-native>}
    }

Writing is best-effort by design: a read-only filesystem must never fail
the guardrail assertions the benchmark actually exists for.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.io import atomic_write_text

__all__ = ["SNAPSHOT_DIR_ENV_VAR", "default_snapshot_dir", "write_snapshot"]

#: Environment variable overriding where ``BENCH_*.json`` files land.
SNAPSHOT_DIR_ENV_VAR = "REPRO_BENCH_SNAPSHOT_DIR"


def default_snapshot_dir() -> Path:
    override = os.environ.get(SNAPSHOT_DIR_ENV_VAR)
    if override:
        return Path(override)
    # The repo root: snapshots sit next to the sources so the committed perf
    # trajectory and the CI artifact glob both read the same place.
    return Path(__file__).resolve().parent.parent


def write_snapshot(name: str, metrics: Dict[str, Any]) -> Optional[Path]:
    """Write ``BENCH_<name>.json``; returns its path, or ``None`` on failure."""
    snapshot = {
        "kind": "repro-bench-snapshot",
        "name": name,
        "created_at": time.time(),
        "host": {
            "node": platform.node(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "metrics": metrics,
    }
    directory = default_snapshot_dir()
    path = directory / f"BENCH_{name}.json"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # Atomic + fsync'd: a benchmark interrupted mid-write must never
        # leave a truncated snapshot in the committed perf trajectory.
        atomic_write_text(path, json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    except OSError:
        return None
    print(f"\nbench snapshot written to {path}")
    return path
