"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, on the reduced copy of every workload:

* the traced wrappers restore every patched attribute to its original;
* a traced call's result digest equals the untraced call's;
* every count in the per-layer metrics repeats exactly across two traced
  calls;
* every metric name matches ``[A-Za-z0-9_.-]+``, and ``BENCHMARK.json``
  lists exactly the metrics and units the benchmark prints.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer, per_layer_units  # noqa: E402
from workload import WORKLOADS, digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 1


def traced_call(workload):
    tracer = Tracer()
    tracer.install()
    try:
        table = tracer.span(ROOT_SPAN, workload.run, SEED, workload.batch_size, True)
    finally:
        tracer.restore()
    return table, tracer


def check_restore(failures):
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    if tracer.missing:
        failures.append(f"trace targets not found: {tracer.missing}")
    if not patched:
        failures.append("the tracer patched nothing")
    for owner, attr, original in patched:
        if vars(owner)[attr] is original:
            failures.append(f"{attr} on {owner!r} was not patched")
    tracer.restore()
    for owner, attr, original in patched:
        if vars(owner)[attr] is not original:
            failures.append(f"{attr} on {owner!r} was not restored")


def check_workload(workload, failures):
    workload.setup(SEED, reduced=True)
    untraced = digest(workload.run(SEED, workload.batch_size, True))
    units = per_layer_units()
    counts = []
    for _ in range(2):
        table, tracer = traced_call(workload)
        if digest(table) != untraced:
            failures.append(f"{workload.name}: traced digest differs from untraced")
        metrics = tracer.metrics(untraced_wall_s=1.0)
        if set(metrics) != set(units):
            failures.append(f"{workload.name}: metrics {sorted(set(metrics) ^ set(units))} "
                            "are missing or have no unit")
        counts.append({k: v for k, v in metrics.items() if units.get(k) == "count"})
        self_total = sum(v for k, v in metrics.items() if k.endswith("self_s"))
        if abs(self_total - metrics["trace.wall_s"]) > 1e-6 * max(1.0, metrics["trace.wall_s"]):
            failures.append(f"{workload.name}: self times add up to {self_total}, "
                            f"not the traced wall {metrics['trace.wall_s']}")
    if counts[0] != counts[1]:
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        failures.append(f"{workload.name}: counts differ between traced runs: {changed}")
    print(f"{workload.name}: {len(counts[0])} counts repeat, digest {untraced[:16]}")


def check_names(failures):
    names = list(END_TO_END_UNITS) + list(per_layer_units())
    failures.extend(f"bad metric name {n!r}" for n in names if not NAME.fullmatch(n))
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if listed != END_TO_END_UNITS:
        failures.append("BENCHMARK.json end_to_end differs from what run.py prints")
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != per_layer_units():
        failures.append("BENCHMARK.json per_layer differs from what tracer.py prints")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workload.py")


def main() -> int:
    failures = []
    check_names(failures)
    check_restore(failures)
    for workload in WORKLOADS.values():
        check_workload(workload, failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
