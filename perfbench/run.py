"""Benchmark launcher: one workload, one seed, printed as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-nn-infer --seed 0 --seconds 15 --trace 0

Workloads (see ``workload.py``):

* ``grid-tabular-train`` -- Fig. 4b stuck-at extra training, tabular agent.
* ``grid-nn-infer`` -- Fig. 5b inference faults, DQN policy, B=64 replicas.
* ``drone-infer`` -- Fig. 7c fault locations, drone conv policy, B=16.

Each workload's clean policy is trained from the seed, and how long a
policy's episodes last differs from seed to seed.  So one run covers
several program seeds derived from ``--seed`` (enough of them to fill
``--seconds``), each timed once in its own fresh single-threaded process,
as ``python -m repro`` would run a figure.  Once per invocation, before the
timed calls, a reduced copy of the workload runs through the serial engine
once and the batched engine twice: the three tables must be equal.

Times are CPU seconds (user + system) of the single-threaded workload
process, not wall-clock seconds.  On a virtual machine sharing its cores
with other guests, wall-clock times of the same code spread by more than
half their median between runs; the time the hypervisor steals from the
process is not counted in its CPU time.  On an idle host the two agree; the
mean wall time is printed alongside.

``--trace 0`` prints the end-to-end metrics: ``call_cpu_s`` (mean over the
run's seeds of one driver call), ``setup_s`` (CPU time from process start
to the first timed call, median over the run's processes),
``trials_per_cpu_s`` and ``peak_rss_mb``.  ``error_rate`` (failed /
attempted trials) is printed in the human-readable lines and carried by
``attempted`` and ``failed``.  ``--trace 1`` instead calls the driver on
the first seed three times untraced (the first warms the process up) and
once with span wrappers around every layer boundary (``tracer.py``), and
prints the per-layer metrics; ``trace.overhead_frac`` compares the traced
call's wall time with the median of the two warm untraced ones.

The launcher exits non-zero without a result line when the program's
sources (``src/repro``) are not in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from tracer import per_layer_units
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKLOAD_SCRIPT = HERE / "workload.py"
#: Fewest program seeds in a run.
MIN_SEEDS = 2
#: Every process of one invocation must end within this many seconds.
DEADLINE_S = 170.0
END_TO_END_UNITS = {
    "call_cpu_s": "s", "setup_s": "s", "trials_per_cpu_s": "1/s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def program_seeds(seed: int, n: int) -> List[int]:
    """``n`` distinct program seeds derived from the benchmark seed."""
    return [seed * 1000 + i for i in range(n)]


def child_env(root: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(root: Path, workload: str, mode: str, seed: int, deadline: float) -> Dict:
    """Run one fresh workload process and return its result."""
    spec = json.dumps({"workload": workload, "mode": mode, "seed": seed})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKLOAD_SCRIPT), spec],
            cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for seed {seed} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def plan(workload: str, seed: int, seconds: float) -> List[int]:
    """Program seed of each timed call: enough calls to fill ``seconds``."""
    return program_seeds(seed, max(MIN_SEEDS, round(seconds / WORKLOADS[workload].call_s)))


def problems_of(call: Dict) -> List[str]:
    return [f"seed {call['seed']}: {p}" for p in call.get("problems", [])]


def run_parity(root: Path, workload: str, seed: int, deadline: float):
    """The parity check's problems, attempted and failed trials, and line."""
    result = spawn(root, workload, "parity", program_seeds(seed, 1)[0], deadline)
    calls = [result["serial"]] + result["batched"]
    problems = [p for c in calls for p in problems_of(c)]
    serial, batched = calls[0]["digest"], calls[1]["digest"]
    if serial is None or serial != batched:
        problems.append("reduced copy: batched table differs from the serial-engine table")
    if calls[2]["digest"] != batched:
        problems.append("reduced copy: result digest differs between two batched calls")
    line = f"parity: serial={serial} batched={batched} (twice)"
    return problems, len(calls) * result["trials"], sum(c["failed"] for c in calls), line


def timed_run(root: Path, workload: str, seed: int, seconds: float, deadline: float):
    problems, attempted, failed, parity_line = run_parity(root, workload, seed, deadline)
    results = [spawn(root, workload, "timed", s, deadline)
               for s in plan(workload, seed, seconds)]

    calls = [c for r in results for c in r["calls"]]
    problems += [p for c in calls for p in problems_of(c)]
    per_call_trials = WORKLOADS[workload].trials()
    attempted += per_call_trials * len(calls)
    failed += sum(c["failed"] for c in calls)
    call_cpu_s = statistics.fmean(c["cpu_s"] for c in calls)
    metrics = {
        "call_cpu_s": call_cpu_s,
        "setup_s": statistics.median(r["setup_cpu_s"] for r in results),
        "trials_per_cpu_s": per_call_trials / call_cpu_s,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    lines = [f"host: {json.dumps(results[0]['host'], sort_keys=True)}"]
    for r, c in zip(results, calls):
        extra = f" baseline_success={c['baseline']}" if c.get("baseline") is not None else ""
        lines.append(f"seed {c['seed']}: digest={c['digest']} cpu_s={c['cpu_s']:.3f} "
                     f"wall_s={c['wall_s']:.3f} setup_cpu_s={r['setup_cpu_s']:.3f}{extra}")
    lines.append(f"wall_s (mean, not a metric): {statistics.fmean(c['wall_s'] for c in calls)} s")
    lines.append(parity_line)
    return metrics, attempted, failed, problems, lines


def traced_run(root: Path, workload: str, seed: int, deadline: float):
    problems, attempted, failed, parity_line = run_parity(root, workload, seed, deadline)
    first = program_seeds(seed, 1)[0]
    result = spawn(root, workload, "traced", first, deadline)
    calls = result["calls"] + [result["traced"]]
    problems += [p for c in calls for p in problems_of(c)]
    if len({c["digest"] for c in calls}) != 1:
        problems.append("traced result digest differs from the untraced one")
    attempted += WORKLOADS[workload].trials() * len(calls)
    failed += sum(c["failed"] for c in calls)
    lines = [f"host: {json.dumps(result['host'], sort_keys=True)}",
             f"seed {first}: digest={result['traced']['digest']}", parity_line]
    if result["missing_targets"]:
        lines.append(f"trace targets not found: {', '.join(result['missing_targets'])}")
    return result["metrics"], attempted, failed, problems, lines


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, attempted, failed, problems, lines = traced_run(
                root, args.workload, args.seed, deadline)
            units = per_layer_units()
        else:
            metrics, attempted, failed, problems, lines = timed_run(
                root, args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if problems and failed == 0:
        failed = 1  # a digest mismatch fails the check without failing a row
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"error_rate: {failed / attempted:.6f} fraction ({failed} of {attempted} trials)")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
