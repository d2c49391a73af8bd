"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import make_gridworld
from repro.quant import Q8_GRID, Q16_NARROW, QTensor


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def grid_env():
    """Middle-density Grid World with deterministic start."""
    return make_gridworld("middle")


@pytest.fixture
def small_qtensor(rng) -> QTensor:
    """A small 8-bit quantized tensor with varied values."""
    values = rng.uniform(-6.0, 6.0, size=(4, 5))
    return QTensor(values, Q8_GRID, name="test-buffer")


@pytest.fixture
def wide_qtensor(rng) -> QTensor:
    """A 16-bit quantized tensor (weight-like values)."""
    values = rng.normal(0.0, 0.5, size=(8, 8))
    return QTensor(values, Q16_NARROW, name="weights")


@pytest.fixture
def run_script():
    """Run a Python script in a fresh interpreter; return its last stdout line as JSON.

    The script sees ``src`` and ``tests`` on its path and runs in its own
    session, so a script that hangs — a pool waiting forever on a dead
    worker — fails the test after ``timeout`` seconds, with every process
    it started killed, instead of hanging the suite.
    """
    import json
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import repro

    paths = [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def run(script: str, *args: str, timeout: float = 60.0):
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"script did not finish within {timeout:.0f} s")
        assert proc.returncode == 0, err
        return json.loads(out.splitlines()[-1])

    return run
