import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from greenfl import workload
from greenfl.cli import main
from greenfl.config import parse_config
from greenfl.runner import train_trajectory

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """`python *args` in a child process that imports greenfl from `src/` and
    fails on a numpy RuntimeWarning, as pyproject's `filterwarnings` makes
    the tests here do; `env` adds to the environment.  Output is captured
    as text; `kwargs` go to `subprocess.run`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error::RuntimeWarning", **(env or {})}
    argv = [sys.executable, *map(str, args)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, **kwargs)


def fail_in_the_worker(how="raise"):
    """A `workload._lockstep` that trains in the calling process, and in a
    worker raises MemoryError (`how="raise"`) or exits (`how="exit"`)."""
    caller, lockstep = os.getpid(), workload._lockstep

    def spy(*args):
        if os.getpid() != caller:
            if how == "exit":
                os._exit(3)
            raise MemoryError("no room for the epoch tables")
        return lockstep(*args)

    return spy


def small_doc(**overrides):
    """A tiny, fast scenario document for unit tests."""
    doc = {
        "scenario": "unit-test",
        "seed": 0,
        "num_rounds": 2,
        "workload": {
            "num_classes": 3,
            "num_features": 12,
            "samples_per_class": 60,
            "separation": 6.0,
            "local_epochs": 2,
            "batch_size": 30,
            "learning_rate": 0.1,
        },
        "partition": {"num_clients": 3, "alpha": 1.0, "seed": 0},
        "comm": {"net_intensity_kwh_per_gb": 0.006},
        "sites": [
            {"site_id": f"site-{i + 1}", "hardware": "h100_like", "tier": "high", "region": "USA"}
            for i in range(3)
        ],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def run_dir(tmp_path):
    """A finished `greenfl run` of `small_doc`, in `tmp_path / "out"`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_doc()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture
def small_cfg():
    return parse_config(small_doc())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def cold_trajectory_cache():
    """Start every test with no cached trajectory, so no test reuses another's training."""
    train_trajectory.cache_clear()
