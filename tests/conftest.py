import numpy as np
import pytest

from greenfl.config import parse_config
from greenfl.runner import train_trajectory


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
def small_cfg():
    return parse_config(small_doc())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def cold_trajectory_cache():
    """Start every test with no cached trajectory, so no test reuses another's training."""
    train_trajectory.cache_clear()
