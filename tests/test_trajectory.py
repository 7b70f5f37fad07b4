"""Trajectory reuse: the cache key is exactly the inputs that shape learning."""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfl.cli import main
from greenfl.config import parse_config
from greenfl.errors import EmptyClientData
from greenfl.runner import execute_run, train_trajectory
from greenfl.sites import BUILTIN_HARDWARE, BUILTIN_REGIONS, BUILTIN_TIERS

from conftest import small_doc

BUNDLED = (
    "cifar_tiers_high",
    "cifar_tiers_medium",
    "cifar_tiers_low",
    "retina_gpuswap_h100",
    "retina_gpuswap_v100",
)
ARTIFACTS = ("rounds.csv", "run.json", "summary.json")

site_ids = st.from_regex(r"[a-z][a-z0-9-]{0,7}", fullmatch=True)


@st.composite
def ledger_only_mutations(draw):
    """small_doc() with every field the trajectory does not depend on redrawn."""
    doc = small_doc()
    ids = draw(st.lists(site_ids, min_size=3, max_size=3, unique=True))
    doc["sites"] = [
        {
            "site_id": site_id,
            "hardware": draw(st.sampled_from(sorted(BUILTIN_HARDWARE))),
            "tier": draw(st.sampled_from(sorted(BUILTIN_TIERS))),
            "region": draw(st.sampled_from(sorted(BUILTIN_REGIONS))),
        }
        for site_id in ids
    ]
    doc["comm"]["net_intensity_kwh_per_gb"] = draw(st.floats(0.0, 1.0))
    doc["scenario"] = draw(st.text(max_size=12))
    doc["evaluate_each_round"] = draw(st.booleans())
    doc["sampling_interval_s"] = draw(st.floats(0.01, 10.0))
    return doc


def _resize_sites(doc, num_clients):
    doc["partition"]["num_clients"] = num_clients
    doc["sites"] = [dict(doc["sites"][0], site_id=f"site-{i + 1}") for i in range(num_clients)]


# (path into small_doc(), values to draw from); the base value is excluded when drawn
TRAJECTORY_FIELDS = [
    (("seed",), st.integers(0, 2**31 - 1)),
    (("num_rounds",), st.integers(1, 4)),
    (("workload", "num_classes"), st.integers(2, 5)),
    (("workload", "num_features"), st.integers(1, 20)),
    (("workload", "samples_per_class"), st.integers(20, 100)),
    (("workload", "separation"), st.floats(1.0, 10.0)),
    (("workload", "local_epochs"), st.integers(0, 3)),
    (("workload", "batch_size"), st.integers(5, 80)),
    (("workload", "learning_rate"), st.floats(0.0, 1.0)),
    (("partition", "alpha"), st.floats(0.5, 10.0)),
    (("partition", "seed"), st.integers(0, 2**31 - 1)),
    (("partition", "num_clients"), st.integers(1, 5)),
]


@st.composite
def trajectory_mutations(draw):
    """small_doc() with one field the trajectory depends on changed."""
    doc = small_doc()
    path, values = draw(st.sampled_from(TRAJECTORY_FIELDS))
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    value = draw(values.filter(lambda v: v != target[key]))
    if path == ("partition", "num_clients"):
        _resize_sites(doc, value)
    else:
        target[key] = value
    return doc


@settings(max_examples=60, deadline=None)
@given(ledger_only_mutations())
def test_ledger_only_fields_hit_the_cache(doc):
    train_trajectory.cache_clear()
    _, base = execute_run(parse_config(small_doc()))
    _, variant = execute_run(parse_config(doc))
    info = train_trajectory.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert variant.final_params is base.final_params
    assert variant.accuracy_by_round == base.accuracy_by_round


@settings(max_examples=60, deadline=None)
@given(trajectory_mutations())
def test_trajectory_fields_miss_the_cache(doc):
    train_trajectory.cache_clear()
    execute_run(parse_config(small_doc()))
    # an empty Dirichlet shard is only found by building the partition
    with contextlib.suppress(EmptyClientData):
        execute_run(parse_config(doc))
    info = train_trajectory.cache_info()
    assert (info.hits, info.misses) == (0, 2)


def test_cached_final_params_are_read_only(small_cfg):
    _, result = execute_run(small_cfg)
    for array in (result.final_params.weights, result.final_params.bias):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("scenario", BUNDLED)
def test_warm_run_is_byte_identical_to_cold_run(scenario, tmp_path):
    for out in ("cold", "warm"):
        assert main(["run", "--config", scenario, "--out", str(tmp_path / out)]) == 0
    info = train_trajectory.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for name in ARTIFACTS:
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()
