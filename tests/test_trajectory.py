"""Trajectory reuse and the ledger's inputs: the cache key is exactly the inputs
that shape learning, and the ledger needs none of what training computes."""

import contextlib
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenfl.cli import main
from greenfl.config import build_dataset, build_shards, bundled_config_path, load_config, parse_config, shard_sizes
from greenfl.errors import EmptyClientData
from greenfl.orchestrator import build_ledger
from greenfl.partition import LabeledDatasetDescriptor, dirichlet_partition
from greenfl.reporting import summarize_run, write_round_log
from greenfl.runner import execute_run, plan_run, train_trajectory, write_json
from greenfl.sites import BUILTIN_HARDWARE, BUILTIN_REGIONS, BUILTIN_TIERS, ROUND

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
    # a text cell may hold no "\r" or NUL (a ConfigError at `scenario`)
    doc["scenario"] = draw(st.text(st.characters(exclude_characters="\r\0"), max_size=12))
    doc["evaluate_each_round"] = draw(st.booleans())
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
        train_trajectory(parse_config(doc).spec)
    info = train_trajectory.cache_info()
    assert (info.hits, info.misses) == (0, 2)


@st.composite
def small_spec_docs(draw):
    """small_doc() with a drawn dataset shape, partition and site count."""
    doc = small_doc()
    doc["workload"].update(
        num_classes=draw(st.integers(1, 5)),
        num_features=draw(st.integers(1, 12)),
        samples_per_class=draw(st.integers(3, 40)),
        local_epochs=draw(st.integers(0, 2)),
    )
    doc["partition"]["alpha"] = draw(st.floats(0.05, 100.0))
    doc["partition"]["seed"] = draw(st.integers(0, 2**32 - 1))
    _resize_sites(doc, draw(st.integers(1, 3)))
    return doc


@settings(max_examples=60, deadline=None)
@given(small_spec_docs())
def test_shards_are_the_partition_of_the_dataset_labels(doc):
    # the ledger's shards come from the labels alone; they equal the
    # partition of the labels of the dataset that training builds
    spec = parse_config(doc).spec
    labels = build_dataset(spec).labels
    descriptor = LabeledDatasetDescriptor(len(labels), spec.workload.num_classes, labels)
    want = [part.sample_indices for part in dirichlet_partition(descriptor, spec.partition)]
    got = build_shards(spec)
    assert len(got) == len(want) == spec.partition.num_clients
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert shard_sizes(spec) == [len(shard) for shard in got]


@settings(max_examples=30, deadline=None)
@given(small_spec_docs())
def test_round_rows_carry_the_size_of_the_trained_update(doc):
    cfg = parse_config(doc)
    assume(min(len(shard) for shard in build_shards(cfg.spec)) > 0)  # else training raises EmptyClientData
    records, trajectory = execute_run(cfg)
    params = trajectory.final_params
    rounds = [record for record in records if record.phase == ROUND]
    assert len(rounds) == cfg.spec.num_rounds * len(cfg.sites)
    assert all(record.payload_bytes == (params.weights.size + params.bias.size) * 4 for record in rounds)


def test_cached_final_params_are_read_only(small_cfg):
    _, result = execute_run(small_cfg)
    for array in (result.final_params.weights, result.final_params.bias):
        with pytest.raises(ValueError):
            array[0] = 1.0


# sha256 of each bundled scenario's artifacts at its own seed; summary.json's
# is taken without `accuracy_by_round`, which depends on the BLAS build
PINNED_SHA256 = {
    "cifar_tiers_high": {
        "rounds.csv": "0e8eabb4e768c1bc45698deddd6070e6f3ba9cdce8f86d027fdc33904ecb0024",
        "run.json": "dcdc0495f67caf8d9a0f6771283960a9641d78990accfbbe771323aa30c1cfa5",
        "summary.json": "82be30149552d7c809cb4eb30d57d2db99ae2073f62e80e21b001f123a0082b5",
    },
    "cifar_tiers_medium": {
        "rounds.csv": "1f8daccfcc8a093c1311bca37e7e2ae3b8c050369443fde1b53d9387167e5d07",
        "run.json": "de3d08497cba067ef79c6670b2afd84732e819c1924c9d9d561131426e77e3be",
        "summary.json": "39ce41c5bf261ff082aafc5a286d41fdd0f8876ca5176998b0f516ff1fd8e088",
    },
    "cifar_tiers_low": {
        "rounds.csv": "c5aa8066cd15ff212213c8afec17c520b7b1877b93b588bd4f4561851ff73cb1",
        "run.json": "85ea2e19401806b49f2c4c2ceb11b7197b2d2320dbe512a508375636b11e181e",
        "summary.json": "71bf387c5d27ed7328788e514e22e5614634748887d80c51f34efa8c9fb0c14f",
    },
    "retina_gpuswap_h100": {
        "rounds.csv": "e162f19578c2ffd86e10d5afd020efcd54b244d1b70eef2e9e9ed3dd9390751d",
        "run.json": "722b242404616623be19593eea4f2c03690e3020449d17c7e13b5dda32bb72c5",
        "summary.json": "2bd32b1e797c521a96953df29bdcb513098c9d59ce8f164b883ea62f162d6243",
    },
    "retina_gpuswap_v100": {
        "rounds.csv": "7e21532321a7325baa16160fe14f9276ac919b2ddb8cbf179974e66cfaa66630",
        "run.json": "0bc2ec65019c5972daa1d96ff132845e72f108c66e8b6efe3cc2669a84402428",
        "summary.json": "1b3ae4cc4e78f7e499bb90f248d7973d325771021b0e8053b42b4ad85a9be9cd",
    },
}


@pytest.mark.parametrize("scenario", BUNDLED)
def test_warm_run_is_byte_identical_to_cold_run(scenario, tmp_path):
    for out in ("cold", "warm"):
        assert main(["run", "--config", scenario, "--out", str(tmp_path / out)]) == 0
    info = train_trajectory.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for name in ARTIFACTS:
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()
    summary = json.loads((tmp_path / "cold" / "summary.json").read_text(encoding="utf-8"))
    del summary["accuracy_by_round"]
    write_json(tmp_path / "summary.json", summary)
    pinned = {name: tmp_path / "cold" / name for name in ("rounds.csv", "run.json")}
    pinned["summary.json"] = tmp_path / "summary.json"
    for name, path in pinned.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[scenario][name], name


@pytest.mark.parametrize("scenario", BUNDLED)
def test_plan_run_is_the_run_without_training(scenario, tmp_path, monkeypatch):
    calls = []

    def counted(records):
        calls.append(len(records))
        return summarize_run(records)

    for site in ("greenfl.runner.summarize_run", "greenfl.cli.summarize_run"):
        monkeypatch.setattr(site, counted)
    out = tmp_path / "out"
    assert main(["run", "--config", scenario, "--out", str(out)]) == 0
    assert len(calls) == 1  # the run totals its ledger once

    monkeypatch.setattr("greenfl.runner.train_trajectory", lambda spec: pytest.fail("plan_run trained"))
    monkeypatch.setattr("greenfl.runner.build_dataset", lambda spec: pytest.fail("plan_run built the dataset"))
    monkeypatch.setattr("greenfl.runner.build_shards", lambda spec: pytest.fail("plan_run built the shards"))
    records, report = plan_run(load_config(bundled_config_path(scenario)))
    assert write_round_log(records).encode("utf-8") == (out / "rounds.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    del summary["accuracy_by_round"]
    planned = report.to_dict()
    assert planned.pop("accuracy_by_round") is None
    assert planned == summary


@pytest.mark.parametrize("scenario", BUNDLED)
def test_ledger_reads_no_learning_knob(scenario):
    # with the shard sizes fixed, a learning rate or a class separation moves
    # only the trajectory, and the seed reaches the ledger only as each row's
    # seed field
    doc = json.loads(bundled_config_path(scenario).read_text(encoding="utf-8"))
    cfg = parse_config(doc)
    sizes = [len(shard) for shard in build_shards(cfg.spec)]
    ledger = build_ledger(cfg, sizes)
    for key in ("learning_rate", "separation"):
        edited = parse_config({**doc, "workload": {**doc["workload"], key: 2 * doc["workload"][key]}})
        assert edited.spec != cfg.spec
        assert build_ledger(edited, sizes) == ledger
    seed = doc["seed"] + 1
    reseeded = build_ledger(parse_config({**doc, "seed": seed}), sizes)
    assert all(row.seed != seed for row in ledger)
    assert reseeded == [dataclasses.replace(row, seed=seed) for row in ledger]
