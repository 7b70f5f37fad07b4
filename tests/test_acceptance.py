"""Acceptance suite: one test per criterion, each printing a PASS line."""

import json
import time

import numpy as np
import pytest

from greenfl.cli import main
from greenfl.comm import CommEnergyModel, UpdatePayload, comm_emissions, comm_energy
from greenfl.config import bundled_config_path, load_config
from greenfl.orchestrator import fedavg_aggregate
from greenfl.partition import (
    LabeledDatasetDescriptor,
    PartitionConfig,
    dirichlet_partition,
    validate_partition,
)
from greenfl.reporting import (
    parse_round_log,
    record_comm_energy,
    region_cis,
    remap_grid_intensity,
    summarize_run,
    validate_record,
    write_round_log,
)
from greenfl.runner import execute_run, train_trajectory
from greenfl.sites import GridRegion
from greenfl.units import EnergyKwh
from greenfl.workload import ModelParams, TrainConfig, evaluate, local_train, make_blobs


def ok(criterion: str):
    print(f"\nACCEPTANCE {criterion}: PASS")


@pytest.fixture(scope="session")
def tier_runs(tmp_path_factory):
    """The three bundled tier scenarios, calibrated from the high baseline."""
    root = tmp_path_factory.mktemp("tiers")
    targets = str(bundled_config_path("table1_targets"))
    started = time.perf_counter()
    assert main(["run", "--config", "cifar_tiers_high", "--out", str(root / "high")]) == 0
    assert main([
        "calibrate", "--baseline", str(root / "high"), "--targets", targets,
        "--out", str(root / "tiers.json"),
    ]) == 0
    for tier in ("medium", "low"):
        assert main([
            "run", "--config", f"cifar_tiers_{tier}", "--tiers", str(root / "tiers.json"),
            "--out", str(root / tier),
        ]) == 0
    elapsed = time.perf_counter() - started
    return {"root": root, "elapsed_s": elapsed}


@pytest.fixture(scope="session")
def gpuswap_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("gpuswap")
    results = {}
    for name in ("h100", "v100"):
        out = root / name
        assert main(["run", "--config", f"retina_gpuswap_{name}", "--out", str(out)]) == 0
        cfg = load_config(bundled_config_path(f"retina_gpuswap_{name}"))
        results[name] = (out, execute_run(cfg))
    return results


def total_co2e(run_dir) -> float:
    return json.loads((run_dir / "summary.json").read_text())["total_co2e_kg"]


def test_criterion_1_tier_ratios(tier_runs, capsys):
    root = tier_runs["root"]
    high = total_co2e(root / "high")
    medium_ratio = total_co2e(root / "medium") / high
    low_ratio = total_co2e(root / "low") / high
    assert medium_ratio == pytest.approx(8.34, abs=0.5)
    assert low_ratio == pytest.approx(21.73, abs=1.0)
    assert tier_runs["elapsed_s"] < 30.0
    # the report command exposes the same ratios
    assert main(["report", "--in", str(root / "high"), str(root / "medium"), str(root / "low")]) == 0
    out = capsys.readouterr().out
    assert "medium/high=" in out and "low/high=" in out
    ok(f"1 tier ratios medium/high={medium_ratio:.2f} low/high={low_ratio:.2f} in {tier_runs['elapsed_s']:.1f}s")


def test_criterion_2_gpu_swap_runtime_gap(gpuswap_runs):
    (h_dir, (h_records, h_trajectory)) = gpuswap_runs["h100"]
    (v_dir, (v_records, v_trajectory)) = gpuswap_runs["v100"]
    h_runtime = json.loads((h_dir / "summary.json").read_text())["runtime_s"]
    v_runtime = json.loads((v_dir / "summary.json").read_text())["runtime_s"]
    ratio = v_runtime / h_runtime
    assert ratio == pytest.approx(1.734, abs=0.02)
    # identical per-site step counts (round durations scale by a constant factor)
    h_rounds = {(r.round_index, r.site_id): r for r in h_records if r.phase == "round"}
    v_rounds = {(r.round_index, r.site_id): r for r in v_records if r.phase == "round"}
    assert h_rounds.keys() == v_rounds.keys()
    for key, rh in h_rounds.items():
        assert rh.payload_bytes == v_rounds[key].payload_bytes
        assert v_rounds[key].duration_s / rh.duration_s == pytest.approx(503.02 / 290.02, rel=1e-9)
    # identical model trajectories
    np.testing.assert_array_equal(h_trajectory.final_params.weights, v_trajectory.final_params.weights)
    np.testing.assert_array_equal(h_trajectory.final_params.bias, v_trajectory.final_params.bias)
    assert h_trajectory.accuracy_by_round == v_trajectory.accuracy_by_round
    ok(f"2 gpu swap runtime ratio={ratio:.4f}")


def test_criterion_3_communication_formula():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        bytes_ = int(rng.integers(0, 10**11))
        i_net = float(rng.uniform(0, 0.1))
        ci = float(rng.uniform(0, 1.5))
        energy = comm_energy(UpdatePayload("s", 1, bytes_), CommEnergyModel(i_net))
        expected = 2.0 * (bytes_ / 1e9) * i_net
        assert energy.value == pytest.approx(expected, rel=1e-12, abs=1e-300)
        co2e = comm_emissions(energy, GridRegion("X", ci))
        assert co2e.value == pytest.approx(expected * ci, rel=1e-12, abs=1e-300)
    # factor-2 and zero-byte edge cases, exact
    assert comm_energy(UpdatePayload("s", 1, 0), CommEnergyModel(1.0)).value == 0.0
    a = comm_energy(UpdatePayload("s", 1, 2_000_000), CommEnergyModel(0.003))
    b = comm_energy(UpdatePayload("s", 1, 1_000_000), CommEnergyModel(0.006))
    assert a.value == b.value
    assert comm_emissions(EnergyKwh(0.5), GridRegion("Z", 0.0)).value == 0.0
    ok("3 communication formula (1000 randomized triples)")


def test_criterion_4_fedavg_oracle_equivalence():
    rng = np.random.default_rng(4)
    for _ in range(100):
        k = int(rng.integers(1, 11))
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 8)))
        updates = [
            (ModelParams(rng.normal(size=shape), rng.normal(size=shape[0])), int(rng.integers(1, 1000)))
            for _ in range(k)
        ]
        out = fedavg_aggregate(updates)
        total = sum(n for _, n in updates)
        expected_w = sum(n * p.weights for p, n in updates) / total
        expected_b = sum(n * p.bias for p, n in updates) / total
        np.testing.assert_allclose(out.weights, expected_w, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(out.bias, expected_b, rtol=1e-12, atol=1e-300)
    ok("4 fedavg equals brute-force weighted mean (100 instances)")


def test_criterion_5_partition_properties():
    dataset = LabeledDatasetDescriptor(
        num_samples=60_000, num_classes=10, labels=np.repeat(np.arange(10), 6000)
    )
    cfg = PartitionConfig(num_clients=6, alpha=1.0, seed=0)
    started = time.perf_counter()
    parts_a = dirichlet_partition(dataset, cfg)
    parts_b = dirichlet_partition(dataset, cfg)
    elapsed = time.perf_counter() - started
    report = validate_partition(dataset, parts_a)
    assert report.ok
    assert sum(report.client_sample_counts) == 60_000
    for pa, pb in zip(parts_a, parts_b):
        np.testing.assert_array_equal(pa.sample_indices, pb.sample_indices)
    # per-class largest-remainder bound against the drawn proportions
    rng = np.random.default_rng(cfg.seed)
    for cls in range(10):
        g = rng.gamma(cfg.alpha, 1.0, cfg.num_clients)
        p = g / g.sum()
        counts = np.array([
            int(np.sum(dataset.labels[part.sample_indices] == cls)) for part in parts_a
        ])
        assert np.all(np.abs(counts - p * 6000) <= 1.0 + 1e-9)
    assert elapsed < 2.0
    ok(f"5 partition properties ({elapsed:.2f}s)")


def test_criterion_6_learning_sanity(tier_runs):
    summary = json.loads((tier_runs["root"] / "high" / "summary.json").read_text())
    federated = summary["accuracy_by_round"][-1]
    assert federated >= 0.95
    dataset = make_blobs()  # pooled default blobs
    trained, _ = local_train(
        ModelParams.zeros(dataset.num_classes, dataset.num_features),
        dataset,
        TrainConfig(local_epochs=10, batch_size=600, learning_rate=0.05, seed=0),
    )
    centralized = evaluate(trained, dataset)
    assert centralized >= 0.97
    ok(f"6 learning sanity federated={federated:.4f} centralized={centralized:.4f}")


def test_criterion_7_conservation_and_schema(tier_runs):
    run_dir = tier_runs["root"] / "high"
    records = parse_round_log((run_dir / "rounds.csv").read_text())
    for record in records:
        validate_record(record)
    summary = json.loads((run_dir / "summary.json").read_text())
    fold_energy = sum(r.energy_kwh for r in records)
    fold_co2e = sum(r.co2e_kg for r in records)
    fold_comm_e = sum(record_comm_energy(r) for r in records)
    fold_comm_c = sum(record_comm_energy(r) * r.ci_kg_per_kwh for r in records)
    assert summary["total_energy_kwh"] == pytest.approx(fold_energy + fold_comm_e, rel=1e-9)
    assert summary["total_co2e_kg"] == pytest.approx(fold_co2e + fold_comm_c, rel=1e-9)
    assert parse_round_log(write_round_log(records)) == records
    ok(f"7 conservation + schema over {len(records)} records")


def test_criterion_8_grid_whatif_linearity(tier_runs, capsys):
    run_dir = tier_runs["root"] / "high"
    records = parse_round_log((run_dir / "rounds.csv").read_text())
    original = region_cis(records)
    k = 3.7
    scaled = remap_grid_intensity(records, {code: ci * k for code, ci in original.items()})
    for before, after in zip(records, scaled):
        assert after.co2e_kg == pytest.approx(k * before.co2e_kg, rel=1e-12, abs=1e-300)
    assert remap_grid_intensity(scaled, original) == records
    # 60x intensity gap -> exactly 60x emissions, through the CLI
    assert main(["whatif", "--in", str(run_dir), "--ci", "0.012"]) == 0
    low = json.loads(capsys.readouterr().out)["remapped_total_co2e_kg"]
    assert main(["whatif", "--in", str(run_dir), "--ci", str(0.012 * 60)]) == 0
    high = json.loads(capsys.readouterr().out)["remapped_total_co2e_kg"]
    assert high / low == pytest.approx(60.0, rel=1e-12)
    ok("8 grid what-if linearity + involution + 60x gap")


def test_criterion_9_determinism(tmp_path):
    config = "cifar_tiers_high"
    for out in ("a", "b"):
        train_trajectory.cache_clear()
        assert main(["run", "--config", config, "--seed", "0", "--out", str(tmp_path / out)]) == 0
        info = train_trajectory.cache_info()
        assert (info.hits, info.misses) == (0, 1)  # trained from scratch, not reused
    for name in ("rounds.csv", "run.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ok("9 determinism: byte-identical artifacts")
