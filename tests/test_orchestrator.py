import os

import numpy as np
import pytest

from greenfl import orchestrator, workload
from greenfl.config import build_dataset, build_shards, bundled_config_path, load_config, parse_config
from greenfl.errors import EmptyUpdateSet, ShapeMismatch
from greenfl.orchestrator import fedavg_aggregate
from greenfl.runner import execute_run, train_trajectory
from greenfl.sites import EVALUATE, IDLE, INIT, ROUND
from greenfl.workload import ModelParams

from conftest import small_doc


def rand_params(rng, shape=(3, 4)):
    return ModelParams(rng.normal(size=shape), rng.normal(size=shape[0]))


def test_aggregate_of_identical_updates_is_identity(rng):
    params = rand_params(rng)
    out = fedavg_aggregate([(params, 5), (params, 5)])
    np.testing.assert_allclose(out.weights, params.weights, rtol=1e-15)
    np.testing.assert_allclose(out.bias, params.bias, rtol=1e-15)


def test_aggregate_weighted_mean(rng):
    w1, w2 = rand_params(rng), rand_params(rng)
    out = fedavg_aggregate([(w1, 1), (w2, 3)])
    np.testing.assert_allclose(out.weights, 0.25 * w1.weights + 0.75 * w2.weights, rtol=1e-12)
    np.testing.assert_allclose(out.bias, 0.25 * w1.bias + 0.75 * w2.bias, rtol=1e-12)


def test_aggregate_matches_brute_force(rng):
    updates = [(rand_params(rng), int(rng.integers(1, 100))) for _ in range(6)]
    out = fedavg_aggregate(updates)
    total = sum(n for _, n in updates)
    expected_w = sum(n * p.weights for p, n in updates) / total
    expected_b = sum(n * p.bias for p, n in updates) / total
    np.testing.assert_allclose(out.weights, expected_w, rtol=1e-12)
    np.testing.assert_allclose(out.bias, expected_b, rtol=1e-12)


def test_aggregate_rejects_empty_and_mismatched(rng):
    with pytest.raises(EmptyUpdateSet):
        fedavg_aggregate([])
    with pytest.raises(ShapeMismatch):
        fedavg_aggregate([(rand_params(rng, (3, 4)), 1), (rand_params(rng, (3, 5)), 1)])


def test_aggregate_mismatch_names_the_bias_shape(rng):
    good = rand_params(rng, (3, 4))
    bad = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=5))
    with pytest.raises(ShapeMismatch) as err:
        fedavg_aggregate([(good, 1), (bad, 1)])
    assert "bias (5,)" in str(err.value)


def rows_by_phase(records, site_id):
    out = {}
    for record in records:
        if record.site_id == site_id:
            out.setdefault(record.phase, []).append(record)
    return out


def round_rows(records):
    """(round, site) -> that site's round row."""
    return {(r.round_index, r.site_id): r for r in records if r.phase == ROUND}


def test_round_structure_and_idle_barrier(small_cfg):
    records, _ = execute_run(small_cfg)
    num_rounds = small_cfg.spec.num_rounds
    site_ids = [site.site_id for site in small_cfg.sites]
    for site_id in site_ids:
        phases = rows_by_phase(records, site_id)
        assert len(phases[INIT]) == 1
        assert len(phases[ROUND]) == num_rounds
        assert len(phases[IDLE]) == num_rounds
        assert len(phases[EVALUATE]) == num_rounds
        # init precedes every round span
        assert phases[INIT][0].start_s <= min(r.start_s for r in phases[ROUND])
    # barrier semantics: train + idle ends at the same instant for all sites
    trains = round_rows(records)
    idles = {(r.round_index, r.site_id): r.duration_s for r in records if r.phase == IDLE}
    for round_index in range(1, num_rounds + 1):
        ends = {
            site_id: trains[round_index, site_id].duration_s + idles[round_index, site_id]
            for site_id in site_ids
        }
        assert len({round(v, 9) for v in ends.values()}) == 1
        assert min(idles[round_index, site_id] for site_id in site_ids) == 0.0


def test_single_site_never_idles():
    doc = small_doc(
        partition={"num_clients": 1, "alpha": 1.0, "seed": 0},
        sites=[{"site_id": "solo", "hardware": "h100_like", "tier": "high", "region": "USA"}],
    )
    records, _ = execute_run(parse_config(doc))
    idles = [r for r in records if r.phase == IDLE]
    assert len(idles) == 2
    for record in idles:
        assert record.duration_s == 0.0


def test_zero_power_site_keeps_its_init_spike():
    hardware = {
        "cold": {
            "train_power_w": {},
            "idle_power_w": {},
            "init_spike_energy_kwh": 1e-3,
            "throughput_steps_per_s": 100.0,
        }
    }
    doc = small_doc(hardware=hardware, sites=[
        {"site_id": f"site-{i + 1}", "hardware": "cold", "tier": "high", "region": "USA"}
        for i in range(3)
    ])
    records, _ = execute_run(parse_config(doc))
    inits = [r for r in records if r.phase == INIT]
    assert len(inits) == 3
    for record in inits:
        assert (record.start_s, record.duration_s, record.energy_kwh) == (0.0, 0.0, 1e-3)
        assert record.co2e_kg == 1e-3 * 0.3871
    assert all(r.energy_kwh == 0.0 for r in records if r.phase != INIT)


def test_identical_plans_give_bit_identical_results(small_cfg):
    records_a, result_a = execute_run(small_cfg)
    train_trajectory.cache_clear()  # train again rather than reuse the first trajectory
    records_b, result_b = execute_run(small_cfg)
    assert records_a == records_b
    np.testing.assert_array_equal(result_a.final_params.weights, result_b.final_params.weights)
    assert result_a.accuracy_by_round == result_b.accuracy_by_round


def test_tier_changes_ledger_but_not_model():
    base = parse_config(small_doc())
    slow = parse_config(small_doc(sites=[
        {"site_id": f"site-{i + 1}", "hardware": "h100_like", "tier": "low", "region": "USA"}
        for i in range(3)
    ]))
    records_base, result_base = execute_run(base)
    train_trajectory.cache_clear()  # train again rather than reuse the first trajectory
    records_slow, result_slow = execute_run(slow)
    np.testing.assert_array_equal(result_base.final_params.weights, result_slow.final_params.weights)
    np.testing.assert_array_equal(result_base.final_params.bias, result_slow.final_params.bias)
    assert result_base.accuracy_by_round == result_slow.accuracy_by_round
    base_energy = sum(r.energy_kwh for r in records_base)
    slow_energy = sum(r.energy_kwh for r in records_slow)
    assert slow_energy > base_energy * 2


def test_gpu_swap_keeps_steps_and_scales_runtime():
    h = parse_config(small_doc())
    v = parse_config(small_doc(sites=[
        {"site_id": f"site-{i + 1}", "hardware": "v100_like", "tier": "high", "region": "USA"}
        for i in range(3)
    ]))
    records_h, _ = execute_run(h)
    train_trajectory.cache_clear()  # train again rather than reuse the first trajectory
    records_v, _ = execute_run(v)
    ratio = 503.02 / 290.02
    rows_h, rows_v = round_rows(records_h), round_rows(records_v)
    assert rows_h.keys() == rows_v.keys()
    for key, rh in rows_h.items():
        assert rh.payload_bytes == rows_v[key].payload_bytes
        assert rows_v[key].duration_s == pytest.approx(rh.duration_s * ratio, rel=1e-9)


def test_accuracy_non_decreasing_within_noise(small_cfg):
    _, result = execute_run(small_cfg)
    accs = result.accuracy_by_round
    for earlier, later in zip(accs, accs[1:]):
        assert later >= earlier - 0.02


def test_zero_rounds_rejected():
    with pytest.raises(Exception):
        parse_config(small_doc(num_rounds=0))


def test_an_interrupt_after_round_one_propagates_and_reaps_the_worker(monkeypatch):
    spec = load_config(bundled_config_path("cifar_tiers_high")).spec
    dataset, shards = build_dataset(spec), build_shards(spec)
    live = []

    def interrupt(updates):
        live.append(os.waitpid(-1, os.WNOHANG))  # (0, 0): a worker runs and has not exited
        raise KeyboardInterrupt

    monkeypatch.setattr(workload, "_usable_cores", lambda: 2)
    # round one's aggregation follows its training
    monkeypatch.setattr(orchestrator, "fedavg_aggregate", interrupt)
    with pytest.raises(KeyboardInterrupt):
        orchestrator.run_job(spec.num_rounds, spec.train, dataset, shards)
    assert live == [(0, 0)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
