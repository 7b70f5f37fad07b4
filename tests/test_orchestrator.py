import numpy as np
import pytest

from greenfl.config import parse_config
from greenfl.errors import EmptyUpdateSet, ShapeMismatch
from greenfl.orchestrator import fedavg_aggregate
from greenfl.runner import execute_run, train_trajectory
from greenfl.tracker import EVALUATE, IDLE, INIT, ROUND
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


def ledger_by_phase(tracker, site_id):
    out = {}
    for record in tracker.ledger(site_id):
        out.setdefault(record.phase.kind, []).append(record)
    return out


def test_round_structure_and_idle_barrier(small_cfg):
    records, result = execute_run(small_cfg)
    tracker = result.tracker
    num_rounds = small_cfg.plan.num_rounds
    for site in small_cfg.plan.sites:
        phases = ledger_by_phase(tracker, site.site_id)
        assert len(phases[INIT]) == 1
        assert len(phases[ROUND]) == num_rounds
        assert len(phases[IDLE]) == num_rounds
        assert len(phases[EVALUATE]) == num_rounds
        # init precedes every round span
        assert phases[INIT][0].start.seconds <= min(r.start.seconds for r in phases[ROUND])
    # barrier semantics: train + idle ends at the same instant for all sites
    for outcome in result.outcomes:
        ends = {
            site: outcome.train_duration_s[site] + outcome.idle_duration_s[site]
            for site in outcome.train_duration_s
        }
        assert len({round(v, 9) for v in ends.values()}) == 1
        assert min(outcome.idle_duration_s.values()) == 0.0


def test_single_site_never_idles():
    doc = small_doc(
        partition={"num_clients": 1, "alpha": 1.0, "seed": 0},
        sites=[{"site_id": "solo", "hardware": "h100_like", "tier": "high", "region": "USA"}],
    )
    _, result = execute_run(parse_config(doc))
    for outcome in result.outcomes:
        assert outcome.idle_duration_s["solo"] == 0.0


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
    _, result_h = execute_run(h)
    train_trajectory.cache_clear()  # train again rather than reuse the first trajectory
    _, result_v = execute_run(v)
    ratio = 503.02 / 290.02
    for oh, ov in zip(result_h.outcomes, result_v.outcomes):
        assert oh.payload_bytes == ov.payload_bytes
        for site in oh.train_duration_s:
            assert ov.train_duration_s[site] == pytest.approx(oh.train_duration_s[site] * ratio, rel=1e-9)


def test_accuracy_non_decreasing_within_noise(small_cfg):
    _, result = execute_run(small_cfg)
    accs = result.accuracy_by_round
    for earlier, later in zip(accs, accs[1:]):
        assert later >= earlier - 0.02


def test_zero_rounds_rejected():
    with pytest.raises(Exception):
        parse_config(small_doc(num_rounds=0))
