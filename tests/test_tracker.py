"""The ledger: the rows `orchestrator.build_ledger` computes from a parsed
run and its shard sizes, one per span of one site in one phase."""

import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfl.comm import CommEnergyModel
from greenfl.config import RunConfig, TrajectorySpec, WorkloadConfig, parse_config
from greenfl.errors import SchemaViolation
from greenfl.orchestrator import build_ledger
from greenfl.partition import PartitionConfig
from greenfl.reporting import summarize_run, validate_record
from greenfl.sites import (
    EVALUATE,
    IDLE,
    INIT,
    PHASES,
    ROUND,
    EfficiencyTier,
    GridRegion,
    HardwareProfile,
    SiteConfig,
    effective_power,
)
from greenfl.units import JOULES_PER_KWH, EnergyKwh, PowerDrawW, energy_of
from greenfl.workload import TrainConfig

from conftest import small_doc


def ledger_of(run, shard_sizes):
    """The run's rows."""
    return build_ledger(run, shard_sizes)


def site(site_id, train_w=90.0, idle_w=30.0, spike_kwh=1e-6, throughput=10.0):
    hardware = HardwareProfile(
        name=f"hw-{site_id}",
        train_power=PowerDrawW(cpu_w=train_w),
        idle_power=PowerDrawW(cpu_w=idle_w),
        init_spike_energy=EnergyKwh(spike_kwh),
        throughput_steps_per_s=throughput,
    )
    return SiteConfig(site_id, hardware, EfficiencyTier("high", 1.0, 1.0), GridRegion("X", 0.406))


def plan(sites, num_rounds=2, evaluate_each_round=True, local_epochs=1, batch_size=10):
    """Run "r" at seed 0, whose 10 x 90 model sends a 3640-byte update each round."""
    spec = TrajectorySpec(
        workload=WorkloadConfig(num_classes=10, num_features=90, samples_per_class=1, separation=5.0),
        train=TrainConfig(local_epochs=local_epochs, batch_size=batch_size),
        partition=PartitionConfig(len(sites), 1.0, 0),
        num_rounds=num_rounds,
    )
    return RunConfig("r", sites, spec, CommEnergyModel(0.006), evaluate_each_round)


def spans_of(spans, site_id):
    """`site_id`'s rows in phase order: init, then round, idle and evaluate
    per round.  The ledger itself is in time order, where a zero-length
    span can tie with the next one and sorts by phase name."""
    own = (s for s in spans if s.site_id == site_id)
    return sorted(own, key=lambda s: (s.round_index, PHASES.index(s.phase)))


def test_start_init_on_fresh_tracker():
    # every site's ledger opens with its one init span at t=0
    spans = ledger_of(plan([site("a"), site("b", train_w=0.0, idle_w=0.0, spike_kwh=1e-3)]), [30, 60])
    for site_id in ("a", "b"):
        first = spans_of(spans, site_id)[0]
        assert (first.phase, first.round_index) == (INIT, 0)
        assert first.start_s == 0.0


def test_overlapping_span_rejected():
    # a site's next span never opens before its previous one has closed
    spans = ledger_of(plan([site("a", throughput=2.0), site("b", throughput=9.0)], 3), [77, 13])
    for site_id in ("a", "b"):
        own = spans_of(spans, site_id)
        for a, b in zip(own, own[1:]):
            assert a.start_s + a.duration_s <= b.start_s + math.ulp(b.start_s)


def test_duplicate_init_rejected():
    # an init row carries no round index; a valid plan gives each site one init
    # (`parse_config` rejects a plan that names a site twice)
    spans = ledger_of(plan([site("a"), site("b")], 3), [20, 40])
    assert Counter(s.site_id for s in spans if s.phase == INIT) == {"a": 1, "b": 1}
    init = next(s for s in spans if s.phase == INIT)
    with pytest.raises(SchemaViolation) as err:
        validate_record(dataclasses.replace(init, round_index=1))
    assert err.value.field == "round_index"


def test_clock_regression_rejected():
    # a span cannot end before it starts: its duration would be negative
    spans = ledger_of(plan([site("a", throughput=4.0), site("b")], 2), [50, 10])
    with pytest.raises(SchemaViolation) as err:
        validate_record(dataclasses.replace(spans[-1], duration_s=-1.0))
    assert err.value.field == "duration_s"
    for site_id in ("a", "b"):
        starts = [s.start_s for s in spans_of(spans, site_id)]
        assert starts == sorted(starts)
        assert all(s.duration_s >= 0.0 for s in spans_of(spans, site_id))


def test_zero_length_span_has_zero_energy():
    spans = ledger_of(plan([site("a", throughput=5.0), site("b")]), [100, 100])
    zero = [s for s in spans if s.phase == IDLE and s.duration_s == 0.0]
    assert [s.round_index for s in zero] == [1, 2]  # the slowest site, once per round
    for span in zero:
        assert span.energy_kwh == 0.0
        assert span.co2e_kg == 0.0


def test_minute_span_matches_unit_conversion_oracle():
    # 60 steps at 1 step/s: a 60 s round span at 62 W
    spans = ledger_of(
        plan([site("a", train_w=62.0, idle_w=0.0, spike_kwh=0.0, throughput=1.0)], 1, False, 1, 1), [60]
    )
    (record,) = [s for s in spans if s.phase == ROUND]
    assert (record.round_index, record.duration_s) == (1, 60.0)
    oracle = energy_of(62.0, 60.0)
    assert record.energy_kwh == pytest.approx(oracle, rel=1e-12)
    assert record.co2e_kg == pytest.approx(oracle * 0.406, rel=1e-12)
    assert record.co2e_kg == pytest.approx(4.19e-4, rel=5e-3)


def test_ledger_insertion_order_and_partition_by_site():
    spans = ledger_of(plan([site("a"), site("b", throughput=3.0)], 1, False), [40, 70])
    assert Counter(s.site_id for s in spans) == {"a": 3, "b": 3}
    for site_id in ("a", "b"):
        # the rows are in time order, and no two spans of a site start together here
        assert [r.phase for r in spans if r.site_id == site_id] == [INIT, ROUND, IDLE]


def test_run_totals_empty_ledger_is_zero():
    # no spike and no training steps: every span is zero-length
    cfg = parse_config(small_doc(
        evaluate_each_round=False,
        hardware={"free": {
            "train_power_w": {"cpu_w": 90.0},
            "idle_power_w": {"cpu_w": 30.0},
            "throughput_steps_per_s": 10.0,
        }},
        sites=[{"site_id": "a", "hardware": "free", "tier": "high", "region": "USA"}],
        partition={"num_clients": 1, "alpha": 1.0, "seed": 0},
        workload=dict(small_doc()["workload"], local_epochs=0),
    ))
    report = summarize_run(ledger_of(cfg, [50]))
    totals = report.per_site["a"]
    assert (totals.energy_kwh, totals.co2e_kg, totals.busy_s) == (0.0, 0.0, 0.0)


def test_run_totals_equals_brute_force_fold(rng):
    # per-site run totals in the summary are the fold of the site's spans
    doc = small_doc(
        num_rounds=10,
        partition={"num_clients": 6, "alpha": 1.0, "seed": 0},
        hardware={
            f"hw{i}": {
                "train_power_w": {"cpu_w": float(rng.uniform(10, 200))},
                "idle_power_w": {"cpu_w": float(rng.uniform(0, 10))},
                "init_spike_energy_kwh": float(rng.uniform(0, 1e-5)),
                "throughput_steps_per_s": float(rng.uniform(1, 100)),
            }
            for i in range(6)
        },
        sites=[{"site_id": f"s{i}", "hardware": f"hw{i}", "tier": "high", "region": "USA"} for i in range(6)],
    )
    cfg = parse_config(doc)
    spans = ledger_of(cfg, [int(n) for n in rng.integers(1, 500, size=6)])
    report = summarize_run(spans)
    for site_cfg in cfg.sites:
        ledger = spans_of(spans, site_cfg.site_id)
        assert len(ledger) == 31
        totals = report.per_site[site_cfg.site_id]
        assert totals.energy_kwh == pytest.approx(sum(r.energy_kwh for r in ledger), rel=1e-9)
        assert totals.co2e_kg == pytest.approx(sum(r.co2e_kg for r in ledger), rel=1e-9)
        assert totals.busy_s == pytest.approx(sum(r.duration_s for r in ledger), rel=1e-9)
        # phase disjointness
        for a, b in zip(ledger, ledger[1:]):
            assert a.start_s + a.duration_s <= b.start_s + 1e-12


def test_identical_inputs_give_bit_identical_ledgers():
    def build():
        return ledger_of(plan([site("a"), site("b", train_w=283.4, throughput=7.3)], 3), [41, 17])

    first, second = build(), build()
    assert first == second


watts = st.one_of(st.just(0.0), st.floats(0.1, 500.0))


@st.composite
def sites(draw):
    out = []
    for i in range(draw(st.integers(1, 6))):
        train = PowerDrawW(draw(watts), draw(watts), draw(watts))
        hardware = HardwareProfile(
            name=f"hw{i}",
            train_power=train,
            idle_power=train.scaled(draw(st.floats(0.0, 1.0))),
            init_spike_energy=EnergyKwh(draw(st.floats(0.0, 1e-3))),
            throughput_steps_per_s=draw(st.floats(0.5, 5000.0)),
        )
        tier = EfficiencyTier("t", draw(st.floats(1.0, 10.0)), draw(st.floats(0.1, 30.0)))
        out.append(SiteConfig(f"s{i}", hardware, tier, GridRegion("X", draw(st.floats(0.0, 1.5)))))
    return out


@st.composite
def ledgers(draw):
    run = plan(
        draw(sites()),
        num_rounds=draw(st.integers(1, 5)),
        evaluate_each_round=draw(st.booleans()),
        local_epochs=draw(st.integers(0, 5)),
        batch_size=draw(st.integers(1, 600)),
    )
    shard_sizes = draw(st.lists(st.integers(0, 5000), min_size=len(run.sites), max_size=len(run.sites)))
    return run, shard_sizes


@settings(max_examples=300, deadline=None)
@given(ledgers())
def test_build_ledger_properties(drawn):
    run, shard_sizes = drawn
    spans = ledger_of(run, shard_sizes)
    rounds = range(1, run.spec.num_rounds + 1)
    # every row is a valid schema row, and the rows are in (start_s, site_id, phase) order
    for span in spans:
        validate_record(span)
    keys = [(s.start_s, s.site_id, s.phase) for s in spans]
    assert keys == sorted(keys)

    for site_cfg in run.sites:
        own = spans_of(spans, site_cfg.site_id)
        # one init, then round, idle and (optional) evaluate spans per round
        expected = [(INIT, 0)]
        for r in rounds:
            expected += [(ROUND, r), (IDLE, r)] + ([(EVALUATE, r)] if run.evaluate_each_round else [])
        assert [(s.phase, s.round_index) for s in own] == expected
        # never overlapping: a span ends, up to rounding of end - start, where the next starts or before
        for a, b in zip(own, own[1:]):
            assert a.start_s + a.duration_s <= b.start_s + math.ulp(b.start_s)

        for span in own:
            power = effective_power(site_cfg.hardware, site_cfg.tier, span.phase).total
            spike = site_cfg.hardware.init_spike_energy.value
            if span.phase == INIT and power == 0.0:
                assert (span.duration_s, span.energy_kwh) == (0.0, spike)
            else:
                assert span.energy_kwh == power * span.duration_s / JOULES_PER_KWH
            if span.phase == INIT:
                assert span.start_s == 0.0
                assert span.energy_kwh == pytest.approx(spike, rel=1e-12, abs=1e-300)
            assert span.ci_kg_per_kwh == site_cfg.region.ci_kg_per_kwh
            assert span.co2e_kg == span.energy_kwh * span.ci_kg_per_kwh
            assert span.payload_bytes == (3640 if span.phase == ROUND else None)

    # every site starts a round at one barrier, and train + idle ends at the next one
    for r in rounds:
        trains = [s for s in spans if (s.phase, s.round_index) == (ROUND, r)]
        idles = [s for s in spans if (s.phase, s.round_index) == (IDLE, r)]
        assert len({s.start_s for s in trains}) == 1
        assert min(s.duration_s for s in idles) == 0.0
        barrier = next(s.start_s for s in idles if s.duration_s == 0.0)
        ends = [s.start_s + s.duration_s for s in idles]
        assert ends == pytest.approx([barrier] * len(ends), rel=1e-12, abs=1e-300)
        assert all(s.start_s == barrier for s in spans if (s.phase, s.round_index) == (EVALUATE, r))
