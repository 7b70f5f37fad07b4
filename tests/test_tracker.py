"""The ledger: the spans `orchestrator.build_ledger` computes from a plan."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfl.comm import CommEnergyModel
from greenfl.config import parse_config
from greenfl.orchestrator import RunPlan, build_ledger
from greenfl.reporting import summarize_run
from greenfl.runner import ledger_to_records
from greenfl.sites import EfficiencyTier, GridRegion, HardwareProfile, SiteConfig, effective_power
from greenfl.tracker import IDLE, INIT, ROUND, Phase
from greenfl.units import JOULES_PER_KWH, EnergyKwh, PowerDrawW, SimDuration, energy_of
from greenfl.workload import TrainConfig

from conftest import small_doc

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
    return RunPlan(
        num_rounds=num_rounds,
        sites=sites,
        train_cfg=TrainConfig(local_epochs=local_epochs, batch_size=batch_size),
        comm_model=CommEnergyModel(0.006),
        evaluate_each_round=evaluate_each_round,
    )


def spans_of(spans, site_id):
    return [s for s in spans if s.site_id == site_id]


def test_start_init_on_fresh_tracker():
    # every site's ledger opens with its one init span at t=0
    spans = build_ledger(plan([site("a"), site("b", train_w=0.0, idle_w=0.0, spike_kwh=1e-3)]), [30, 60])
    for site_id in ("a", "b"):
        first = spans_of(spans, site_id)[0]
        assert first.phase == Phase.init()
        assert first.phase.kind == "init"
        assert first.start.seconds == 0.0


def test_overlapping_span_rejected():
    # a site's next span never opens before its previous one has closed
    spans = build_ledger(plan([site("a", throughput=2.0), site("b", throughput=9.0)], 3), [77, 13])
    for site_id in ("a", "b"):
        own = spans_of(spans, site_id)
        for a, b in zip(own, own[1:]):
            assert a.start.seconds + a.duration.seconds <= b.start.seconds + math.ulp(b.start.seconds)


def test_duplicate_init_rejected():
    # a plan naming a site twice, which would give it two init spans, is rejected;
    # an init phase carries no round index; a valid plan gives each site one init
    with pytest.raises(ValueError, match="unique"):
        plan([site("a"), site("a")])
    with pytest.raises(ValueError):
        Phase(INIT, 1)
    spans = build_ledger(plan([site("a"), site("b")], 3), [20, 40])
    assert Counter(s.site_id for s in spans if s.phase.kind == INIT) == {"a": 1, "b": 1}


def test_clock_regression_rejected():
    # a span cannot end before it starts: its duration would be negative
    with pytest.raises(ValueError, match="non-negative"):
        SimDuration(4.0 - 5.0)
    spans = build_ledger(plan([site("a", throughput=4.0), site("b")], 2), [50, 10])
    for site_id in ("a", "b"):
        starts = [s.start.seconds for s in spans_of(spans, site_id)]
        assert starts == sorted(starts)
        assert all(s.duration.seconds >= 0.0 for s in spans_of(spans, site_id))


def test_zero_length_span_has_zero_energy():
    spans = build_ledger(plan([site("a", throughput=5.0), site("b")]), [100, 100])
    zero = [s for s in spans if s.phase.kind == IDLE and s.duration.seconds == 0.0]
    assert [s.phase.round_index for s in zero] == [1, 2]  # the slowest site, once per round
    for span in zero:
        assert span.energy.value == 0.0
        assert span.co2e.value == 0.0


def test_minute_span_matches_unit_conversion_oracle():
    # 60 steps at 1 step/s: a 60 s round span at 62 W
    p62 = PowerDrawW(cpu_w=62.0)
    spans = build_ledger(
        plan([site("a", train_w=62.0, idle_w=0.0, spike_kwh=0.0, throughput=1.0)], 1, False, 1, 1), [60]
    )
    (record,) = [s for s in spans if s.phase == Phase.round(1)]
    assert record.duration.seconds == 60.0
    oracle = energy_of(p62, SimDuration(60.0))
    assert record.energy.value == pytest.approx(oracle.value, rel=1e-12)
    assert record.co2e.value == pytest.approx(oracle.value * 0.406, rel=1e-12)
    assert record.co2e.value == pytest.approx(4.19e-4, rel=5e-3)


def test_ledger_insertion_order_and_partition_by_site():
    spans = build_ledger(plan([site("a"), site("b", throughput=3.0)], 1, False), [40, 70])
    assert Counter(s.site_id for s in spans) == {"a": 3, "b": 3}
    for site_id in ("a", "b"):
        assert [r.phase.kind for r in spans_of(spans, site_id)] == [INIT, ROUND, IDLE]


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
    report = summarize_run(ledger_to_records(cfg, build_ledger(cfg.plan, [50]), 3640))
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
    spans = build_ledger(cfg.plan, [int(n) for n in rng.integers(1, 500, size=6)])
    report = summarize_run(ledger_to_records(cfg, spans, 3640))
    for site_cfg in cfg.plan.sites:
        ledger = spans_of(spans, site_cfg.site_id)
        assert len(ledger) == 31
        totals = report.per_site[site_cfg.site_id]
        assert totals.energy_kwh == pytest.approx(sum(r.energy.value for r in ledger), rel=1e-9)
        assert totals.co2e_kg == pytest.approx(sum(r.co2e.value for r in ledger), rel=1e-9)
        assert totals.busy_s == pytest.approx(sum(r.duration.seconds for r in ledger), rel=1e-9)
        # phase disjointness
        for a, b in zip(ledger, ledger[1:]):
            assert a.start.seconds + a.duration.seconds <= b.start.seconds + 1e-12


def test_identical_inputs_give_bit_identical_ledgers():
    def build():
        return build_ledger(plan([site("a"), site("b", train_w=283.4, throughput=7.3)], 3), [41, 17])

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
    spans = build_ledger(run, shard_sizes)
    rounds = range(1, run.num_rounds + 1)

    for site_cfg in run.sites:
        own = spans_of(spans, site_cfg.site_id)
        # one init, then round, idle and (optional) evaluate spans per round, in order
        expected = [Phase.init()]
        for r in rounds:
            expected += [Phase.round(r), Phase.idle(r)] + ([Phase.evaluate(r)] if run.evaluate_each_round else [])
        assert [s.phase for s in own] == expected
        # never overlapping: a span ends, up to rounding of end - start, where the next starts or before
        for a, b in zip(own, own[1:]):
            assert a.start.seconds + a.duration.seconds <= b.start.seconds + math.ulp(b.start.seconds)

        for span in own:
            power = effective_power(site_cfg.hardware, site_cfg.tier, span.phase).total
            spike = site_cfg.hardware.init_spike_energy.value
            if span.phase.kind == INIT and power == 0.0:
                assert (span.duration.seconds, span.energy.value) == (0.0, spike)
            else:
                assert span.energy.value == power * span.duration.seconds / JOULES_PER_KWH
            if span.phase.kind == INIT:
                assert span.start.seconds == 0.0
                assert span.energy.value == pytest.approx(spike, rel=1e-12, abs=1e-300)
            assert span.ci.value == site_cfg.region.ci_kg_per_kwh
            assert span.co2e.value == span.energy.value * span.ci.value

    # every site starts a round at one barrier, and train + idle ends at the next one
    for r in rounds:
        trains = [s for s in spans if s.phase == Phase.round(r)]
        idles = [s for s in spans if s.phase == Phase.idle(r)]
        assert len({s.start.seconds for s in trains}) == 1
        assert min(s.duration.seconds for s in idles) == 0.0
        barrier = next(s.start.seconds for s in idles if s.duration.seconds == 0.0)
        ends = [s.start.seconds + s.duration.seconds for s in idles]
        assert ends == pytest.approx([barrier] * len(ends), rel=1e-12, abs=1e-300)
        assert all(s.start.seconds == barrier for s in spans if s.phase == Phase.evaluate(r))
