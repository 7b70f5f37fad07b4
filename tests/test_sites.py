import pytest

from greenfl.sites import (
    BUILTIN_HARDWARE,
    BUILTIN_REGIONS,
    BUILTIN_TIERS,
    EVALUATE,
    GPU_SWAP_RUNTIME_RATIO,
    IDLE,
    INIT,
    ROUND,
    EfficiencyTier,
    HardwareProfile,
    effective_power,
    effective_train_duration,
)
from greenfl.units import EnergyKwh, PowerDrawW


def profile(throughput=10.0, train=100.0, idle=30.0):
    return HardwareProfile(
        name="test",
        train_power=PowerDrawW(cpu_w=train),
        idle_power=PowerDrawW(cpu_w=idle),
        init_spike_energy=EnergyKwh(0.0),
        throughput_steps_per_s=throughput,
    )


HIGH = EfficiencyTier("high", 1.0, 1.0)


def test_duration_is_steps_over_throughput():
    assert effective_train_duration(profile(), HIGH, 600).seconds == pytest.approx(60.0)


def test_duration_scales_linearly_with_slowdown():
    tier = EfficiencyTier("medium", 2.0, 1.0)
    assert effective_train_duration(profile(), tier, 600).seconds == pytest.approx(120.0)


def test_gpu_preset_duration_ratio():
    h100 = BUILTIN_HARDWARE["h100_like"]
    v100 = BUILTIN_HARDWARE["v100_like"]
    ratio = (
        effective_train_duration(v100, HIGH, 1000).seconds
        / effective_train_duration(h100, HIGH, 1000).seconds
    )
    assert ratio == pytest.approx(GPU_SWAP_RUNTIME_RATIO, rel=1e-9)
    assert ratio == pytest.approx(1.734, abs=5e-4)


def test_high_tier_power_is_identity():
    assert effective_power(profile(), HIGH, ROUND).total == pytest.approx(100.0)


def test_power_scale_applies_to_training_and_evaluation():
    tier = EfficiencyTier("low", 1.0, 2.0)
    assert effective_power(profile(), tier, ROUND).total == pytest.approx(200.0)
    assert effective_power(profile(), tier, EVALUATE).total == pytest.approx(200.0)


def test_idle_power_ignores_power_scale():
    tier = EfficiencyTier("low", 3.0, 5.0)
    assert effective_power(profile(), tier, IDLE).total == pytest.approx(30.0)


def test_init_power_is_unscaled_train_power():
    tier = EfficiencyTier("low", 3.0, 5.0)
    assert effective_power(profile(), tier, INIT).total == pytest.approx(100.0)


def test_presets_include_required_entries():
    assert {"h100_like", "v100_like"} <= set(BUILTIN_HARDWARE)
    assert {"high", "medium", "low"} <= set(BUILTIN_TIERS)
    assert "USA" in BUILTIN_REGIONS


def test_high_preset_is_the_fixed_reference():
    tier = BUILTIN_TIERS["high"]
    assert (tier.slowdown_factor, tier.power_scale) == (1.0, 1.0)


@pytest.mark.parametrize(
    "label, energy_ratio", [("medium", 0.000563 / 0.000062), ("low", 0.001449 / 0.000062)]
)
def test_preset_tiers_reproduce_published_energy_ratios(label, energy_ratio):
    tier = BUILTIN_TIERS[label]
    assert tier.slowdown_factor * tier.power_scale == pytest.approx(energy_ratio, rel=1e-9)


def test_high_tier_must_have_unit_factors():
    with pytest.raises(ValueError):
        EfficiencyTier("high", 2.0, 1.0)


def test_slowdown_monotonicity():
    durations = [
        effective_train_duration(profile(), EfficiencyTier(f"t{i}", s, 1.0), 100).seconds
        for i, s in enumerate([1.0, 1.5, 4.0])
    ]
    assert durations == sorted(durations)
    assert len(set(durations)) == 3


def test_idle_above_train_power_rejected():
    with pytest.raises(ValueError):
        profile(train=10.0, idle=20.0)
