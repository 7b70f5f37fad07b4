import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenfl.units import (
    EmissionsKg,
    EnergyKwh,
    PowerDrawW,
    SimDuration,
    emissions_of,
    energy_of,
)

magnitudes = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def test_energy_of_one_hour_at_100w():
    assert energy_of(PowerDrawW(cpu_w=100.0).total, 3600.0) == pytest.approx(0.1, rel=1e-12)


def test_energy_of_zero_duration():
    assert energy_of(PowerDrawW(gpu_w=500.0).total, 0.0) == 0.0


def test_energy_of_fractional_span():
    e = energy_of(PowerDrawW(cpu_w=30.0, gpu_w=50.0, ram_w=10.0).total, 2.5)
    assert e == pytest.approx(90 * 2.5 / 3.6e6, rel=1e-12)


def test_emissions_of_direct_product():
    assert emissions_of(0.1, 0.4) == pytest.approx(0.04, rel=1e-12)


def test_emissions_of_published_site_totals():
    # 0.32 kWh at the intensity implied by a 0.13 kg site total
    assert emissions_of(0.32, 0.13 / 0.32) == pytest.approx(0.13, rel=1e-12)


def test_emissions_of_zero_energy():
    assert emissions_of(0.0, 123.0) == 0.0


@pytest.mark.parametrize("cls", [EnergyKwh, EmissionsKg, SimDuration])
def test_negative_rejected_at_construction(cls):
    with pytest.raises(ValueError):
        cls(-1e-9)


def test_negative_power_component_rejected():
    with pytest.raises(ValueError):
        PowerDrawW(cpu_w=-1.0)


def test_power_total_sums_components():
    assert PowerDrawW(cpu_w=1.0, gpu_w=2.0, ram_w=3.5).total == 6.5


@given(energy=magnitudes, ci=magnitudes, k=st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_emissions_linearity(energy, ci, k):
    scaled = emissions_of(k * energy, ci)
    direct = k * emissions_of(energy, ci)
    assert scaled == pytest.approx(direct, rel=1e-12, abs=1e-300)


@given(
    power=magnitudes,
    chunks=st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=10),
)
def test_energy_additivity_over_disjoint_spans(power, chunks):
    total = energy_of(power, sum(chunks))
    summed = sum(energy_of(power, c) for c in chunks)
    assert summed == pytest.approx(total, rel=1e-9, abs=1e-300)


@given(energy=st.floats(min_value=1e-9, max_value=1e6), ci_a=st.floats(min_value=1e-9, max_value=1e3), ci_b=st.floats(min_value=1e-9, max_value=1e3))
def test_fixed_energy_emissions_ratio_equals_ci_ratio(energy, ci_a, ci_b):
    ratio = emissions_of(energy, ci_a) / emissions_of(energy, ci_b)
    assert ratio == pytest.approx(ci_a / ci_b, rel=1e-12)
