import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenfl.comm import (
    CommEnergyModel,
    UpdatePayload,
    comm_emissions,
    comm_energy,
)
from greenfl.sites import GridRegion
from greenfl.units import EnergyKwh


def test_half_gigabyte_example():
    e = comm_energy(UpdatePayload("s", 1, 500_000_000), CommEnergyModel(0.006))
    assert e.value == pytest.approx(0.006, rel=1e-12)


def test_zero_bytes_zero_energy():
    assert comm_energy(UpdatePayload("s", 1, 0), CommEnergyModel(5.0)).value == 0.0


def test_model_update_payload_example():
    e = comm_energy(UpdatePayload("s", 1, 3640), CommEnergyModel(0.01))
    assert e.value == pytest.approx(7.28e-8, rel=1e-12)


def test_emissions_substitution():
    assert comm_emissions(EnergyKwh(0.006), GridRegion("X", 0.4)).value == pytest.approx(0.0024, rel=1e-12)


def test_carbon_free_grid():
    assert comm_emissions(EnergyKwh(1.0), GridRegion("X", 0.0)).value == 0.0


def test_sixty_fold_intensity_gap():
    e = EnergyKwh(0.31)
    low = comm_emissions(e, GridRegion("L", 0.012))
    high = comm_emissions(e, GridRegion("H", 0.012 * 60))
    assert high.value / low.value == pytest.approx(60.0, rel=1e-12)


def test_factor_two_invariance():
    a = comm_energy(UpdatePayload("s", 1, 1_000_000), CommEnergyModel(0.004))
    b = comm_energy(UpdatePayload("s", 1, 500_000), CommEnergyModel(0.008))
    assert a.value == pytest.approx(b.value, rel=1e-12)


@given(
    bytes_=st.integers(min_value=0, max_value=10**12),
    intensity=st.floats(min_value=0, max_value=10.0, allow_nan=False),
    k=st.integers(min_value=1, max_value=100),
)
def test_linearity_in_bytes(bytes_, intensity, k):
    model = CommEnergyModel(intensity)
    single = comm_energy(UpdatePayload("s", 1, bytes_), model).value
    scaled = comm_energy(UpdatePayload("s", 1, bytes_ * k), model).value
    assert scaled == pytest.approx(k * single, rel=1e-12, abs=1e-300)


def test_negative_bytes_rejected():
    with pytest.raises(ValueError):
        UpdatePayload("s", 1, -1)
