"""Communication energy/emissions estimates from transmitted bytes.

One client update of D_GB gigabytes costs 2 * D_GB * I_net kilowatt-hours
(the factor 2 covers the upload and the matching download), and the
corresponding CO2e is that energy times the grid intensity of the region
the transfer is attributed to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sites import GridRegion
from .units import EmissionsKg, EnergyKwh

BYTES_PER_GB = 1e9
BIDIRECTIONAL_FACTOR = 2.0


@dataclass(frozen=True)
class CommEnergyModel:
    net_intensity_kwh_per_gb: float

    def __post_init__(self):
        if not self.net_intensity_kwh_per_gb >= 0:
            raise ValueError("network energy intensity must be >= 0")


@dataclass(frozen=True)
class UpdatePayload:
    site_id: str
    round_index: int
    bytes: int

    def __post_init__(self):
        if self.bytes < 0:
            raise ValueError("payload bytes must be >= 0")


def comm_energy(payload: UpdatePayload, model: CommEnergyModel) -> EnergyKwh:
    gb = payload.bytes / BYTES_PER_GB
    return EnergyKwh(BIDIRECTIONAL_FACTOR * gb * model.net_intensity_kwh_per_gb)


def comm_emissions(energy: EnergyKwh, grid: GridRegion) -> EmissionsKg:
    return EmissionsKg(energy.value * grid.ci_kg_per_kwh)
