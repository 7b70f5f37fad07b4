"""Physical-unit value types and the two elementary conversions.

Everything downstream composes these two identities:

    energy [kWh]    = power [W] * time [s] / 3.6e6
    emissions [kg]  = energy [kWh] * carbon intensity [kg/kWh]

All values are in base units (watts, seconds, kWh, kg, kg/kWh); minutes
only ever appear at report-formatting time.  The value types reject
negative magnitudes at construction.  The two conversions take and return
plain floats, so a ledger span never raises: a value that overflows
reaches the span's row, which `reporting.RoundRecord` rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

JOULES_PER_KWH = 3_600_000.0


def _require_non_negative(name: str, value: float) -> None:
    if not value >= 0.0:  # also rejects NaN
        raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class EnergyKwh:
    """Energy in kilowatt-hours."""

    value: float

    def __post_init__(self):
        _require_non_negative("energy", self.value)


@dataclass(frozen=True)
class EmissionsKg:
    """Mass of CO2-equivalent in kilograms."""

    value: float

    def __post_init__(self):
        _require_non_negative("emissions", self.value)


@dataclass(frozen=True)
class PowerDrawW:
    """Instantaneous power draw split into CPU, GPU and RAM components (watts)."""

    cpu_w: float = 0.0
    gpu_w: float = 0.0
    ram_w: float = 0.0

    def __post_init__(self):
        _require_non_negative("cpu_w", self.cpu_w)
        _require_non_negative("gpu_w", self.gpu_w)
        _require_non_negative("ram_w", self.ram_w)

    @property
    def total(self) -> float:
        return self.cpu_w + self.gpu_w + self.ram_w

    def scaled(self, factor: float) -> "PowerDrawW":
        _require_non_negative("power scale", factor)
        return PowerDrawW(self.cpu_w * factor, self.gpu_w * factor, self.ram_w * factor)


def energy_of(power_w: float, seconds: float) -> float:
    """Energy (kWh) drawn at a constant `power_w` watts over `seconds`."""
    return power_w * seconds / JOULES_PER_KWH


def emissions_of(energy_kwh: float, ci_kg_per_kwh: float) -> float:
    """CO2e (kg) attributable to `energy_kwh` on a grid of intensity `ci_kg_per_kwh`."""
    return energy_kwh * ci_kg_per_kwh
