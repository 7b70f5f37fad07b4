"""Client site models: hardware profiles, efficiency tiers and grid regions.

A hardware profile turns training steps into simulated seconds (throughput)
and seconds into watts, one power per phase kind of the ledger: one-time
`init`, per-round `round` (local training), `idle` (waiting for the round
barrier) and `evaluate`.  An efficiency tier degrades a site by stretching
its training duration (slowdown_factor) and scaling its training power
(power_scale); idle draw is deliberately left untouched by the tier so the
two knobs stay independent.  The one-time startup spike is the energy of
the init span: drawn at training power for as long as that takes, or, with
zero training power, as a lump on a zero-length span.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .units import EnergyKwh, PowerDrawW

INIT = "init"
ROUND = "round"
IDLE = "idle"
EVALUATE = "evaluate"
PHASES = (INIT, ROUND, IDLE, EVALUATE)  # in the order a site passes through them

# the largest slowdown_factor a config or tiers file may set, and the largest
# slowdown_factor and power_scale `calibrate_tiers` fits
MAX_TIER_FACTOR = 1000


@dataclass(frozen=True)
class HardwareProfile:
    name: str
    train_power: PowerDrawW
    idle_power: PowerDrawW
    init_spike_energy: EnergyKwh
    throughput_steps_per_s: float

    def __post_init__(self):
        if not self.throughput_steps_per_s > 0:
            raise ValueError("throughput must be > 0")
        for what, power in (("train_power", self.train_power), ("idle_power", self.idle_power)):
            if not isfinite(power.total):
                raise ValueError(f"{what} total {power.total} W overflows the float range")
        if self.idle_power.total > self.train_power.total:
            raise ValueError("idle power cannot exceed training power")


@dataclass(frozen=True)
class EfficiencyTier:
    label: str
    slowdown_factor: float
    power_scale: float

    def __post_init__(self):
        if self.slowdown_factor < 1.0:
            raise ValueError("slowdown_factor must be >= 1")
        if not self.power_scale > 0:
            raise ValueError("power_scale must be > 0")
        if self.label == "high" and (self.slowdown_factor != 1.0 or self.power_scale != 1.0):
            raise ValueError("the high tier is the fixed reference: slowdown 1, power_scale 1")


@dataclass(frozen=True)
class GridRegion:
    code: str
    ci_kg_per_kwh: float

    def __post_init__(self):
        if not self.ci_kg_per_kwh >= 0:
            raise ValueError("carbon intensity must be >= 0")


@dataclass(frozen=True)
class SiteConfig:
    site_id: str
    hardware: HardwareProfile
    tier: EfficiencyTier
    region: GridRegion


def effective_train_duration(profile: HardwareProfile, tier: EfficiencyTier, steps: int) -> float:
    """Simulated seconds to run `steps` training steps on this site."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return steps / profile.throughput_steps_per_s * tier.slowdown_factor


def effective_power(profile: HardwareProfile, tier: EfficiencyTier, phase: str) -> PowerDrawW:
    """Power draw of this site during a span of phase kind `phase`.

    Training and evaluation draw tier-scaled training power; idle draws the
    profile's idle power; init draws unscaled training power (the startup
    spike is a lump, not a power change).
    """
    if phase in (ROUND, EVALUATE):
        return profile.train_power.scaled(tier.power_scale)
    if phase == IDLE:
        return profile.idle_power
    if phase == INIT:
        return profile.train_power
    raise ValueError(f"unknown phase kind {phase!r}")


# Throughputs are calibration constants for the bundled desk-scale
# scenarios, not vendor specs.  The v100-like throughput is defined
# relative to the h100-like one by the observed 503.02/290.02 runtime
# ratio of the GPU-swap comparison.
GPU_SWAP_RUNTIME_RATIO = 503.02 / 290.02

_H100_THROUGHPUT = 1660.0

BUILTIN_HARDWARE = {
    "h100_like": HardwareProfile(
        name="h100_like",
        train_power=PowerDrawW(cpu_w=40.0, gpu_w=300.0, ram_w=20.0),
        idle_power=PowerDrawW(cpu_w=15.0, gpu_w=60.0, ram_w=10.0),
        init_spike_energy=EnergyKwh(3.9e-06),
        throughput_steps_per_s=_H100_THROUGHPUT,
    ),
    "v100_like": HardwareProfile(
        name="v100_like",
        train_power=PowerDrawW(cpu_w=40.0, gpu_w=250.0, ram_w=20.0),
        idle_power=PowerDrawW(cpu_w=15.0, gpu_w=55.0, ram_w=10.0),
        init_spike_energy=EnergyKwh(3.9e-06),
        throughput_steps_per_s=_H100_THROUGHPUT / GPU_SWAP_RUNTIME_RATIO,
    ),
}

# Medium/low numeric values reproduce the published per-round mean energy
# and runtime ratios under the duration*power model; `calibrate_tiers`
# re-derives them bit for bit from `configs/table1_targets.json`.
BUILTIN_TIERS = {
    "high": EfficiencyTier("high", slowdown_factor=1.0, power_scale=1.0),
    "medium": EfficiencyTier("medium", slowdown_factor=1.52 / 0.75, power_scale=(0.000563 / 0.000062) / (1.52 / 0.75)),
    "low": EfficiencyTier("low", slowdown_factor=4.23 / 0.75, power_scale=(0.001449 / 0.000062) / (4.23 / 0.75)),
}

# Static grid-intensity table (kg CO2e per kWh); a stand-in for live data.
BUILTIN_REGIONS = {
    "USA": GridRegion("USA", 0.3871),
    "FRA": GridRegion("FRA", 0.056),
    "SWE": GridRegion("SWE", 0.012),
    "ISL": GridRegion("ISL", 0.012),
    "DEU": GridRegion("DEU", 0.344),
    "POL": GridRegion("POL", 0.72),
    "IND": GridRegion("IND", 0.713),
    "AUS": GridRegion("AUS", 0.501),
}

