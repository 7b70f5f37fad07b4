"""Phase-aware energy/CO2e ledger entries.

A run's ledger is a list of `EmissionsRecord` spans, one per site and
phase: one-time `init`, per-round `round`, `idle` (waiting for the round
barrier) and `evaluate`.  `orchestrator.build_ledger` computes every span
in closed form.  A span's energy is its constant power times its duration
(`units.energy_of`), except on a site with zero training power, whose
zero-length init span carries the startup spike as a lump; its CO2e is
that energy times the site's grid intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .units import CarbonIntensity, EmissionsKg, EnergyKwh, SimDuration

INIT = "init"
IDLE = "idle"
ROUND = "round"
EVALUATE = "evaluate"

_KINDS = (INIT, IDLE, ROUND, EVALUATE)


@dataclass(frozen=True)
class Phase:
    """A named accounting phase. `round_index` is 0 for init, >= 1 otherwise."""

    kind: str
    round_index: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.kind == INIT:
            if self.round_index != 0:
                raise ValueError("init phase carries no round index")
        elif self.round_index < 1:
            raise ValueError(f"{self.kind} phase requires round index >= 1")

    @classmethod
    def init(cls) -> "Phase":
        return cls(INIT, 0)

    @classmethod
    def idle(cls, round_index: int) -> "Phase":
        return cls(IDLE, round_index)

    @classmethod
    def round(cls, round_index: int) -> "Phase":
        return cls(ROUND, round_index)

    @classmethod
    def evaluate(cls, round_index: int) -> "Phase":
        return cls(EVALUATE, round_index)


@dataclass(frozen=True)
class EmissionsRecord:
    """One task span of one site with its attributed energy and CO2e."""

    site_id: str
    phase: Phase
    start: SimDuration
    duration: SimDuration
    energy: EnergyKwh
    co2e: EmissionsKg
    ci: CarbonIntensity
