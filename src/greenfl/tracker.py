"""Phase-aware energy/CO2e ledger.

The simulator replaces hardware power polling with an analytic rule: a
span's energy is integrated in sampling quanta (default 1 s) at the power
given when the span closes, with the final partial quantum pro-rated
linearly.  For constant power this equals P*t exactly, but the quantum
rule is kept explicit because it is the documented measurement model.

Phases mirror the task names used for per-round attribution: one-time
`init`, per-round `round`, `idle` (waiting for the round barrier) and
`evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ClockRegression,
    DuplicateInit,
    OpenSpanPending,
    OverlappingSpan,
    UnknownSite,
)
from .units import (
    JOULES_PER_KWH,
    CarbonIntensity,
    EmissionsKg,
    EnergyKwh,
    PowerDrawW,
    SimDuration,
    emissions_of,
)

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
class SamplingPolicy:
    """Simulated power-sampling interval (seconds)."""

    interval_s: float = 1.0

    def __post_init__(self):
        if not self.interval_s > 0:
            raise ValueError("sampling interval must be > 0")


@dataclass(frozen=True)
class EmissionsRecord:
    """One closed task span with its attributed energy and CO2e."""

    site_id: str
    phase: Phase
    start: SimDuration
    duration: SimDuration
    energy: EnergyKwh
    co2e: EmissionsKg
    ci: CarbonIntensity


@dataclass
class _OpenSpan:
    site_id: str
    phase: Phase
    start_s: float


def integrate_energy(power: PowerDrawW, duration: SimDuration, policy: SamplingPolicy) -> EnergyKwh:
    """Integrate constant power over a span using the sampling-quantum rule."""
    dt = policy.interval_s
    full, rem = divmod(duration.seconds, dt)
    quanta_s = full * dt + rem
    # quanta_s == duration.seconds up to divmod rounding; keep the explicit form
    return EnergyKwh(power.total * quanta_s / JOULES_PER_KWH)


class TaskTracker:
    """Per-site append-only ledger of task spans for one simulation run."""

    def __init__(self, policy: SamplingPolicy | None = None):
        self.policy = policy or SamplingPolicy()
        self._ledgers: dict[str, list[EmissionsRecord]] = {}
        self._open: dict[str, _OpenSpan] = {}

    def start_task(self, site_id: str, phase: Phase, at_s: float) -> _OpenSpan:
        if site_id in self._open:
            raise OverlappingSpan(
                f"site {site_id} already has an open {self._open[site_id].phase.kind} span"
            )
        ledger = self._ledgers.setdefault(site_id, [])
        if phase.kind == INIT and any(r.phase.kind == INIT for r in ledger):
            raise DuplicateInit(f"site {site_id} already recorded an init span")
        span = _OpenSpan(site_id, phase, at_s)
        self._open[site_id] = span
        return span

    def stop_task(
        self,
        span: _OpenSpan,
        at_s: float,
        power: PowerDrawW,
        ci: CarbonIntensity,
        extra_energy: EnergyKwh | None = None,
    ) -> EmissionsRecord:
        """Close `span` at sim time `at_s`.

        `extra_energy` adds a lump on top of the integrated power draw
        (used for the one-time startup spike when the span duration is
        configured independently of the spike size).
        """
        if at_s < span.start_s:
            raise ClockRegression(f"stop at t={at_s} before start t={span.start_s}")
        if self._open.get(span.site_id) is not span:
            raise UnknownSite(f"span for site {span.site_id} is not open")
        duration = SimDuration(at_s - span.start_s)
        energy = integrate_energy(power, duration, self.policy)
        if extra_energy is not None:
            energy = energy + extra_energy
        record = EmissionsRecord(
            site_id=span.site_id,
            phase=span.phase,
            start=SimDuration(span.start_s),
            duration=duration,
            energy=energy,
            co2e=emissions_of(energy, ci),
            ci=ci,
        )
        del self._open[span.site_id]
        self._ledgers[span.site_id].append(record)
        return record

    def sites(self) -> list[str]:
        return sorted(self._ledgers)

    def ledger(self, site_id: str) -> list[EmissionsRecord]:
        if site_id not in self._ledgers:
            raise UnknownSite(site_id)
        return sorted(self._ledgers[site_id], key=lambda r: r.start.seconds)

    def run_totals(self, site_id: str):
        """(energy, co2e, busy duration) summed over the site's closed spans."""
        if self._open:
            pending = ", ".join(sorted(self._open))
            raise OpenSpanPending(f"open spans pending for: {pending}")
        energy = 0.0
        co2e = 0.0
        seconds = 0.0
        for record in self.ledger(site_id):
            energy += record.energy.value
            co2e += record.co2e.value
            seconds += record.duration.seconds
        return EnergyKwh(energy), EmissionsKg(co2e), SimDuration(seconds)
