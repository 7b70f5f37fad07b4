"""Standardized per-round reporting: schema, summaries, what-ifs, calibration.

The round log is a flat CSV (`rounds.csv`): one `RoundRecord` row per
span of one site in one phase, as `orchestrator.build_ledger` emits them.
Every row is self-describing enough to recompute its CO2e (stored energy,
stored grid intensity) and its communication estimate (payload bytes,
network intensity).  `validate_record` is the one check of a row, built
or parsed.  Communication energy is therefore derived from round rows at
summary time and reported as a separate category; it is never folded into
the compute `energy_kwh` column, so nothing double-counts.

Floats are serialized with `repr`, which round-trips bit-for-bit, making
write -> parse lossless and identical runs byte-identical on disk.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace

from .comm import CommEnergyModel, UpdatePayload, comm_emissions, comm_energy
from .errors import CalibrationFailed, NonFiniteTotal, SchemaViolation, UnknownRegion
from .sites import INIT, PHASES, ROUND, EfficiencyTier, GridRegion
from .units import EnergyKwh

SCHEMA_VERSION = "gfl-1"

CO2E_CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class RoundRecord:
    """One row of the mandatory reporting field set."""

    run_id: str
    site_id: str
    round_index: int
    phase: str
    start_s: float
    duration_s: float
    energy_kwh: float
    co2e_kg: float
    ci_kg_per_kwh: float
    region_code: str
    hardware_name: str
    tier_label: str
    payload_bytes: int | None  # null for non-round phases
    net_intensity_kwh_per_gb: float
    seed: int
    schema_version: str = SCHEMA_VERSION


FIELD_NAMES = [f.name for f in fields(RoundRecord)]
_NULLABLE = {"payload_bytes"}
_FLOAT_FIELDS = ("start_s", "duration_s", "energy_kwh", "co2e_kg", "ci_kg_per_kwh", "net_intensity_kwh_per_gb")
_INT_FIELDS = {"round_index", "payload_bytes", "seed"}


def validate_record(record: RoundRecord) -> None:
    """Raise SchemaViolation naming the first offending field."""
    for name in FIELD_NAMES:
        value = getattr(record, name)
        if value is None and name not in _NULLABLE:
            raise SchemaViolation(name, f"{name} must not be null")
    for name in _FLOAT_FIELDS:
        if not 0.0 <= getattr(record, name) < math.inf:  # also rejects NaN
            raise SchemaViolation(name, f"{name} must be finite and non-negative")
    if record.payload_bytes is not None and record.payload_bytes < 0:
        raise SchemaViolation("payload_bytes", "payload_bytes must be non-negative")
    if record.phase not in PHASES:
        raise SchemaViolation("phase", f"phase must be one of {', '.join(PHASES)}, got {record.phase!r}")
    if not (record.round_index == 0 if record.phase == INIT else record.round_index >= 1):
        raise SchemaViolation(
            "round_index", f"round_index must be 0 for init and >= 1 for other phases, got {record.round_index}"
        )
    if record.schema_version != SCHEMA_VERSION:
        raise SchemaViolation(
            "schema_version", f"schema_version must be {SCHEMA_VERSION}, got {record.schema_version!r}"
        )
    expected = record.energy_kwh * record.ci_kg_per_kwh
    tol = CO2E_CONSISTENCY_RTOL * max(abs(expected), 1e-300)
    if abs(record.co2e_kg - expected) > tol:
        raise SchemaViolation("co2e_kg", "co2e_kg inconsistent with energy_kwh * ci_kg_per_kwh")


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_round_log(records: list[RoundRecord], stream=None) -> str:
    """Serialize records as CSV with a fixed header; returns the text."""
    buf = stream or io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELD_NAMES)
    for record in records:
        validate_record(record)
        writer.writerow([_format(getattr(record, name)) for name in FIELD_NAMES])
    return buf.getvalue() if stream is None else ""


def _parse_cell(name: str, raw: str):
    if name in _NULLABLE and raw == "":
        return None
    convert = float if name in _FLOAT_FIELDS else int if name in _INT_FIELDS else str
    try:
        return convert(raw)
    except ValueError:
        raise SchemaViolation(name, f"{name}: cannot parse {raw!r}") from None


def parse_round_log(text: str) -> list[RoundRecord]:
    """Records of a round log; a malformed or invalid row raises SchemaViolation."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise SchemaViolation("row", f"line {reader.line_num}: {exc}") from None
    header = rows[0] if rows else None
    if header != FIELD_NAMES:
        raise SchemaViolation("header", f"unexpected header {header}")
    records = []
    for number, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != len(FIELD_NAMES):
            raise SchemaViolation("row", f"row {number}: {len(row)} fields, expected {len(FIELD_NAMES)}")
        record = RoundRecord(**{name: _parse_cell(name, raw) for name, raw in zip(FIELD_NAMES, row)})
        validate_record(record)
        records.append(record)
    return records


def record_comm_energy(record: RoundRecord) -> float:
    """Communication energy attributed to one round row (kWh)."""
    if record.phase != ROUND or record.payload_bytes is None:
        return 0.0
    payload = UpdatePayload(record.site_id, record.round_index, record.payload_bytes)
    return comm_energy(payload, CommEnergyModel(record.net_intensity_kwh_per_gb)).value


@dataclass
class SiteTotals:
    energy_kwh: float = 0.0
    co2e_kg: float = 0.0
    busy_s: float = 0.0
    span_end_s: float = 0.0
    comm_energy_kwh: float = 0.0
    comm_co2e_kg: float = 0.0


@dataclass
class RunReport:
    run_id: str
    num_rounds: int
    per_site: dict[str, SiteTotals]
    mean_energy_kwh_per_round: float
    mean_co2e_kg_per_round: float
    compute_energy_kwh: float
    compute_co2e_kg: float
    comm_energy_kwh: float
    comm_co2e_kg: float
    total_energy_kwh: float
    total_co2e_kg: float
    runtime_s: float  # max site span end (simulated wall clock)
    busy_runtime_s: float  # max per-site sum of span durations
    accuracy_by_round: list[float] | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "run_id": self.run_id,
            "num_rounds": self.num_rounds,
            "per_site": {
                site: {
                    "energy_kwh": t.energy_kwh,
                    "co2e_kg": t.co2e_kg,
                    "busy_s": t.busy_s,
                    "span_end_s": t.span_end_s,
                    "comm_energy_kwh": t.comm_energy_kwh,
                    "comm_co2e_kg": t.comm_co2e_kg,
                }
                for site, t in sorted(self.per_site.items())
            },
            "mean_energy_kwh_per_round": self.mean_energy_kwh_per_round,
            "mean_co2e_kg_per_round": self.mean_co2e_kg_per_round,
            "compute_energy_kwh": self.compute_energy_kwh,
            "compute_co2e_kg": self.compute_co2e_kg,
            "comm_energy_kwh": self.comm_energy_kwh,
            "comm_co2e_kg": self.comm_co2e_kg,
            "total_energy_kwh": self.total_energy_kwh,
            "total_co2e_kg": self.total_co2e_kg,
            "runtime_s": self.runtime_s,
            "runtime_min": self.runtime_s / 60.0,
            "busy_runtime_s": self.busy_runtime_s,
            "accuracy_by_round": self.accuracy_by_round,
        }


def summarize_run(records: list[RoundRecord], accuracy_by_round: list[float] | None = None) -> RunReport:
    """Fold the record stream into run-level totals and per-round means.

    Every record is finite, but their sums can still overflow: a total that
    is not finite raises `NonFiniteTotal`.
    """
    per_site: dict[str, SiteTotals] = {}
    num_rounds = 0
    round_energy = 0.0
    round_co2e = 0.0
    compute_energy = 0.0
    compute_co2e = 0.0
    comm_energy = 0.0
    comm_co2e = 0.0
    run_id = records[0].run_id if records else ""

    for record in records:
        validate_record(record)
        totals = per_site.setdefault(record.site_id, SiteTotals())
        totals.energy_kwh += record.energy_kwh
        totals.co2e_kg += record.co2e_kg
        totals.busy_s += record.duration_s
        totals.span_end_s = max(totals.span_end_s, record.start_s + record.duration_s)
        compute_energy += record.energy_kwh
        compute_co2e += record.co2e_kg
        num_rounds = max(num_rounds, record.round_index)
        if record.phase == ROUND:
            round_energy += record.energy_kwh
            round_co2e += record.co2e_kg
        ce = record_comm_energy(record)
        if ce == math.inf:  # its CO2e would be NaN on a zero-intensity grid
            raise NonFiniteTotal("comm_energy_kwh", ce)
        cc = comm_emissions(EnergyKwh(ce), GridRegion(record.region_code, record.ci_kg_per_kwh)).value
        comm_energy += ce
        comm_co2e += cc
        totals.comm_energy_kwh += ce
        totals.comm_co2e_kg += cc

    report = RunReport(
        run_id=run_id,
        num_rounds=num_rounds,
        per_site=per_site,
        mean_energy_kwh_per_round=round_energy / num_rounds if num_rounds else 0.0,
        mean_co2e_kg_per_round=round_co2e / num_rounds if num_rounds else 0.0,
        compute_energy_kwh=compute_energy,
        compute_co2e_kg=compute_co2e,
        comm_energy_kwh=comm_energy,
        comm_co2e_kg=comm_co2e,
        total_energy_kwh=compute_energy + comm_energy,
        total_co2e_kg=compute_co2e + comm_co2e,
        runtime_s=max((t.span_end_s for t in per_site.values()), default=0.0),
        busy_runtime_s=max((t.busy_s for t in per_site.values()), default=0.0),
        accuracy_by_round=accuracy_by_round,
    )
    # every record is non-negative, so each per-site value is bounded by a run-level one
    for key, value in report.to_dict().items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteTotal(key, value)
    return report


def remap_grid_intensity(
    records: list[RoundRecord],
    new_ci_by_region: dict[str, float],
) -> list[RoundRecord]:
    """Recompute every co2e from stored energy under new grid intensities.

    Energies are untouched; remapping back to the original intensities
    restores the original records bit-for-bit.
    """
    remapped = []
    for record in records:
        if record.region_code not in new_ci_by_region:
            raise UnknownRegion(record.region_code)
        ci = new_ci_by_region[record.region_code]
        remapped.append(replace(record, ci_kg_per_kwh=ci, co2e_kg=record.energy_kwh * ci))
    return remapped


def region_cis(records: list[RoundRecord]) -> dict[str, float]:
    """The region -> intensity map in effect for a record stream."""
    out: dict[str, float] = {}
    for record in records:
        out.setdefault(record.region_code, record.ci_kg_per_kwh)
    return out


@dataclass(frozen=True)
class TierTarget:
    """Published per-round mean energy (kWh) and runtime (minutes) for one tier."""

    mean_energy_kwh_per_round: float
    runtime_min: float


def _bisect_scale(response, target: float, lo: float, hi: float, iters: int = 200) -> float:
    """Deterministic bisection for a monotone-increasing scalar response."""
    if not (response(lo) <= target <= response(hi)):
        raise CalibrationFailed(f"target {target} outside reachable range [{response(lo)}, {response(hi)}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if response(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate_tiers(
    baseline_mean_energy_kwh_per_round: float,
    targets: dict[str, TierTarget],
    tolerance: float = 0.05,
    max_factor: float = 1000.0,
) -> dict[str, EfficiencyTier]:
    """Fit (slowdown_factor, power_scale) per tier to published per-round means.

    The duration*power model is linear in both knobs: mean round energy
    scales by slowdown*power_scale and runtime by slowdown.  Slowdown is
    fit to the runtime ratio against the high tier, power_scale to the
    energy ratio, both by deterministic bisection.  The baseline run must
    already match the high-tier energy target within `tolerance`.
    """
    if "high" not in targets:
        raise CalibrationFailed("targets must include the 'high' reference tier")
    ref = targets["high"]
    for label, t in targets.items():
        if not (t.mean_energy_kwh_per_round > 0 and t.runtime_min > 0):
            raise CalibrationFailed(f"tier {label!r}: targets must be > 0")
    if not baseline_mean_energy_kwh_per_round > 0:
        raise CalibrationFailed("baseline mean energy must be > 0")
    rel = abs(baseline_mean_energy_kwh_per_round - ref.mean_energy_kwh_per_round) / ref.mean_energy_kwh_per_round
    if rel > tolerance:
        raise CalibrationFailed(
            f"baseline mean energy {baseline_mean_energy_kwh_per_round} is {rel:.1%} from the "
            f"high-tier target {ref.mean_energy_kwh_per_round} (tolerance {tolerance:.0%})"
        )

    tiers: dict[str, EfficiencyTier] = {}
    for label, t in sorted(targets.items()):
        runtime_ratio = t.runtime_min / ref.runtime_min
        energy_ratio = t.mean_energy_kwh_per_round / ref.mean_energy_kwh_per_round
        if runtime_ratio < 1.0 - 1e-12 or energy_ratio < runtime_ratio * 1e-6:
            raise CalibrationFailed(f"tier {label!r}: targets below the high-tier reference")
        if label == "high":
            tiers[label] = EfficiencyTier("high", 1.0, 1.0)
            continue
        slowdown = _bisect_scale(lambda s: s, runtime_ratio, 1.0, max_factor)
        power_scale = _bisect_scale(lambda p: slowdown * p, energy_ratio, 1e-6, max_factor)
        predicted = baseline_mean_energy_kwh_per_round * slowdown * power_scale
        if abs(predicted - t.mean_energy_kwh_per_round) / t.mean_energy_kwh_per_round > tolerance:
            raise CalibrationFailed(f"tier {label!r}: predicted mean energy misses target by > {tolerance:.0%}")
        tiers[label] = EfficiencyTier(label, slowdown, power_scale)
    return tiers
