"""Standardized per-round reporting: schema, summaries, what-ifs, calibration.

The round log is a flat CSV (`rounds.csv`): one `RoundRecord` row per
span of one site in one phase, as `orchestrator.build_ledger` emits them.
A row runs `validate_record` once, as it is built, parsed or remapped, so
no invalid row exists.  Every row is self-describing enough to recompute
its CO2e (stored energy, stored grid intensity) and its communication
estimate (payload bytes, network intensity).  Communication energy is
therefore derived from round rows at summary time and reported as a
separate category; it is never folded into the compute `energy_kwh`
column, so nothing double-counts.

A column's kind is its `RoundRecord` annotation, and the kind alone picks
the column's writer, its reader and whether it may be null (`_CELLS`).
Floats are serialized with `repr`, which round-trips bit-for-bit, making
write -> parse lossless and identical runs byte-identical on disk.

A run's summary (`summary.json`, `report --format json`) is a `RunReport`:
`schema_version` plus its fields, in their declared order, with the
per-site entries in site-id order.  The dataclass is the schema's one
declaration, so a new summary key is one new field.  Its totals come from
one keyed fold, `fold_by`: one pass over the rows, in row order, prices
each row's communication once and adds the row, by `SiteTotals.add`, to
the totals of its key value under each key function asked for.  The run,
each site, each phase and each round are four keys of one pass, so a new
breakdown is one more key.  Views fold rows, never the cells of a finer
view: a cell of a parsed round log can hold several rows, and re-summing
cells rounds differently from the row-order fold, so only a fold of the
rows is bit-exact.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass, fields, replace

from .comm import CommEnergyModel, UpdatePayload, comm_energy
from .errors import CalibrationFailed, NonFiniteTotal, SchemaViolation, UnknownRegion
from .sites import INIT, MAX_TIER_FACTOR, PHASES, ROUND, EfficiencyTier
from .units import emissions_of

SCHEMA_VERSION = "gfl-1"

CO2E_CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class RoundRecord:
    """One row of the mandatory reporting field set, checked as it is made."""

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
    payload_bytes: int | None  # set on round rows, null on all others
    net_intensity_kwh_per_gb: float
    seed: int
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self):
        try:
            validate_record(self)
        except SchemaViolation as exc:
            exc.record = self
            raise


# each column's kind is its annotation: "str", "int", "float" or "int | None"
_KINDS = {f.name: f.type for f in fields(RoundRecord)}
FIELD_NAMES = list(_KINDS)
_COLUMNS_OF = {kind: [name for name in FIELD_NAMES if _KINDS[name] == kind] for kind in set(_KINDS.values())}


def validate_record(record: RoundRecord) -> None:
    """Raise SchemaViolation naming the first offending field."""
    for name in FIELD_NAMES:
        if getattr(record, name) is None and _KINDS[name] != "int | None":
            raise SchemaViolation(name, f"{name} must not be null")
    for name in _COLUMNS_OF["float"]:
        if not 0.0 <= getattr(record, name) < math.inf:  # also rejects NaN
            raise SchemaViolation(name, f"{name} must be finite and non-negative")
    if record.payload_bytes is not None and not 0 <= record.payload_bytes <= sys.float_info.max:
        raise SchemaViolation("payload_bytes", "payload_bytes must be non-negative and within the float range")
    if record.round_index > sys.float_info.max:  # it divides a float total
        raise SchemaViolation("round_index", "round_index must be within the float range")
    if record.phase not in PHASES:
        raise SchemaViolation("phase", f"phase must be one of {', '.join(PHASES)}, got {record.phase!r}")
    if not (record.round_index == 0 if record.phase == INIT else record.round_index >= 1):
        raise SchemaViolation(
            "round_index", f"round_index must be 0 for init and >= 1 for other phases, got {record.round_index}"
        )
    if (record.payload_bytes is None) == (record.phase == ROUND):
        raise SchemaViolation("payload_bytes", "payload_bytes must be set on round rows and empty on others")
    if record.schema_version != SCHEMA_VERSION:
        raise SchemaViolation(
            "schema_version", f"schema_version must be {SCHEMA_VERSION}, got {record.schema_version!r}"
        )
    for name in _COLUMNS_OF["str"]:
        # `csv.writer` leaves a carriage return unquoted, and before Python
        # 3.11 `csv.reader` rejects a NUL, so either makes a row that cannot
        # be read back
        value = getattr(record, name)
        if "\r" in value or "\0" in value:
            raise SchemaViolation(name, f"{name} must not contain a carriage return or NUL")
    expected = record.energy_kwh * record.ci_kg_per_kwh
    tol = CO2E_CONSISTENCY_RTOL * max(abs(expected), 1e-300)
    if abs(record.co2e_kg - expected) > tol:
        raise SchemaViolation("co2e_kg", "co2e_kg inconsistent with energy_kwh * ci_kg_per_kwh")


class _Texts(dict):
    """The text cells of one parse, each held once: a text read again is
    the string first read with its value, so every record shares it."""

    def __missing__(self, raw: str) -> str:
        self[raw] = raw
        return raw


def _nullable_int(raw: str) -> int | None:
    return None if raw == "" else int(raw)


# each kind's writer and reader, which invert each other bit for bit: `repr`
# round-trips a float, the empty cell is the one null, and a text is read
# through the parse's `_Texts`
_CELLS = {
    "str": (str, _Texts),
    "int": (str, int),
    "float": (repr, float),
    "int | None": (lambda value: "" if value is None else str(value), _nullable_int),
}
# each column's writer and reader, in `FIELD_NAMES` order; an annotation of
# another kind fails here, as the module is imported
_COLUMNS = [_CELLS[kind] for kind in _KINDS.values()]


def write_round_log(records: list[RoundRecord]) -> str:
    """Serialize records as CSV with a fixed header; returns the text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELD_NAMES)
    for record in records:
        writer.writerow([write(getattr(record, name)) for name, (write, _) in zip(FIELD_NAMES, _COLUMNS)])
    return buf.getvalue()


def _converters(texts: _Texts) -> list:
    """The reader of each column, in `FIELD_NAMES` order, a text column's
    being `texts`, which holds each text once.  A cell it cannot convert
    raises ValueError."""
    return [texts.__getitem__ if read is _Texts else read for _, read in _COLUMNS]


def _lines(text: str):
    """The lines of `text`, each with its "\n", split at "\n" alone as
    iterating `io.StringIO(text)` splits them, with no copy of the text.
    `str.splitlines` would also split at "\x0c", "\x85" and "\u2028"."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _parse_row(row: list[str], converters: list) -> RoundRecord:
    if len(row) != len(FIELD_NAMES):
        raise SchemaViolation("row", f"{len(row)} fields, expected {len(FIELD_NAMES)}")
    try:
        values = [convert(raw) for convert, raw in zip(converters, row)]
    except ValueError:
        # name the first cell that does not convert
        for name, convert, raw in zip(FIELD_NAMES, converters, row):
            try:
                convert(raw)
            except ValueError:
                raise SchemaViolation(name, f"{name}: cannot parse {raw!r}") from None
        raise
    return RoundRecord(*values)


def parse_round_log(text: str) -> list[RoundRecord]:
    """Records of a round log; a malformed or invalid row raises SchemaViolation
    naming its row, the header being row 0.  Each row becomes its record as
    it is read, so no raw row outlives its record."""
    rows = csv.reader(_lines(text))
    records, converters = [], _converters(_Texts())
    number = 0  # the row being read
    try:
        header = next(rows, None)
        if header != FIELD_NAMES:
            raise SchemaViolation("header", f"unexpected header {header}")
        number = 1
        for row in rows:
            if row:
                try:
                    records.append(_parse_row(row, converters))
                except SchemaViolation as exc:
                    raise SchemaViolation(exc.field, f"row {number}: {exc}") from None
            number += 1
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise SchemaViolation("row", f"row {number}: {exc}") from None
    return records


def record_comm_energy(record: RoundRecord) -> float:
    """Communication energy attributed to one row (kWh); only a round row
    carries a payload, so any other row's is 0."""
    if record.payload_bytes is None:
        return 0.0
    payload = UpdatePayload(record.site_id, record.round_index, record.payload_bytes)
    return comm_energy(payload, CommEnergyModel(record.net_intensity_kwh_per_gb)).value


@dataclass
class SiteTotals:
    """Sums over a set of rows, each taken in by one `add`."""

    energy_kwh: float = 0.0
    co2e_kg: float = 0.0
    busy_s: float = 0.0
    span_end_s: float = 0.0
    comm_energy_kwh: float = 0.0
    comm_co2e_kg: float = 0.0

    def add(self, record: RoundRecord, comm_energy_kwh: float, comm_co2e_kg: float) -> None:
        self.energy_kwh += record.energy_kwh
        self.co2e_kg += record.co2e_kg
        self.busy_s += record.duration_s
        self.span_end_s = max(self.span_end_s, record.start_s + record.duration_s)
        self.comm_energy_kwh += comm_energy_kwh
        self.comm_co2e_kg += comm_co2e_kg


@dataclass
class RunReport:
    """Run-level totals; `summarize_run` builds them and `to_dict` is the summary."""

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
    runtime_min: float
    busy_runtime_s: float  # max per-site sum of span durations
    accuracy_by_round: list[float] | None = None

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def fold_by(records: list[RoundRecord], *keys) -> list[dict]:
    """One pass over the record stream: for each key function, a dict from
    each value it takes to the `SiteTotals` of the rows with that value,
    each folded by `SiteTotals.add` in row order.  A row's comm is priced
    once, for every view.  A missing key value reads as empty totals."""
    views = [defaultdict(SiteTotals) for _ in keys]
    for record, ce in zip(records, map(record_comm_energy, records)):
        cc = emissions_of(ce, record.ci_kg_per_kwh)
        for key, view in zip(keys, views):
            view[key(record)].add(record, ce, cc)
    return views


def summarize_run(records: list[RoundRecord]) -> RunReport:
    """Fold the record stream into four views, the run, each site, each
    phase and each round, and read the report off them: the round phase's
    totals are the phase view's `ROUND` entry, and `num_rounds` is the
    largest round.

    Every record is finite, but their sums can still overflow: a total that
    is not finite raises `NonFiniteTotal`.
    """
    keys = (lambda r: None, lambda r: r.site_id, lambda r: r.phase, lambda r: r.round_index)
    run, per_site, by_phase, by_round = fold_by(records, *keys)
    run, rounds, num_rounds = run[None], by_phase[ROUND], max(by_round, default=0)

    report = RunReport(
        run_id=records[0].run_id if records else "",
        num_rounds=num_rounds,
        per_site=dict(sorted(per_site.items())),
        # with no rounds there are no round rows, so these are 0.0 / 1
        mean_energy_kwh_per_round=rounds.energy_kwh / max(num_rounds, 1),
        mean_co2e_kg_per_round=rounds.co2e_kg / max(num_rounds, 1),
        compute_energy_kwh=run.energy_kwh,
        compute_co2e_kg=run.co2e_kg,
        comm_energy_kwh=run.comm_energy_kwh,
        comm_co2e_kg=run.comm_co2e_kg,
        total_energy_kwh=run.energy_kwh + run.comm_energy_kwh,
        total_co2e_kg=run.co2e_kg + run.comm_co2e_kg,
        runtime_s=run.span_end_s,
        runtime_min=run.span_end_s / 60.0,
        busy_runtime_s=max((t.busy_s for t in per_site.values()), default=0.0),
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


# how far the baseline run's mean round energy may be from the high-tier target
CALIBRATION_TOLERANCE = 0.05
# the smallest power_scale `calibrate_tiers` fits; the largest is MAX_TIER_FACTOR
MIN_POWER_SCALE = 1e-6


def calibrate_tiers(
    baseline_mean_energy_kwh_per_round: float,
    targets: dict[str, TierTarget],
) -> dict[str, EfficiencyTier]:
    """Fit (slowdown_factor, power_scale) per tier to published per-round means.

    The duration*power model is linear in both knobs: mean round energy
    scales by slowdown*power_scale and runtime by slowdown.  So the knobs
    have a closed form against the high tier: slowdown is the runtime ratio
    and power_scale the energy ratio over the slowdown.  The baseline run
    must already match the high-tier energy target within
    `CALIBRATION_TOLERANCE`.
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
    if rel > CALIBRATION_TOLERANCE:
        raise CalibrationFailed(
            f"baseline mean energy {baseline_mean_energy_kwh_per_round} is {rel:.1%} from the "
            f"high-tier target {ref.mean_energy_kwh_per_round} (tolerance {CALIBRATION_TOLERANCE:.0%})"
        )

    tiers: dict[str, EfficiencyTier] = {}
    for label, t in sorted(targets.items()):
        slowdown = t.runtime_min / ref.runtime_min
        power_scale = t.mean_energy_kwh_per_round / ref.mean_energy_kwh_per_round / slowdown
        if not 1 <= slowdown <= MAX_TIER_FACTOR:
            raise CalibrationFailed(f"tier {label!r}: runtime ratio {slowdown} is outside [1, {MAX_TIER_FACTOR}]")
        if not MIN_POWER_SCALE <= power_scale <= MAX_TIER_FACTOR:
            raise CalibrationFailed(
                f"tier {label!r}: power_scale {power_scale} is outside [{MIN_POWER_SCALE}, {MAX_TIER_FACTOR}]"
            )
        tiers[label] = EfficiencyTier(label, slowdown, power_scale)
    return tiers
