import csv
import dataclasses
import functools
import json
import math
import operator
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenfl.cli import main
from greenfl.config import bundled_config_path, load_targets, load_tiers, parse_config
from greenfl.errors import CalibrationFailed, NonFiniteTotal, SchemaViolation, UnknownRegion
from greenfl.reporting import (
    FIELD_NAMES,
    MIN_POWER_SCALE,
    RoundRecord,
    TierTarget,
    calibrate_tiers,
    fold_by,
    parse_round_log,
    record_comm_energy,
    region_cis,
    remap_grid_intensity,
    summarize_run,
    validate_record,
    write_round_log,
)
from greenfl.runner import execute_run, plan_run
from greenfl.sites import BUILTIN_TIERS, INIT, MAX_TIER_FACTOR, PHASES, ROUND

from conftest import small_doc


def record(**overrides):
    base = dict(
        run_id="r",
        site_id="s1",
        round_index=1,
        phase="round",
        start_s=0.0,
        duration_s=2.0,
        energy_kwh=1e-4,
        co2e_kg=1e-4 * 0.4,
        ci_kg_per_kwh=0.4,
        region_code="USA",
        hardware_name="h100_like",
        tier_label="high",
        payload_bytes=3640,
        net_intensity_kwh_per_gb=0.006,
        seed=0,
    )
    base.update(overrides)
    return RoundRecord(**base)


def test_empty_log_is_header_only():
    text = write_round_log([])
    assert text == ",".join(FIELD_NAMES) + "\n"


def test_missing_ci_names_field():
    with pytest.raises(SchemaViolation) as err:
        validate_record(record(ci_kg_per_kwh=None))
    assert err.value.field == "ci_kg_per_kwh"


@pytest.mark.parametrize(
    "name", ["start_s", "duration_s", "energy_kwh", "co2e_kg", "ci_kg_per_kwh", "net_intensity_kwh_per_gb"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_float_rejected(name, value):
    with pytest.raises(SchemaViolation) as err:
        validate_record(record(**{name: value}))
    assert err.value.field == name
    # building the row checks it, and the error carries the rejected row
    with pytest.raises(SchemaViolation) as err:
        record(**{name: value})
    assert err.value.field == name
    assert getattr(err.value.record, name) is value


def test_inconsistent_co2e_rejected():
    with pytest.raises(SchemaViolation) as err:
        validate_record(record(co2e_kg=9.0))
    assert err.value.field == "co2e_kg"


def test_null_payload_allowed_on_idle_rows():
    validate_record(record(phase="idle", payload_bytes=None))


def test_write_parse_round_trip_is_lossless():
    records = [
        record(start_s=0.123456789012345, energy_kwh=6.204819277108432e-05, co2e_kg=6.204819277108432e-05 * 0.4),
        record(phase="idle", payload_bytes=None, round_index=2, start_s=7.0),
    ]
    assert parse_round_log(write_round_log(records)) == records


def test_round_trip_of_real_run(small_cfg):
    records, _ = execute_run(small_cfg)
    assert parse_round_log(write_round_log(records)) == records


# the free-text fields, and characters that end a line somewhere: "\n" in
# CSV, the rest in `str.splitlines`, which must not cut a row at them
_TEXT_CELLS = ("run_id", "site_id", "region_code", "hardware_name", "tier_label")
_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_TEXTS = st.lists(st.sampled_from([*_BREAKS, '"', ",", "\0", "\ufeff"]) | st.characters(), max_size=8).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_TEXT_CELLS), _TEXTS))
def test_text_cells_round_trip_or_are_rejected_as_the_row_is_built(cells):
    # `csv.writer` leaves "\r" unquoted, and Python 3.10's `csv.reader`
    # refuses a NUL, so a row that holds either could not be read back
    bad = [name for name in _TEXT_CELLS if "\r" in cells.get(name, "") or "\0" in cells.get(name, "")]
    if bad:
        with pytest.raises(SchemaViolation) as err:
            record(**cells)
        assert err.value.field == bad[0]
        return
    records = [record(**cells), record(phase="idle", payload_bytes=None, **cells)]
    assert parse_round_log(write_round_log(records)) == records


def test_parsing_holds_little_beyond_the_records():
    # a planned ledger of 20 sites x 500 rounds, 30,020 rows: the parse
    # keeps no raw row or copy of the text, and a repeated text cell is held
    # once, so at MAX_SITE_ROUNDS `greenfl report` stays near its records
    sites = [{"site_id": f"site-{i}", "hardware": "h100_like", "tier": "high", "region": "USA"} for i in range(20)]
    doc = small_doc(num_rounds=500, partition={"num_clients": 20, "alpha": 1000.0, "seed": 0}, sites=sites)
    text = write_round_log(plan_run(parse_config(doc))[0])
    tracemalloc.start()
    try:
        records = parse_round_log(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 30_020
    assert (peak - held) / len(text) < 1
    assert held / len(records) < 500


def test_summary_folds_real_run(small_cfg):
    records, _ = execute_run(small_cfg)
    report = summarize_run(records)
    exp_energy = sum(r.energy_kwh for r in records)
    exp_co2e = sum(r.co2e_kg for r in records)
    exp_comm = sum(record_comm_energy(r) for r in records)
    assert report.compute_energy_kwh == pytest.approx(exp_energy, rel=1e-12)
    assert report.total_energy_kwh == pytest.approx(exp_energy + exp_comm, rel=1e-12)
    assert report.total_co2e_kg == pytest.approx(
        exp_co2e + sum(record_comm_energy(r) * r.ci_kg_per_kwh for r in records), rel=1e-12
    )
    round_energy = sum(r.energy_kwh for r in records if r.phase == "round")
    assert report.mean_energy_kwh_per_round == pytest.approx(round_energy / report.num_rounds, rel=1e-12)
    assert report.runtime_s == pytest.approx(max(r.start_s + r.duration_s for r in records), rel=1e-12)


def test_summary_lists_sites_in_site_id_order():
    ids = ["s3", "s10", "s1", "s2"]
    records = [
        record(site_id=site, round_index=k, start_s=float(k), energy_kwh=e, co2e_kg=e * 0.4)
        for k in (1, 2)
        for site, e in zip(ids, (1e-4, 2e-4, 3e-4, 4e-4))
    ]
    for rows in (records, records[::-1]):
        report = summarize_run(rows)
        assert list(report.per_site) == sorted(ids)
        assert list(report.to_dict()["per_site"]) == sorted(ids)


# amounts of very different sizes, so that a sum in another order rounds differently
_AMOUNTS = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.1, 1e6))


@st.composite
def random_records(draw):
    phase = draw(st.sampled_from(PHASES))
    energy, ci = draw(_AMOUNTS), draw(st.floats(0.0, 2.0))
    return record(
        site_id=draw(st.sampled_from(["s1", "s2", "s3"])),
        phase=phase,
        round_index=0 if phase == INIT else draw(st.integers(1, 6)),
        start_s=draw(_AMOUNTS),
        duration_s=draw(_AMOUNTS),
        energy_kwh=energy,
        co2e_kg=energy * ci,
        ci_kg_per_kwh=ci,
        payload_bytes=draw(st.integers(0, 10**9)) if phase == ROUND else None,
        net_intensity_kwh_per_gb=draw(st.floats(0.0, 1.0)),
    )


def _reference_totals(rows):
    """The totals of (record, comm kWh) rows, each a plain left-to-right fold."""
    def add(values):  # not `sum`, which compensates its rounding from Python 3.12
        return functools.reduce(operator.add, values, 0.0)

    return {
        "energy_kwh": add(r.energy_kwh for r, _ in rows),
        "co2e_kg": add(r.co2e_kg for r, _ in rows),
        "busy_s": add(r.duration_s for r, _ in rows),
        "span_end_s": functools.reduce(max, (r.start_s + r.duration_s for r, _ in rows), 0.0),
        "comm_energy_kwh": add(ce for _, ce in rows),
        "comm_co2e_kg": add(ce * r.ci_kg_per_kwh for r, ce in rows),
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(random_records(), max_size=40).flatmap(st.permutations))
def test_summary_is_the_left_to_right_fold_bit_for_bit(records):
    rows = [(r, record_comm_energy(r)) for r in records]
    run = _reference_totals(rows)
    rounds = _reference_totals([(r, ce) for r, ce in rows if r.phase == ROUND])
    per_site = {
        site: _reference_totals([(r, ce) for r, ce in rows if r.site_id == site])
        for site in sorted({r.site_id for r in records})
    }
    num_rounds = max((r.round_index for r in records), default=0)
    expected = {
        "mean_energy_kwh_per_round": rounds["energy_kwh"] / num_rounds if num_rounds else 0.0,
        "mean_co2e_kg_per_round": rounds["co2e_kg"] / num_rounds if num_rounds else 0.0,
        "compute_energy_kwh": run["energy_kwh"],
        "compute_co2e_kg": run["co2e_kg"],
        "comm_energy_kwh": run["comm_energy_kwh"],
        "comm_co2e_kg": run["comm_co2e_kg"],
        "total_energy_kwh": run["energy_kwh"] + run["comm_energy_kwh"],
        "total_co2e_kg": run["co2e_kg"] + run["comm_co2e_kg"],
        "runtime_s": run["span_end_s"],
        "runtime_min": run["span_end_s"] / 60.0,
        "busy_runtime_s": max((t["busy_s"] for t in per_site.values()), default=0.0),
    }
    summary = summarize_run(records).to_dict()
    assert {key for key, value in summary.items() if isinstance(value, float)} == expected.keys()
    for key, value in expected.items():
        assert summary[key] == value, key
    assert summary["per_site"] == per_site
    assert summary["num_rounds"] == num_rounds

    # the finest key: a cell holds any number of rows, and each is its own fold
    cell = operator.attrgetter("site_id", "round_index", "phase")
    (cells,) = fold_by(records, cell)
    assert {key: dataclasses.asdict(totals) for key, totals in cells.items()} == {
        key: _reference_totals([(r, ce) for r, ce in rows if cell(r) == key]) for key in {cell(r) for r in records}
    }


def test_overflowing_comm_energy_fails_as_a_total():
    # 2 * 1000 GB * 1e308 kWh/GB overflows; on a 0 kg/kWh grid its CO2e would be inf * 0 = NaN
    rec = record(payload_bytes=10**12, net_intensity_kwh_per_gb=1e308, ci_kg_per_kwh=0.0, co2e_kg=0.0)
    with pytest.raises(NonFiniteTotal) as err:
        summarize_run([rec])
    assert err.value.field == "comm_energy_kwh"


def test_mean_energy_per_round_definition():
    records = [
        record(site_id=f"s{i}", round_index=k, start_s=float(10 * k + i), energy_kwh=2e-5, co2e_kg=2e-5 * 0.4)
        for i in range(6)
        for k in range(1, 11)
    ]
    report = summarize_run(records)
    assert report.mean_energy_kwh_per_round == pytest.approx(6 * 2e-5, rel=1e-12)


def test_remap_published_intensity():
    rec = record(energy_kwh=0.32, co2e_kg=0.32 * 0.1, ci_kg_per_kwh=0.1, payload_bytes=None, phase="evaluate")
    out = remap_grid_intensity([rec], {"USA": 0.40625})
    assert out[0].co2e_kg == pytest.approx(0.13, rel=1e-12)
    assert out[0].energy_kwh == rec.energy_kwh


def test_remap_identity_and_involution(small_cfg):
    records, _ = execute_run(small_cfg)
    original = region_cis(records)
    assert remap_grid_intensity(records, original) == records
    doubled = remap_grid_intensity(records, {k: v * 14.0 for k, v in original.items()})
    for before, after in zip(records, doubled):
        assert after.co2e_kg == pytest.approx(14.0 * before.co2e_kg, rel=1e-12, abs=1e-300)
    assert remap_grid_intensity(doubled, original) == records


def test_remap_overflowing_co2e_rejected():
    # 10 kWh at 1e308 kg/kWh is inf kg
    rec = record(energy_kwh=10.0, co2e_kg=10.0 * 0.4)
    with pytest.raises(SchemaViolation) as err:
        remap_grid_intensity([rec], {"USA": 1e308})
    assert err.value.field == "co2e_kg"


def test_remap_unknown_region():
    with pytest.raises(UnknownRegion):
        remap_grid_intensity([record()], {"FRA": 0.05})


TABLE1 = {
    "high": TierTarget(0.000062, 0.75),
    "medium": TierTarget(0.000563, 1.52),
    "low": TierTarget(0.001449, 4.23),
}


def test_calibrate_identity_fixed_point():
    tiers = calibrate_tiers(0.000062, {"high": TierTarget(0.000062, 0.75)})
    assert tiers["high"].slowdown_factor == 1.0
    assert tiers["high"].power_scale == 1.0


def test_calibrate_reproduces_closed_form_ratios():
    targets = {label: TierTarget(**t) for label, t in load_targets(bundled_config_path("table1_targets")).items()}
    tiers = calibrate_tiers(6.2e-05, targets)
    assert tiers.keys() == BUILTIN_TIERS.keys()
    for label, builtin in BUILTIN_TIERS.items():
        assert tiers[label].slowdown_factor == builtin.slowdown_factor, label
        assert tiers[label].power_scale == builtin.power_scale, label


def test_calibrate_rejects_drifted_baseline():
    with pytest.raises(CalibrationFailed):
        calibrate_tiers(0.000062 * 1.2, TABLE1)


def test_calibrate_rejects_zero_target():
    with pytest.raises(CalibrationFailed):
        calibrate_tiers(0.000062, {"high": TierTarget(0.000062, 0.75), "broken": TierTarget(0.0, 1.0)})


def test_calibrate_requires_high_reference():
    with pytest.raises(CalibrationFailed):
        calibrate_tiers(0.000062, {"medium": TierTarget(0.000563, 1.52)})


# ratios against the high tier: well inside the fitted ranges, just below 1,
# near MAX_TIER_FACTOR, around MIN_POWER_SCALE, and any positive float
_RATIOS = st.one_of(
    st.floats(0.5, 50.0),
    st.floats(1 - 1e-12, 1.0),
    st.floats(MAX_TIER_FACTOR * (1 - 1e-9), MAX_TIER_FACTOR * (1 + 1e-9)),
    st.floats(MIN_POWER_SCALE / 1e3, MIN_POWER_SCALE * 10),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


@st.composite
def calibration_cases(draw):
    """A baseline within the tolerance of the high target, and targets for
    one to three more tiers, each a runtime ratio and a power ratio away."""
    high = TierTarget(draw(st.floats(1e-9, 1e3)), draw(st.floats(1e-3, 1e3)))
    targets = {"high": high}
    for label in draw(st.lists(st.sampled_from(["low", "medium", "x"]), min_size=1, unique=True)):
        runtime_ratio, power_ratio = draw(_RATIOS), draw(_RATIOS)
        target = TierTarget(high.mean_energy_kwh_per_round * runtime_ratio * power_ratio, high.runtime_min * runtime_ratio)
        assume(0 < target.mean_energy_kwh_per_round < math.inf and 0 < target.runtime_min < math.inf)
        targets[label] = target
    return high.mean_energy_kwh_per_round * draw(st.floats(0.96, 1.04)), targets


@settings(max_examples=200, deadline=None)
@given(calibration_cases())
def test_calibrate_fits_closed_form_or_names_the_tier(case):
    baseline, targets = case
    try:
        tiers = calibrate_tiers(baseline, targets)
    except CalibrationFailed as exc:
        assert any(str(exc).startswith(f"tier {label!r}: ") for label in targets), str(exc)
        return
    ref = targets["high"]
    for label, t in targets.items():
        runtime_ratio = t.runtime_min / ref.runtime_min
        assert tiers[label].slowdown_factor == runtime_ratio
        assert tiers[label].power_scale == t.mean_energy_kwh_per_round / ref.mean_energy_kwh_per_round / runtime_ratio
    # `greenfl calibrate` writes them to a tier file that `load_tiers` accepts
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "rounds.csv").write_text(write_round_log([record(energy_kwh=baseline, co2e_kg=0.0, ci_kg_per_kwh=0.0)]))
        (root / "targets.json").write_text(json.dumps({label: dataclasses.asdict(t) for label, t in targets.items()}))
        argv = ["calibrate", "--baseline", tmp, "--targets", str(root / "targets.json"), "--out", str(root / "t.json")]
        assert main(argv) == 0
        assert load_tiers(root / "t.json") == tiers


def test_records_are_frozen():
    rec = record()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.energy_kwh = 1.0


# per checked field, values of the right shape that are still invalid
_FLOAT_FIELDS = ("start_s", "duration_s", "energy_kwh", "co2e_kg", "ci_kg_per_kwh", "net_intensity_kwh_per_gb")
_INVALID = {name: ["nan", "inf", "-inf", "-1", "1e999"] for name in _FLOAT_FIELDS}
# an int beyond the float range overflowed the summary's float arithmetic
HUGE_INT = str(10**400)
_INVALID.update(
    round_index=["1.5", "1e3", "-5", "0", HUGE_INT], seed=["1.5", "1e3"], payload_bytes=["1.5", "-1", HUGE_INT]
)
_INVALID.update(phase=["bogus", "Round"], schema_version=["gfl-9"])


def _valid_rows():
    text = write_round_log([record(), record(site_id="s2", phase="idle", payload_bytes=None)])
    return [line.split(",") for line in text.splitlines()]


@st.composite
def corrupted_logs(draw):
    """A valid two-row log with one row broken, the field the error must
    name (a typed cell replaced by text that is not a valid value of its
    type, or "row": a cell dropped, added or over the csv field limit), and
    the broken row's number, counted from 1 after the header."""
    header, *rows = _valid_rows()
    number = draw(st.integers(1, len(rows)))
    row = rows[number - 1]
    kind = draw(st.sampled_from(["cell", "drop", "add", "huge"]))
    if kind == "cell":
        name = draw(st.sampled_from(sorted(_INVALID)))
        # no digits: such text parses as no number, or as nan/inf
        row[FIELD_NAMES.index(name)] = draw(st.text(alphabet="abefinx-. ", min_size=1) | st.sampled_from(_INVALID[name]))
    elif kind == "drop":
        name = "row"
        del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "add":
        name = "row"
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(["", "0", "x"])))
    else:
        name = "row"
        row[draw(st.integers(0, len(row) - 1))] = "9" * (csv.field_size_limit() + 1)
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n", name, number


@settings(max_examples=300, deadline=None)
@given(corrupted_logs())
def test_corrupted_row_raises_schema_violation(case):
    text, name, number = case
    with pytest.raises(SchemaViolation) as err:
        parse_round_log(text)
    assert err.value.field == name
    assert str(err.value).startswith(f"row {number}: ")
