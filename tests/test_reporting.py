import csv
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfl.errors import CalibrationFailed, NonFiniteTotal, SchemaViolation, UnknownRegion
from greenfl.reporting import (
    FIELD_NAMES,
    RoundRecord,
    TierTarget,
    calibrate_tiers,
    parse_round_log,
    record_comm_energy,
    region_cis,
    remap_grid_intensity,
    summarize_run,
    validate_record,
    write_round_log,
)
from greenfl.runner import execute_run


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


def test_summary_folds_real_run(small_cfg):
    records, result = execute_run(small_cfg)
    report = summarize_run(records, result.accuracy_by_round)
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
    tiers = calibrate_tiers(0.000062, TABLE1)
    assert tiers["medium"].slowdown_factor == pytest.approx(1.52 / 0.75, rel=1e-9)
    assert tiers["medium"].power_scale == pytest.approx((0.000563 / 0.000062) / (1.52 / 0.75), rel=1e-9)
    assert tiers["low"].power_scale == pytest.approx((0.001449 / 0.000062) / (4.23 / 0.75), rel=1e-9)
    # fitted knobs reproduce the target per-round means exactly under the model
    for label, target in TABLE1.items():
        t = tiers[label]
        predicted = 0.000062 * t.slowdown_factor * t.power_scale
        assert predicted == pytest.approx(target.mean_energy_kwh_per_round, rel=1e-6)


def test_calibrate_rejects_drifted_baseline():
    with pytest.raises(CalibrationFailed):
        calibrate_tiers(0.000062 * 1.2, TABLE1)


def test_calibrate_rejects_zero_target():
    with pytest.raises(CalibrationFailed):
        calibrate_tiers(0.000062, {"high": TierTarget(0.000062, 0.75), "broken": TierTarget(0.0, 1.0)})


def test_calibrate_requires_high_reference():
    with pytest.raises(CalibrationFailed):
        calibrate_tiers(0.000062, {"medium": TierTarget(0.000563, 1.52)})


def test_records_are_frozen():
    rec = record()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.energy_kwh = 1.0


# per checked field, values of the right shape that are still invalid
_FLOAT_FIELDS = ("start_s", "duration_s", "energy_kwh", "co2e_kg", "ci_kg_per_kwh", "net_intensity_kwh_per_gb")
_INVALID = {name: ["nan", "inf", "-inf", "-1", "1e999"] for name in _FLOAT_FIELDS}
_INVALID.update(round_index=["1.5", "1e3", "-5", "0"], seed=["1.5", "1e3"], payload_bytes=["1.5", "-1"])
_INVALID.update(phase=["bogus", "Round"], schema_version=["gfl-9"])


def _valid_rows():
    text = write_round_log([record(), record(site_id="s2", phase="idle", payload_bytes=None)])
    return [line.split(",") for line in text.splitlines()]


@st.composite
def corrupted_logs(draw):
    """A valid two-row log with one row broken, and the field the error must
    name: a typed cell replaced by text that is not a valid value of its
    type, or ("row") a cell dropped, added or over the csv field limit."""
    header, *rows = _valid_rows()
    row = rows[draw(st.integers(0, len(rows) - 1))]
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
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n", name


@settings(max_examples=300, deadline=None)
@given(corrupted_logs())
def test_corrupted_row_raises_schema_violation(case):
    text, name = case
    with pytest.raises(SchemaViolation) as err:
        parse_round_log(text)
    assert err.value.field == name
