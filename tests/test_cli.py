import json

import pytest

from greenfl.cli import main
from greenfl.config import bundled_config_path, load_json

from conftest import small_doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def run_dir(tmp_path):
    config = write_doc(tmp_path, small_doc())
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    return out


def test_run_writes_artifacts(run_dir):
    for name in ("rounds.csv", "run.json", "summary.json"):
        assert (run_dir / name).is_file()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["num_rounds"] == 2
    assert len(summary["per_site"]) == 3


def test_run_rejects_invalid_alpha(tmp_path, capsys):
    doc = small_doc(partition={"num_clients": 3, "alpha": 0, "seed": 0})
    code = main(["run", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "partition.alpha" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    doc = small_doc(extra_knob=1)
    code = main(["run", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "extra_knob" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"sampling_interval_s": 1.0}, "sampling_interval_s: unknown field"),
        ({"evaluate_each_round": "false"}, "evaluate_each_round: expected bool"),
        ({"evaluate_each_round": 0}, "evaluate_each_round: expected bool"),
    ],
)
def test_run_rejects_bad_top_level_field(tmp_path, capsys, override, message):
    code = main(["run", "--config", write_doc(tmp_path, small_doc(**override)), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_run_is_byte_deterministic(tmp_path):
    config = write_doc(tmp_path, small_doc())
    for out in ("a", "b"):
        assert main(["run", "--config", config, "--seed", "5", "--out", str(tmp_path / out)]) == 0
    for name in ("rounds.csv", "run.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_single_run_matches_summary(run_dir, capsys):
    assert main(["report", "--in", str(run_dir), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert payload[0]["total_co2e_kg"] == summary["total_co2e_kg"]


def test_report_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--in", str(empty)]) == 2


@pytest.mark.parametrize("argv", [["report", "--format", "json"], ["whatif", "--ci", "0.3"]])
def test_nan_row_fails_with_one_error_line(run_dir, capsys, argv):
    csv_path = run_dir / "rounds.csv"
    header, first, *rest = csv_path.read_text().splitlines(keepends=True)
    fields = first.split(",")
    fields[header.split(",").index("energy_kwh")] = "nan"
    csv_path.write_text("".join([header, ",".join(fields), *rest]))
    assert main([argv[0], "--in", str(run_dir), *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: energy_kwh must be finite and non-negative\n"


def test_whatif_zero_ci_zeroes_emissions(run_dir, capsys):
    assert main(["whatif", "--in", str(run_dir), "--ci", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["remapped_total_co2e_kg"] == 0.0
    assert payload["total_energy_kwh"] > 0.0


def test_whatif_doubled_ci_doubles_emissions(run_dir, capsys):
    assert main(["whatif", "--in", str(run_dir), "--ci", "0.3871"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(["whatif", "--in", str(run_dir), "--ci", str(0.3871 * 2)]) == 0
    doubled = json.loads(capsys.readouterr().out)
    assert doubled["remapped_total_co2e_kg"] == pytest.approx(
        2 * base["remapped_total_co2e_kg"], rel=1e-12
    )


@pytest.mark.parametrize("ci", ["nan", "inf", "-1"])
def test_whatif_rejects_non_finite_or_negative_ci(run_dir, capsys, ci):
    assert main(["whatif", "--in", str(run_dir), "--ci", ci]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: ci: carbon intensity must be finite and >= 0\n"


@pytest.mark.parametrize("argv", [["report", "--format", "json"], ["whatif", "--ci", "0.3"]])
@pytest.mark.parametrize("cell", ["abc", "short", "bogus"])
def test_malformed_row_fails_with_one_error_line(run_dir, capsys, argv, cell):
    csv_path = run_dir / "rounds.csv"
    header, first, *rest = csv_path.read_text().splitlines(keepends=True)
    fields = first.rstrip("\n").split(",")
    if cell == "short":
        fields.pop()
    else:
        fields[header.split(",").index("phase" if cell == "bogus" else "energy_kwh")] = cell
    csv_path.write_text("".join([header, ",".join(fields) + "\n", *rest]))
    assert main([argv[0], "--in", str(run_dir), *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.fixture
def zero_run_dir(tmp_path):
    doc = small_doc(
        regions={"ZERO": 0.0},
        sites=[{"site_id": f"site-{i + 1}", "hardware": "h100_like", "tier": "high", "region": "ZERO"} for i in range(3)],
    )
    out = tmp_path / "zero"
    assert main(["run", "--config", write_doc(tmp_path, doc, "zero.json"), "--out", str(out)]) == 0
    return out


def test_report_zero_co2e_baseline_text(zero_run_dir, run_dir, capsys):
    assert main(["report", "--in", str(zero_run_dir), str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "ratios: high/high=n/a"
    assert "inf" not in out and "nan" not in out.lower()


def test_report_zero_co2e_baseline_json(zero_run_dir, run_dir, capsys):
    assert main(["report", "--in", str(zero_run_dir), str(run_dir), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert payload[0]["total_co2e_kg"] == 0.0
    assert payload[-1] == {"ratios": {"high/high": None}}


def test_report_overflowing_ratio_is_not_a_number(tmp_path, capsys):
    dirs = []
    for code, ci in (("TINY", 1e-300), ("HUGE", 1e10)):  # the ratio of their totals is about 1e310
        doc = small_doc(
            regions={code: ci},
            sites=[{"site_id": f"site-{i + 1}", "hardware": "h100_like", "tier": "high", "region": code} for i in range(3)],
        )
        dirs.append(str(tmp_path / code))
        assert main(["run", "--config", write_doc(tmp_path, doc, f"{code}.json"), "--out", dirs[-1]]) == 0
    capsys.readouterr()
    assert main(["report", "--in", *dirs, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out, parse_constant=pytest.fail)[-1] == {"ratios": {"high/high": None}}
    assert main(["report", "--in", *dirs]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ratios: high/high=n/a"


def test_whatif_unknown_region(run_dir):
    assert main(["whatif", "--in", str(run_dir), "--region", "ATLANTIS"]) == 2


def test_calibrate_round_trip(run_dir, tmp_path, capsys):
    summary = json.loads((run_dir / "summary.json").read_text())
    baseline_mean = summary["mean_energy_kwh_per_round"]
    targets = {
        "high": {"mean_energy_kwh_per_round": baseline_mean, "runtime_min": 1.0},
        "medium": {"mean_energy_kwh_per_round": baseline_mean * 9.0, "runtime_min": 2.0},
    }
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps(targets))
    out = tmp_path / "tiers.json"
    assert main(["calibrate", "--baseline", str(run_dir), "--targets", str(targets_path), "--out", str(out)]) == 0
    tiers = json.loads(out.read_text())["tiers"]
    assert tiers["high"] == {"slowdown_factor": 1.0, "power_scale": 1.0}
    assert tiers["medium"]["slowdown_factor"] == pytest.approx(2.0, rel=1e-9)
    assert tiers["medium"]["power_scale"] == pytest.approx(4.5, rel=1e-9)


def test_calibrate_unreachable_target(run_dir, tmp_path):
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps({
        "high": {"mean_energy_kwh_per_round": 0.0, "runtime_min": 1.0},
    }))
    code = main(["calibrate", "--baseline", str(run_dir), "--targets", str(targets_path), "--out", str(tmp_path / "t.json")])
    assert code == 1


def test_run_with_tier_override(run_dir, tmp_path):
    tiers_path = tmp_path / "tiers.json"
    tiers_path.write_text(json.dumps({
        "tiers": {"high": {"slowdown_factor": 1.0, "power_scale": 1.0},
                  "medium": {"slowdown_factor": 3.0, "power_scale": 2.0}}
    }))
    doc = small_doc(sites=[
        {"site_id": f"site-{i + 1}", "hardware": "h100_like", "tier": "medium", "region": "USA"}
        for i in range(3)
    ])
    config = write_doc(tmp_path, doc)
    out = tmp_path / "slow"
    assert main(["run", "--config", config, "--tiers", str(tiers_path), "--out", str(out)]) == 0
    slow = json.loads((out / "summary.json").read_text())
    base = json.loads((run_dir / "summary.json").read_text())
    assert slow["mean_energy_kwh_per_round"] == pytest.approx(
        6.0 * base["mean_energy_kwh_per_round"], rel=1e-9
    )


def retina_doc(**overrides):
    doc = load_json(bundled_config_path("retina_gpuswap_h100"), "config")
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("learning_rate", [1e40, 1e308])
def test_diverging_run_fails_with_one_error_line(tmp_path, capsys, learning_rate):
    # 1e40 fits in float64 but overflows the float32 parameters; 1e308 overflows both
    doc = retina_doc()
    doc["workload"]["learning_rate"] = learning_rate
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: training diverged in round 1: model parameters must be finite\n"
    assert not out.exists()


def test_overflowing_total_fails_before_writing(tmp_path, capsys):
    # every span is finite, but five 0.5 kWh init spikes at 1e308 kg/kWh sum past the float range
    doc = retina_doc(
        hardware={
            "spiky": {
                "train_power_w": {"cpu_w": 40.0, "gpu_w": 200.0},
                "idle_power_w": {"cpu_w": 10.0},
                "init_spike_energy_kwh": 0.5,
                "throughput_steps_per_s": 500.0,
            }
        },
        regions={"HOT": 1e308},
    )
    for site in doc["sites"]:
        site.update(hardware="spiky", region="HOT")
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: compute_co2e_kg is inf: a run total overflows the float range\n"
    assert not out.exists()


_HARDWARE = {
    "train_power_w": {"cpu_w": 40.0, "gpu_w": 300.0, "ram_w": 20.0},
    "idle_power_w": {"cpu_w": 15.0},
    "init_spike_energy_kwh": 3.9e-6,
    "throughput_steps_per_s": 1660.0,
}


@pytest.mark.parametrize(
    "override, message",
    [
        # the power sum overflows: the init span lasts 0 s at inf W
        pytest.param(
            {"train_power_w": {"cpu_w": 1e308, "gpu_w": 1e308}},
            "energy_kwh must be finite and non-negative",
            id="power_sum",
        ),
        # every span lasts inf s, so an idle span's end - start is inf - inf
        pytest.param({"throughput_steps_per_s": 5e-324}, "duration_s must be finite and non-negative", id="throughput"),
        # the init span lasts inf s, so every round span's end - start is inf - inf
        pytest.param({"init_spike_energy_kwh": 1e308}, "duration_s must be finite and non-negative", id="init_spike"),
    ],
)
def test_extreme_hardware_fails_with_one_error_line(tmp_path, capsys, override, message):
    doc = small_doc(
        hardware={"extreme": {**_HARDWARE, **override}},
        sites=[{"site_id": f"site-{i + 1}", "hardware": "extreme", "tier": "high", "region": "USA"} for i in range(3)],
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("separation", [1e39, 1e308])
def test_overflowing_separation_fails_at_its_path(tmp_path, capsys, separation):
    # with no training steps the inf features would otherwise reach a valid-looking run
    doc = small_doc(workload=dict(small_doc()["workload"], separation=separation, local_epochs=0))
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: workload.separation: separation {separation!r} overflows the float32 features\n"
    assert not out.exists()
