import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from greenfl import workload
from greenfl.cli import main
from greenfl.config import build_shards, bundled_config_path, load_json, parse_config
from greenfl.errors import ConfigError
from greenfl.reporting import RunReport, SiteTotals
from greenfl.runner import plan_run

from conftest import ROOT, fail_in_the_worker, run_python, small_doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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


def test_report_json_is_each_summary_with_its_dir_and_label(run_dir, tmp_path, capsys):
    other = tmp_path / "seed-5"
    assert main(["run", "--config", write_doc(tmp_path, small_doc()), "--seed", "5", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(run_dir), str(other), "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    keys = ["dir", "label", "co2e_ratio", "schema_version", *(f.name for f in dataclasses.fields(RunReport))]
    site_keys = [f.name for f in dataclasses.fields(SiteTotals)]
    base = json.loads((run_dir / "summary.json").read_text())["total_co2e_kg"]
    for entry, d in zip(entries, (run_dir, other), strict=True):
        summary = json.loads((d / "summary.json").read_text())
        assert summary["accuracy_by_round"]
        assert entry == {"dir": str(d), "label": "high", "co2e_ratio": summary["total_co2e_kg"] / base, **summary}
        assert list(entry) == keys
        assert list(entry["per_site"]) == sorted(summary["per_site"])
        assert all(list(totals) == site_keys for totals in entry["per_site"].values())


def test_report_json_gives_every_run_its_co2e_ratio(tmp_path, capsys):
    # all three runs are labelled `high`: a map keyed `label/label` kept one
    # ratio for two runs, and lost the GPU swap's v100/h100 ratio
    dirs = [tmp_path / name for name in ("h100", "v100", "small")]
    configs = ["retina_gpuswap_h100", "retina_gpuswap_v100", write_doc(tmp_path, small_doc())]
    for config, out in zip(configs, dirs):
        assert main(["run", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", *map(str, dirs), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    totals = [json.loads((d / "summary.json").read_text())["total_co2e_kg"] for d in dirs]
    assert [(entry["dir"], entry["label"]) for entry in payload] == [(str(d), "high") for d in dirs]
    assert [entry["co2e_ratio"] for entry in payload] == [total / totals[0] for total in totals]
    assert payload[1]["co2e_ratio"] == pytest.approx(1.51, abs=0.005)


def test_report_csv_quotes_its_cells(tmp_path, capsys):
    # a comma or quote in a site id stays in its own cell; plain ids and the
    # repr floats print as they did before the cells were quoted
    ids = ['a,"b', "site-2", "site-3"]
    doc = small_doc(sites=[{"site_id": i, "hardware": "h100_like", "tier": "high", "region": "USA"} for i in ids])
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(out), "--format", "csv"]) == 0
    text = capsys.readouterr().out
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["run", "site_id", "energy_kwh", "co2e_kg", "busy_s"]
    per_site = json.loads((out / "summary.json").read_text())["per_site"]
    assert sorted(row[1] for row in rows) == sorted(ids)
    for label, site, *values in rows:
        assert label == "high"
        want = per_site[site]
        assert [float(v) for v in values] == [want["energy_kwh"], want["co2e_kg"], want["busy_s"]]
    plain = per_site["site-2"]
    assert f"high,site-2,{plain['energy_kwh']!r},{plain['co2e_kg']!r},{plain['busy_s']!r}\n" in text


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
    assert out.err == "error: row 1: energy_kwh must be finite and non-negative\n"


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
@pytest.mark.parametrize("cell", ["abc", "short", "bogus", "\xff"])
def test_malformed_row_fails_with_one_error_line(run_dir, capsys, argv, cell):
    csv_path = run_dir / "rounds.csv"
    header, first, *rest = csv_path.read_text().splitlines(keepends=True)
    fields = first.rstrip("\n").split(",")
    if cell == "short":
        fields.pop()
    else:
        fields[header.split(",").index("phase" if cell == "bogus" else "energy_kwh")] = cell
    # latin-1 writes "\xff" as a byte that is not UTF-8, which ended in a UnicodeDecodeError traceback
    csv_path.write_text("".join([header, ",".join(fields) + "\n", *rest]), encoding="latin-1")
    assert main([argv[0], "--in", str(run_dir), *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert ("rounds.csv is not UTF-8" in out.err) == (cell == "\xff"), out.err


@pytest.mark.parametrize("argv", [["report", "--format", "json"], ["whatif", "--ci", "0.3"]])
@pytest.mark.parametrize("field", ["payload_bytes", "round_index"])
def test_huge_int_cell_fails_with_one_error_line(run_dir, capsys, argv, field):
    # an int beyond the float range ended `report` in an OverflowError traceback
    csv_path = run_dir / "rounds.csv"
    header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    number, row = next((n, row) for n, row in enumerate(rows, start=1) if row[header.index("phase")] == "round")
    row[header.index(field)] = str(10**400)
    csv_path.write_text("".join(",".join(line) + "\n" for line in [header, *rows]))
    assert main([argv[0], "--in", str(run_dir), *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: row {number}: {field} must be") and out.err.endswith("within the float range\n")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("phase, cell", [("idle", str(10**12)), ("round", "")], ids=["idle_payload", "round_without"])
def test_payload_off_round_rows_fails_with_one_error_line(run_dir, capsys, phase, cell):
    # a payload on an idle row, or none on a round row, parsed: `report`
    # exited 0 and the run's comm CO2e silently changed
    csv_path = run_dir / "rounds.csv"
    header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    number, row = next((n, row) for n, row in enumerate(rows, start=1) if row[header.index("phase")] == phase)
    row[header.index("payload_bytes")] = cell
    csv_path.write_text("".join(",".join(line) + "\n" for line in [header, *rows]))
    assert main(["report", "--in", str(run_dir)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: row {number}: payload_bytes must be set on round rows and empty on others\n"


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
    summaries = [line for line in out.splitlines() if line.startswith("  mean energy/round")]
    assert len(summaries) == 2 and all(line.endswith(" | high/high=n/a") for line in summaries)
    assert "inf" not in out and "nan" not in out.lower()


def test_report_zero_co2e_baseline_json(zero_run_dir, run_dir, capsys):
    assert main(["report", "--in", str(zero_run_dir), str(run_dir), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert payload[0]["total_co2e_kg"] == 0.0
    assert [entry["co2e_ratio"] for entry in payload] == [None, None]


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
    payload = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert [entry["co2e_ratio"] for entry in payload] == [1.0, None]
    assert main(["report", "--in", *dirs]) == 0
    lines = capsys.readouterr().out.splitlines()
    first = next(line for line in lines if line.startswith("  mean energy/round"))
    assert first.endswith(" | high/high=1.00")
    assert lines[-1].endswith(" | high/high=n/a")


def test_report_text_gives_each_run_its_own_ratio(tmp_path, capsys):
    # three `high` runs, like the GPU swap pair plus a reseeded baseline: each
    # run's block ends with its own ratio to the first run
    dirs = []
    runs = (("h100", "h100_like", "0"), ("v100", "v100_like", "0"), ("h100-seed-5", "h100_like", "5"))
    for name, hardware, seed in runs:
        sites = [{"site_id": f"site-{i + 1}", "hardware": hardware, "tier": "high", "region": "USA"} for i in range(3)]
        doc = small_doc(sites=sites)
        dirs.append(tmp_path / name)
        config = write_doc(tmp_path, doc, f"{name}.json")
        assert main(["run", "--config", config, "--seed", seed, "--out", str(dirs[-1])]) == 0
    capsys.readouterr()
    assert main(["report", "--in", *map(str, dirs)]) == 0
    blocks = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("run "):
            blocks.append([])
        blocks[-1].append(line)
    totals = [json.loads((d / "summary.json").read_text())["total_co2e_kg"] for d in dirs]
    assert len(blocks) == len(dirs)
    for block, d, total in zip(blocks, dirs, totals):
        assert block[0] == f"run high ({d}): 2 rounds"
        assert block[-1].endswith(f" | high/high={total / totals[0]:.2f}")
    assert totals[1] != totals[0]


@pytest.mark.parametrize(
    "accuracies, message",
    [
        pytest.param(float("nan"), "summary.json.accuracy_by_round: expected list", id="not_a_list"),
        pytest.param([0.5, float("nan")], "summary.json.accuracy_by_round[1]: must be finite", id="nan"),
        pytest.param(["0.5"], "summary.json.accuracy_by_round[0]: expected number", id="string"),
        pytest.param([1.5], "summary.json.accuracy_by_round[0]: must be <= 1", id="above_one"),
        pytest.param(None, "summary.json.accuracy_by_round: expected list", id="missing"),
    ],
)
def test_report_corrupted_accuracies_fail_with_one_error_line(run_dir, capsys, accuracies, message):
    path = run_dir / "summary.json"
    summary = json.loads(path.read_text())
    if accuracies is None:
        del summary["accuracy_by_round"]
    else:
        summary["accuracy_by_round"] = accuracies
    path.write_text(json.dumps(summary))  # writes a NaN as the bare token NaN
    capsys.readouterr()
    assert main(["report", "--in", str(run_dir), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_report_text_and_csv_do_not_read_the_accuracies(run_dir, capsys, fmt):
    argv = ["report", "--in", str(run_dir), "--format", fmt]
    assert main(argv) == 0
    intact = capsys.readouterr()
    path = run_dir / "summary.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "accuracy_by_round": [1.5]}))
    assert main(argv) == 0
    assert capsys.readouterr() == intact


def run_grid_whatif(run_dir):
    return run_python(ROOT / "scripts" / "grid_whatif.py", run_dir)


def test_grid_whatif_script_fails_with_one_error_line(run_dir, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    missing = run_grid_whatif(empty)
    assert (missing.returncode, missing.stdout) == (2, "")
    assert missing.stderr == f"error: run_dir: {empty} does not contain rounds.csv\n"

    csv_path = run_dir / "rounds.csv"
    csv_path.write_text(csv_path.read_text().replace("energy_kwh", "energy_j", 1))
    bad = run_grid_whatif(run_dir)
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1, bad.stderr

    csv_path.write_bytes(b"run_id\xff\n")
    undecodable = run_grid_whatif(run_dir)
    assert (undecodable.returncode, undecodable.stdout) == (1, "")
    assert undecodable.stderr.startswith(f"error: {csv_path} is not UTF-8: ") and undecodable.stderr.count("\n") == 1


def test_whatif_unknown_region(run_dir, capsys):
    assert main(["whatif", "--in", str(run_dir), "--region", "ATLANTIS"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: region: unknown region 'ATLANTIS'\n"


def test_whatif_output_does_not_depend_on_the_hash_seed(tmp_path):
    # the regions are listed in first-seen row order, not in set order
    doc = retina_doc()
    for site, region in zip(doc["sites"], ("USA", "FRA", "SWE", "DEU", "POL"), strict=True):
        site["region"] = region
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
    outputs = []
    for hash_seed in ("1", "2"):
        argv = ["-m", "greenfl.cli", "whatif", "--in", out, "--ci", "0.1"]
        outputs.append(run_python(*argv, env={"PYTHONHASHSEED": hash_seed}, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert list(json.loads(outputs[0])["ci_kg_per_kwh"]) == ["USA", "FRA", "SWE", "DEU", "POL"]


def test_a_batch_wider_than_every_shard_is_one_batch_in_sgd_and_the_ledger(tmp_path):
    # both runs train each shard whole, one batch per epoch, so the ledger
    # must charge them the same steps; 10**400 / n is 0.0 as a float
    doc = small_doc()
    largest = max(len(shard) for shard in build_shards(parse_config(doc).spec))
    outs = []
    for batch_size in (largest, 10**400):
        doc["workload"]["batch_size"] = batch_size
        outs.append(tmp_path / f"batch_{len(outs)}")
        assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(outs[-1])]) == 0
    for name in ("rounds.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_json_is_not_read_back(run_dir, tmp_path, capsys):
    # report, whatif and calibrate read rounds.csv (and report summary.json), never run.json
    targets = tmp_path / "targets.json"
    mean = json.loads((run_dir / "summary.json").read_text())["mean_energy_kwh_per_round"]
    targets.write_text(json.dumps({"high": {"mean_energy_kwh_per_round": mean, "runtime_min": 1.0}}))
    argvs = [
        ["report", "--in", str(run_dir)],
        ["report", "--in", str(run_dir), "--format", "json"],
        ["report", "--in", str(run_dir), "--format", "csv"],
        ["whatif", "--in", str(run_dir), "--region", "FRA"],
        ["calibrate", "--baseline", str(run_dir), "--targets", str(targets), "--out", str(tmp_path / "t.json")],
    ]

    def outputs():
        printed = []
        for argv in argvs:
            assert main(argv) == 0
            printed.append(capsys.readouterr())
        return printed, (tmp_path / "t.json").read_bytes()

    capsys.readouterr()
    before = outputs()
    (run_dir / "run.json").write_text("{bad")
    assert outputs() == before


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


def test_calibrate_unreachable_target(run_dir, tmp_path, capsys):
    # a valid target that the baseline misses by 50%, outside the 5% tolerance
    mean = json.loads((run_dir / "summary.json").read_text())["mean_energy_kwh_per_round"]
    targets_path = tmp_path / "targets.json"
    targets_path.write_text(json.dumps({
        "high": {"mean_energy_kwh_per_round": 2 * mean, "runtime_min": 1.0},
    }))
    code = main(["calibrate", "--baseline", str(run_dir), "--targets", str(targets_path), "--out", str(tmp_path / "t.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: baseline mean energy {mean} is 50.0% from the high-tier target {2 * mean} (tolerance 5%)\n"
    )
    assert not (tmp_path / "t.json").exists()


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


@pytest.mark.parametrize(
    "scenario, learning_rate",
    [
        pytest.param("retina_gpuswap_h100", 1e40, id="1e+40"),
        pytest.param("retina_gpuswap_h100", 1e308, id="1e+308"),
        # a step large enough to train its clients in groups, one in a worker process
        pytest.param("cifar_tiers_high", 1e40, id="cifar_tiers_high-1e+40"),
    ],
)
def test_diverging_run_fails_with_one_error_line(tmp_path, capsys, scenario, learning_rate):
    # 1e40 fits in float64 but overflows the float32 parameters; 1e308 overflows both
    doc = load_json(bundled_config_path(scenario), "config")
    doc["workload"]["learning_rate"] = learning_rate
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: training diverged in round 1: model parameters must be finite\n"
    assert not out.exists()


# `greenfl` with two client groups on any machine, so cifar trains one in a worker
TWO_GROUPS = (
    "import sys, greenfl.cli, greenfl.workload; greenfl.workload._usable_cores = lambda: 2;"
    " sys.exit(greenfl.cli.main(sys.argv[1:]))"
)


def greenfl_in_session(tmp_path, *argv):
    """`greenfl *argv` as a child in a new session, its output sent to files, so
    a process it leaves behind can neither hang the test nor escape it;
    returns the child's pid, exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error::RuntimeWarning"}
    with open(tmp_path / "stdout", "w+") as out, open(tmp_path / "stderr", "w+") as err:
        child = subprocess.Popen(
            [sys.executable, "-c", TWO_GROUPS, *map(str, argv)], env=env, stdout=out, stderr=err, start_new_session=True
        )
        code = child.wait(timeout=60)
        out.seek(0)
        err.seek(0)
        return child.pid, code, out.read(), err.read()


@pytest.mark.parametrize("learning_rate", [None, 1e40], ids=["trains", "diverges"])
def test_a_run_leaves_no_process_behind(tmp_path, learning_rate):
    config = "cifar_tiers_high"
    if learning_rate is not None:
        doc = load_json(bundled_config_path(config), "config")
        doc["workload"]["learning_rate"] = learning_rate
        config = write_doc(tmp_path, doc)
    pid, code, out, err = greenfl_in_session(tmp_path, "run", "--config", config, "--out", tmp_path / "out")
    if learning_rate is None:
        assert (code, err) == (0, ""), err
    else:
        assert (code, out) == (1, "")
        assert err == "error: training diverged in round 1: model parameters must be finite\n"
    # the session's group is gone with its leader: no worker outlived the run
    with pytest.raises(ProcessLookupError):
        os.killpg(pid, 0)


def test_a_failed_worker_fails_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(workload, "_usable_cores", lambda: 2)
    monkeypatch.setattr(workload, "_lockstep", fail_in_the_worker())
    out = tmp_path / "out"
    assert main(["run", "--config", "cifar_tiers_high", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a client group's worker failed: MemoryError: no room for the epoch tables\n"
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
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sites: compute_co2e_kg is inf: a run total overflows the float range\n"
    assert not out.exists()


def test_overflowing_span_fails_at_its_site_before_training(tmp_path, capsys, monkeypatch):
    # a tier whose power overflows makes every round span of site-3 draw inf kWh
    monkeypatch.setattr("greenfl.cli.train_trajectory", lambda spec: pytest.fail("trained before the ledger check"))
    doc = load_json(bundled_config_path("cifar_tiers_high"), "config")
    doc["tiers"] = {"hot": {"slowdown_factor": 1.0, "power_scale": 1e308}}
    doc["sites"][2]["tier"] = "hot"
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sites[2]: round span of round 1: energy_kwh must be finite and non-negative\n"
    assert not out.exists()


def test_first_failing_row_built_names_its_site(tmp_path, capsys):
    # both hot sites' round spans draw inf kWh; rows are made in config site
    # order, so sites[0] is named although "site-b" sorts before "site-c"
    doc = small_doc(
        tiers={"hot": {"slowdown_factor": 1.0, "power_scale": 1e308}},
        sites=[
            {"site_id": site_id, "hardware": "h100_like", "tier": tier, "region": "USA"}
            for site_id, tier in (("site-c", "hot"), ("site-b", "hot"), ("site-a", "high"))
        ],
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sites[0]: round span of round 1: energy_kwh must be finite and non-negative\n"
    assert not out.exists()


def test_duplicate_site_id_fails_with_one_error_line(tmp_path, capsys):
    doc = small_doc()
    doc["sites"][2]["site_id"] = doc["sites"][0]["site_id"]
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sites: site_id values must be unique\n"
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
        # every span lasts inf s, so an idle span's end - start is inf - inf
        pytest.param(
            {"throughput_steps_per_s": 5e-324},
            "sites[0]: round span of round 1: duration_s must be finite and non-negative",
            id="throughput",
        ),
        # the init span lasts inf s, so every round span's end - start is inf - inf
        pytest.param(
            {"init_spike_energy_kwh": 1e308},
            "sites[0]: init span of round 0: duration_s must be finite and non-negative",
            id="init_spike",
        ),
    ],
)
def test_extreme_hardware_fails_with_one_error_line(tmp_path, capsys, override, message):
    doc = small_doc(
        hardware={"extreme": {**_HARDWARE, **override}},
        sites=[{"site_id": f"site-{i + 1}", "hardware": "extreme", "tier": "high", "region": "USA"} for i in range(3)],
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("power", ["train_power", "idle_power"])
def test_overflowing_power_sum_fails_at_its_hardware_path(tmp_path, capsys, power):
    # each component is finite, but their total is inf W
    doc = small_doc(
        hardware={"extreme": {**_HARDWARE, f"{power}_w": {"cpu_w": 1e308, "gpu_w": 1e308}}},
        sites=[{"site_id": f"site-{i + 1}", "hardware": "extreme", "tier": "high", "region": "USA"} for i in range(3)],
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: hardware.extreme: {power} total inf W overflows the float range\n"
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


def test_more_clients_than_samples_fails_at_its_path(tmp_path, capsys):
    doc = small_doc(workload=dict(small_doc()["workload"], num_classes=1, samples_per_class=2))
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partition.num_clients: more clients than samples\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_run_out_under_a_file_exits_2_before_training(tmp_path, capsys, monkeypatch, sub):
    monkeypatch.setattr("greenfl.cli.plan_run", lambda cfg: pytest.fail("planned before checking --out"))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / sub if sub else blocker
    assert main(["run", "--config", write_doc(tmp_path, small_doc()), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out: {blocker} is not a directory\n"
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("sub", ["", "sub"])
def test_run_out_dangling_symlink_exits_2_before_training(tmp_path, capsys, monkeypatch, sub):
    monkeypatch.setattr("greenfl.cli.plan_run", lambda cfg: pytest.fail("planned before checking --out"))
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing")
    out = link / sub if sub else link
    assert main(["run", "--config", write_doc(tmp_path, small_doc()), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out: {link} is not a directory\n"
    assert link.is_symlink() and not (tmp_path / "missing").exists()


def test_empty_dirichlet_shard_fails_at_alpha_before_training(tmp_path, capsys, monkeypatch):
    # alpha 0.01 draws the shard sizes [20, 0, 160] from small_doc's 180 samples
    monkeypatch.setattr("greenfl.cli.train_trajectory", lambda spec: pytest.fail("trained on an empty shard"))
    doc = small_doc(partition={"num_clients": 3, "alpha": 0.01, "seed": 0})
    assert [len(shard) for shard in build_shards(parse_config(doc).spec)] == [20, 0, 160]
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partition.alpha: sites[1] (site-2) gets an empty shard\n"
    assert not out.exists()


def test_lockstep_state_over_the_bound_fails_before_the_dataset(tmp_path, capsys, monkeypatch):
    # each case passes every rule of parse_config and exceeds the lockstep
    # rule through one term.  `theta`: cifar_tiers_high at 1 sample per class
    # and 2 x 10^6 features holds 6 x 10 x 3 x (2 x 10^6 + 1) values of θ and
    # its arrays.  `gather`: 1 class of 500 samples over 100 sites gives
    # shards of 4 to 6 samples, so the one-step gather is 100 x 6 x (200,000
    # + 1) values.  `steps`: one site's 1.6 x 10^7 one-sample steps per epoch
    # give epoch tables of 7 x 1.6 x 10^7 values
    monkeypatch.setattr("greenfl.runner.build_dataset", lambda spec: pytest.fail("built the dataset"))
    theta = load_json(bundled_config_path("cifar_tiers_high"), "config")
    theta["workload"].update(samples_per_class=1, num_features=2_000_000)
    gather = small_doc(
        num_rounds=1,
        workload=dict(
            small_doc()["workload"], num_classes=1, samples_per_class=500, num_features=200_000, batch_size=10
        ),
        partition={"num_clients": 100, "alpha": 100.0, "seed": 0},
        sites=[{"site_id": f"s{i}", "hardware": "h100_like", "tier": "high", "region": "USA"} for i in range(100)],
    )
    sizes = [len(shard) for shard in build_shards(parse_config(gather).spec)]
    assert (min(sizes), max(sizes)) == (4, 6)
    steps = load_json(bundled_config_path("cifar_tiers_high"), "config")
    steps["workload"].update(num_classes=2, samples_per_class=8_000_000, num_features=1, batch_size=1)
    steps.update(num_rounds=1, partition=dict(steps["partition"], num_clients=1), sites=steps["sites"][:1])
    for name, doc in (("theta", theta), ("gather", gather), ("steps", steps)):
        out = tmp_path / name
        assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err.startswith("error: partition.num_clients: ") and captured.err.count("\n") == 1, name
        assert not out.exists(), name


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads the child's peak RSS from /proc")
def test_lockstep_rule_refuses_an_oversized_shard_from_its_size_alone(tmp_path):
    # 1 class of 10^8 one-feature samples on one site passes every rule of
    # parse_config.  The lockstep rule refuses it from the count table's
    # sizes, so the child never holds the 10^8 labels or indices, which
    # would take about 2.3 GB to build.  After the CLI's error line
    # the child prints its own peak RSS in MB: VmHWM, since ru_maxrss keeps
    # the peak of the test process it was forked from across the exec
    doc = load_json(bundled_config_path("cifar_tiers_high"), "config")
    doc["workload"].update(num_classes=1, samples_per_class=10**8, num_features=1)
    doc.update(num_rounds=1, partition=dict(doc["partition"], num_clients=1), sites=doc["sites"][:1])
    code = (
        "import sys\n"
        "from greenfl.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "peak = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(int(peak.split()[1]) // 1024, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    out = tmp_path / "out"
    done = run_python("-c", code, "run", "--config", write_doc(tmp_path, doc), "--out", out)
    assert (done.returncode, done.stdout) == (2, "")
    error, peak_mb = done.stderr.splitlines(keepends=True)
    assert error == (
        "error: partition.num_clients: num_clients x (num_classes x (3 x (num_features + 1) + lane) + lane x"
        " (7 x batches(largest shard, lane) + num_features + 1)), lane = min(batch_size, largest shard), must be"
        " <= 100000000; the largest shard holds 100000000 samples\n"
    )
    assert int(peak_mb) < 100
    assert not out.exists()


@pytest.mark.parametrize("num_features, plans", [(99_691, True), (99_692, False)])
def test_lockstep_state_at_the_bound_plans(num_features, plans):
    # one site holds all 1000 samples, one batch of 1000 lanes (the batch size
    # is wider): 1 x (1 x (3 x (num_features + 1) + 1000) + 1000 x (7 x 1 +
    # num_features + 1)) values, 99,999,076 at 99,691 features
    doc = small_doc(
        num_rounds=1,
        workload=dict(
            small_doc()["workload"], num_classes=1, samples_per_class=1000, num_features=num_features, batch_size=5000
        ),
        partition={"num_clients": 1, "alpha": 1.0, "seed": 0},
        sites=small_doc()["sites"][:1],
    )
    cfg = parse_config(doc)
    if plans:
        records, _ = plan_run(cfg)
        assert len(records) == 4
    else:
        with pytest.raises(ConfigError) as exc:
            plan_run(cfg)
        assert str(exc.value) == (
            "partition.num_clients: num_clients x (num_classes x (3 x (num_features + 1) + lane) + lane x"
            " (7 x batches(largest shard, lane) + num_features + 1)), lane = min(batch_size, largest shard),"
            " must be <= 100000000; the largest shard holds 1000 samples"
        )


def test_lockstep_rule_counts_the_real_lane():
    # cifar_tiers_high over 200 sites in one full batch each: a lane as wide
    # as the whole dataset would count 200 x 10 x (3 x 91 + 60,000) = 1.2 x
    # 10^8 values for θ and the logits alone, but a lane is at most the
    # largest shard
    doc = load_json(bundled_config_path("cifar_tiers_high"), "config")
    doc["workload"]["batch_size"] = 60_000
    doc["partition"]["num_clients"] = 200
    doc["sites"] = [dict(doc["sites"][0], site_id=f"site-{i}") for i in range(200)]
    cfg = parse_config(doc)
    assert max(len(shard) for shard in build_shards(cfg.spec)) == 636
    records, _ = plan_run(cfg)
    assert len(records) == 200 * (1 + 3 * cfg.spec.num_rounds)


@pytest.fixture
def targets_path(run_dir, tmp_path):
    mean = json.loads((run_dir / "summary.json").read_text())["mean_energy_kwh_per_round"]
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"high": {"mean_energy_kwh_per_round": mean, "runtime_min": 1.0}}))
    return path


@pytest.mark.parametrize(
    "make_out, blamed",
    [
        pytest.param(lambda tmp: tmp / "dir", "{out} is a directory", id="directory"),
        pytest.param(lambda tmp: tmp / "blocker" / "t.json", "{parent} is not a directory", id="under_a_file"),
        pytest.param(lambda tmp: tmp / "missing" / "t.json", "{parent} is not a directory", id="missing_parent"),
    ],
)
def test_calibrate_unwritable_out_exits_2(run_dir, targets_path, tmp_path, capsys, make_out, blamed):
    (tmp_path / "dir").mkdir()
    (tmp_path / "blocker").write_text("keep")
    out = make_out(tmp_path)
    capsys.readouterr()
    assert main(["calibrate", "--baseline", str(run_dir), "--targets", str(targets_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out: " + blamed.format(out=out, parent=out.parent) + "\n"
    assert (tmp_path / "blocker").read_text() == "keep"


def test_run_write_failure_is_one_error_line(tmp_path, capsys):
    # the boundary accepts an existing directory; the OSError comes from the write itself
    out = tmp_path / "out"
    (out / "rounds.csv").mkdir(parents=True)
    assert main(["run", "--config", write_doc(tmp_path, small_doc()), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "rounds.csv" in captured.err
    assert captured.err.count("\n") == 1


def test_calibrate_write_failure_is_one_error_line(run_dir, targets_path, tmp_path, capsys):
    # a dangling symlink passes the boundary, and `open` cannot follow it
    out = tmp_path / "link.json"
    out.symlink_to(tmp_path / "missing" / "t.json")
    capsys.readouterr()
    assert main(["calibrate", "--baseline", str(run_dir), "--targets", str(targets_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "link.json" in captured.err
    assert captured.err.count("\n") == 1


def _leaves(value):
    """The numbers and strings of a JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


_ZERO_POWER = {"cpu_w": -0.0, "gpu_w": -0.0, "ram_w": -0.0}


@pytest.mark.parametrize(
    "overrides, site",
    [
        pytest.param(
            {"regions": {"NEG": -0.0}, "comm": {"net_intensity_kwh_per_gb": -0.0, "attribution": "client"}},
            {"region": "NEG"},
            id="regions",
        ),
        pytest.param(
            {"hardware": {"zero": {
                "train_power_w": _ZERO_POWER,
                "idle_power_w": _ZERO_POWER,
                "init_spike_energy_kwh": -0.0,
                "throughput_steps_per_s": 1660.0,
            }}},
            {"hardware": "zero"},
            id="hardware",
        ),
    ],
)
def test_a_negative_zero_input_reaches_no_artifact(tmp_path, capsys, overrides, site):
    # -0.0 passes every ">= 0" bound; it is read as 0.0, so no cell, summary
    # value or what-if value is written "-0.0"
    doc = retina_doc(num_rounds=1, **overrides)
    doc["sites"] = [{**s, **site} for s in doc["sites"]]
    out = tmp_path / "out"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
    with open(out / "rounds.csv", newline="") as fh:
        cells = [cell for row in csv.reader(fh) for cell in row]
    run = json.loads((out / "run.json").read_text())
    assert run.pop("config") == doc  # the echo keeps the document as given
    summary = json.loads((out / "summary.json").read_text())
    capsys.readouterr()
    assert main(["whatif", "--in", str(out), "--ci", "-0.0"]) == 0
    whatif = json.loads(capsys.readouterr().out)
    values = [str(leaf) for leaf in _leaves([run, summary, whatif])]
    assert [text for text in cells + values if text.startswith("-")] == []


@pytest.mark.parametrize(
    "flag, argv",
    [
        pytest.param("config", ["run", "--config", "", "--out", "o"], id="run-config"),
        pytest.param("out", ["run", "--config", "{config}", "--out", ""], id="run-out"),
        pytest.param("tiers", ["run", "--config", "{config}", "--out", "o", "--tiers", ""], id="run-tiers"),
        pytest.param("in", ["report", "--in", ""], id="report-in"),
        pytest.param("in", ["report", "--in", "{run}", ""], id="report-second-in"),
        pytest.param("in", ["whatif", "--in", "", "--ci", "0.5"], id="whatif-in"),
        pytest.param("baseline", ["calibrate", "--baseline", "", "--targets", "{targets}", "--out", "t.json"],
                     id="calibrate-baseline"),
        pytest.param("targets", ["calibrate", "--baseline", "{run}", "--targets", "", "--out", "t.json"],
                     id="calibrate-targets"),
        pytest.param("out", ["calibrate", "--baseline", "{run}", "--targets", "{targets}", "--out", ""],
                     id="calibrate-out"),
    ],
)
def test_an_empty_path_exits_2_at_its_flag(run_dir, targets_path, tmp_path, capsys, monkeypatch, flag, argv):
    # `Path("")` is the working directory, so an empty path would read or
    # write there
    paths = {"config": tmp_path / "config.json", "run": run_dir, "targets": targets_path}
    argv = [arg.format(**paths) for arg in argv]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: must not be an empty path\n"
    assert sorted(tmp_path.rglob("*")) == before
