"""The benchmark's workloads: what one op does and how its outputs are checked.

An op is a list of greenfl commands, each run through greenfl's public
entry point, `greenfl.cli.main`, looked up on the module at call time so
the traced run can wrap it. Each workload splits an op into `prepare`
(untimed), `commands` (each one timed) and `check` (untimed), which gets
the commands' outputs and raises `CheckFailed` on the first wrong one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import greenfl.cli
from greenfl.config import bundled_config_path, load_config
from greenfl.sites import BUILTIN_REGIONS

from calibration import Shape

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The ledger is a function of the plan and the shard sizes only, so every
# float in rounds.csv must match the reference within the repo's
# CO2E_CONSISTENCY_RTOL, whatever the seed.
LEDGER_RTOL = 1e-9
# Acceptance criterion 6: final federated accuracy floor. The trajectory
# bits may change (client-batched SGD), so accuracy is not compared exactly.
ACCURACY_FLOOR = 0.95
# Acceptance criterion 1: total-CO2e ratio bands against the high tier.
TIER_BANDS = {"medium": (8.34, 0.5), "low": (21.73, 1.0)}
TIERS = ("high", "medium", "low")
REGIONS = tuple(sorted(BUILTIN_REGIONS))


class CheckFailed(Exception):
    """An op produced a wrong output or a non-zero exit code."""


def greenfl_cli(argv: list[str]) -> str:
    """Run one greenfl command in-process; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = greenfl.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"greenfl {' '.join(argv)} exited {code}")
    return out.getvalue()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _field_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        int(want)
        return False  # ints and strings must match exactly
    except ValueError:
        pass
    try:
        return math.isclose(float(got), float(want), rel_tol=LEDGER_RTOL, abs_tol=0.0)
    except ValueError:
        return False


def check_ledger(run_dir: Path, reference: list[list[str]], seed: int) -> None:
    """Compare run_dir/rounds.csv to the reference field by field.

    The `seed` column must hold the op's seed; every other field must
    match the reference (floats within LEDGER_RTOL).
    """
    rows = read_csv(run_dir / "rounds.csv")
    header = reference[0]
    if rows[:1] != [header]:
        raise CheckFailed(f"{run_dir.name}: header {rows[:1]} != reference")
    if len(rows) != len(reference):
        raise CheckFailed(f"{run_dir.name}: {len(rows) - 1} rows, reference has {len(reference) - 1}")
    seed_col = header.index("seed")
    for line, (got, want) in enumerate(zip(rows[1:], reference[1:]), start=2):
        if len(got) != len(want):
            raise CheckFailed(f"{run_dir.name}: line {line} has {len(got)} fields")
        for col, (g, w) in enumerate(zip(got, want)):
            ok = g == str(seed) if col == seed_col else _field_matches(g, w)
            if not ok:
                raise CheckFailed(f"{run_dir.name}: line {line} {header[col]}={g!r}, reference {w!r}")


def read_summary(run_dir: Path) -> dict:
    return json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))


def check_accuracy(run_dir: Path) -> None:
    accuracy = read_summary(run_dir)["accuracy_by_round"]
    if not all(math.isfinite(a) for a in accuracy) or not accuracy[-1] >= ACCURACY_FLOOR:
        raise CheckFailed(f"{run_dir.name}: accuracy_by_round {accuracy} misses floor {ACCURACY_FLOOR}")


def check_close(what: str, got: float, want: float) -> None:
    if not math.isclose(got, want, rel_tol=LEDGER_RTOL, abs_tol=0.0):
        raise CheckFailed(f"{what}: {got!r} != {want!r}")


class Workload:
    """One op per call: `prepare` builds its inputs, `commands` are timed."""

    scenarios: tuple[str, ...] = ()
    # the calibration loop at this workload's SGD batch shape
    calibration: Shape

    def __init__(self, work: Path):
        self.work = work
        self.reference = {s: read_csv(REFERENCE_DIR / f"{s}.csv") for s in self.scenarios}

    def setup(self) -> None:
        """Resolve the configs the ops use.

        Runs in a fresh process per repetition so that imports are timed.
        """
        for scenario in self.scenarios:
            load_config(bundled_config_path(scenario))

    def prepare(self, index: int, seed: int) -> dict:
        op_dir = self.work / f"op-{index}"
        op_dir.mkdir(parents=True)
        return {"dir": op_dir, "seed": seed}

    def commands(self, op: dict) -> list[list[str]]:
        """The greenfl command lines of one op, in order."""
        raise NotImplementedError

    def check(self, op: dict, outs: list[str]) -> None:
        raise NotImplementedError

    def cleanup(self, op: dict) -> None:
        shutil.rmtree(op["dir"], ignore_errors=True)


class TierSuite(Workload):
    """High run, calibrate, medium and low runs with the fit tiers, report,
    then `whatif` on the high run for one builtin region chosen by the seed."""

    scenarios = tuple(f"cifar_tiers_{t}" for t in TIERS)
    calibration = Shape(batch=600, features=90, classes=10, steps=300, reference_s=0.1)

    def commands(self, op: dict) -> list[list[str]]:
        root, seed = op["dir"], str(op["seed"])
        tiers = str(root / "tiers.json")
        targets = str(bundled_config_path("table1_targets"))
        return [
            ["run", "--config", "cifar_tiers_high", "--seed", seed, "--out", str(root / "high")],
            ["calibrate", "--baseline", str(root / "high"), "--targets", targets, "--out", tiers],
            *(
                ["run", "--config", f"cifar_tiers_{tier}", "--tiers", tiers, "--seed", seed, "--out", str(root / tier)]
                for tier in TIERS[1:]
            ),
            ["report", "--in", *(str(root / t) for t in TIERS)],
            ["whatif", "--in", str(root / "high"), "--region", REGIONS[op["seed"] % len(REGIONS)]],
        ]

    def check(self, op: dict, outs: list[str]) -> None:
        report, whatif = outs[-2:]
        summaries = {}
        for tier in TIERS:
            run_dir = op["dir"] / tier
            check_ledger(run_dir, self.reference[f"cifar_tiers_{tier}"], op["seed"])
            check_accuracy(run_dir)
            summaries[tier] = read_summary(run_dir)
        for tier, (centre, half_width) in TIER_BANDS.items():
            ratio = summaries[tier]["total_co2e_kg"] / summaries["high"]["total_co2e_kg"]
            if not abs(ratio - centre) <= half_width:
                raise CheckFailed(f"{tier}/high ratio {ratio} outside {centre} +- {half_width}")
            if f"{tier}/high={ratio:.2f}" not in report:
                raise CheckFailed(f"report does not show {tier}/high={ratio:.2f}")

        region = REGIONS[op["seed"] % len(REGIONS)]
        ci = BUILTIN_REGIONS[region].ci_kg_per_kwh
        doc, high = json.loads(whatif), summaries["high"]
        if set(doc["ci_kg_per_kwh"].values()) != {ci}:
            raise CheckFailed(f"whatif {region}: intensities {doc['ci_kg_per_kwh']} != {ci}")
        check_close(f"whatif {region} total_energy_kwh", doc["total_energy_kwh"], high["total_energy_kwh"])
        check_close(f"whatif {region} original_total_co2e_kg", doc["original_total_co2e_kg"], high["total_co2e_kg"])
        check_close(
            f"whatif {region} remapped_total_co2e_kg", doc["remapped_total_co2e_kg"], doc["total_energy_kwh"] * ci,
        )


class RetinaSeedSweep(Workload):
    """One retina_gpuswap_h100 run at the op's seed."""

    scenarios = ("retina_gpuswap_h100",)
    calibration = Shape(batch=20, features=64, classes=2, steps=2000, reference_s=0.09)

    def commands(self, op: dict) -> list[list[str]]:
        return [["run", "--config", "retina_gpuswap_h100", "--seed", str(op["seed"]), "--out", str(op["dir"] / "run")]]

    def check(self, op: dict, outs: list[str]) -> None:
        (out,) = outs
        run_dir = op["dir"] / "run"
        check_ledger(run_dir, self.reference["retina_gpuswap_h100"], op["seed"])
        check_accuracy(run_dir)
        if "retina_gpuswap_h100: 5 sites x 5 rounds" not in out:
            raise CheckFailed(f"unexpected run output {out!r}")


WORKLOADS = {
    "tier_suite": TierSuite,
    "retina_seed_sweep": RetinaSeedSweep,
}
