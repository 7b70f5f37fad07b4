#!/usr/bin/env python3
"""Record the reference ledgers (rounds.csv) the benchmark's checks compare to.

    python3 perfbench/record_reference.py

Runs every bundled scenario the workloads use, at its config seed, the
tier scenarios with the tiers calibrated from the high run, and copies
each rounds.csv to perfbench/reference/<scenario>.csv. Re-record only when
the ledger is meant to change.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from run import import_greenfl

import_greenfl()

from greenfl.config import bundled_config_path  # noqa: E402
from workloads import REFERENCE_DIR, TIERS, greenfl_cli  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=REFERENCE_DIR.parent.parent, prefix=".perfbench_") as tmp:
        root = Path(tmp)
        targets = str(bundled_config_path("table1_targets"))
        greenfl_cli(["run", "--config", "cifar_tiers_high", "--out", str(root / "cifar_tiers_high")])
        greenfl_cli([
            "calibrate", "--baseline", str(root / "cifar_tiers_high"), "--targets", targets,
            "--out", str(root / "tiers.json"),
        ])
        for tier in TIERS[1:]:
            greenfl_cli([
                "run", "--config", f"cifar_tiers_{tier}", "--tiers", str(root / "tiers.json"),
                "--out", str(root / f"cifar_tiers_{tier}"),
            ])
        greenfl_cli(["run", "--config", "retina_gpuswap_h100", "--out", str(root / "retina_gpuswap_h100")])
        for run_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            shutil.copyfile(run_dir / "rounds.csv", REFERENCE_DIR / f"{run_dir.name}.csv")
            print(f"recorded {REFERENCE_DIR / run_dir.name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
