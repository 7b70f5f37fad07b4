#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/smoke.py

Runs the fewest ops of every workload, untraced and traced, and asserts
that each metric BENCHMARK.json declares is printed with its unit.
Then it proves the output checks bite: in a copy of the checkout whose
reference ledger has one float off by one part in a million, ops must
fail. Last, it asserts that the benchmark exits non-zero, printing no
result, in a directory that holds only BENCHMARK.json and the benchmark.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import import_greenfl

import_greenfl()

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NO_CACHE = shutil.ignore_patterns("__pycache__")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(*args: str, cwd: Path = ROOT) -> dict:
    proc = bench(*args, cwd=cwd)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, declared: list[dict], what: str) -> None:
    got = res["metrics"]
    names = [m["name"] for m in declared]
    if sorted(got) != sorted(names):
        raise AssertionError(f"{what}: printed {sorted(got)}, declared {sorted(names)}")
    for m in declared:
        metric = got[m["name"]]
        if metric["unit"] != m["unit"] or not math.isfinite(metric["value"]):
            raise AssertionError(f"{what}: {m['name']} = {metric}, declared unit {m['unit']}")


def corrupt(reference: Path) -> None:
    """Scale one energy_kwh value in the ledger by 1 + 1e-6."""
    with open(reference, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("energy_kwh")
    rows[1][col] = repr(float(rows[1][col]) * (1 + 1e-6))
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            res = result("--workload", name, "--trace", trace)
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                raise AssertionError(f"{name} --trace {trace}: {res}")
            check_metrics(res, spec[key], f"{name} --trace {trace}")
            print(f"{name} --trace {trace}: ok, {res['attempted']} ops")

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_smoke") as tmp:
        copy = Path(tmp) / "corrupted"
        shutil.copytree(HERE, copy / "perfbench", ignore=NO_CACHE)
        shutil.copytree(ROOT / "src", copy / "src", ignore=NO_CACHE)
        corrupt(copy / "perfbench" / "reference" / "retina_gpuswap_h100.csv")
        res = result("--workload", "retina_seed_sweep", "--trace", "0", cwd=copy)
        fail_ratio = res["failed"] / res["attempted"]
        if res["correct"] or not fail_ratio > 0 or res["metrics"]["pass_ratio"]["value"] >= 1:
            raise AssertionError(f"a corrupted reference ledger went unnoticed: {res}")
        print(f"corrupted reference: ok, fail_ratio {fail_ratio}")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=NO_CACHE)
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "retina_seed_sweep", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"without src/ the benchmark exited {proc.returncode}: {proc.stdout!r}")
        print(f"without src/: ok, exit {proc.returncode}")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
