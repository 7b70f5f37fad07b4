"""The experiment scripts end to end, each in its own process as a user runs
it: run a on every usable core and run b pinned to one must write the same
bytes, and the calibrated tier runs must be the bundled scenarios."""

import contextlib
import csv
import importlib.util
import io
import os
import textwrap
import time
from pathlib import Path

import pytest

from greenfl.cli import main

from conftest import ROOT, run_python

SCRIPTS = ROOT / "scripts"


def tree(root):
    """Every file under `root`, by its path relative to `root`, with its bytes."""
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def greenfl(*argv) -> str:
    """What `greenfl *argv` prints, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(arg) for arg in argv]) == 0, argv
    return out.getvalue()


@pytest.fixture(scope="session")
def experiment_runs(tmp_path_factory):
    """Runs a and b of both experiment scripts and of the reports of the tier
    runs: the CSV and JSON reports, `grid_whatif.py`'s CSV of the high run
    and `whatif --region FRA`.  What each prints is saved in the run's
    root, with that root replaced by `OUT`.  Each script runs in its own
    process, and run b's are pinned to one core, so they train every client
    in one group in the calling process, while run a trains a second group
    of the cifar clients in a worker process where it has two cores."""
    base = tmp_path_factory.mktemp("experiments")
    one_core = {min(os.sched_getaffinity(0))}
    for name, pin in (("a", None), ("b", lambda: os.sched_setaffinity(0, one_core))):
        root = base / name
        root.mkdir()

        def script(file, *args):
            done = run_python(SCRIPTS / file, *args, preexec_fn=pin)
            assert done.returncode == 0, (name, file, done.stderr)
            return done.stdout

        tiers = [root / "tiers" / tier for tier in ("high", "medium", "low")]
        outputs = {
            "run_tier_experiments.out": script("run_tier_experiments.py", "--out", root / "tiers"),
            "run_gpuswap.out": script("run_gpuswap.py", "--out", root / "gpuswap"),
            "report.csv": greenfl("report", "--format", "csv", "--in", *tiers),
            "report.json": greenfl("report", "--format", "json", "--in", *tiers),
            "whatif.csv": script("grid_whatif.py", tiers[0]),
            "whatif_fra.json": greenfl("whatif", "--in", tiers[0], "--region", "FRA"),
        }
        for file, text in outputs.items():
            (root / file).write_text(text.replace(str(root), "OUT"))
    return base


def test_one_core_and_every_core_write_the_same_bytes(experiment_runs):
    a, b = tree(experiment_runs / "a"), tree(experiment_runs / "b")
    assert {"tiers/low/rounds.csv", "gpuswap/v100/run.json", "whatif_fra.json"} <= set(a)
    assert sorted(a) == sorted(b)
    for path in a:
        assert a[path] == b[path], path


def test_gpu_swap_report_ends_each_run_with_its_own_ratio(experiment_runs):
    runs = experiment_runs / "a" / "gpuswap"
    lines = greenfl("report", "--in", runs / "h100", runs / "v100").splitlines()
    assert sum(" | high/high=" in line for line in lines) == 2
    assert lines[-1].endswith("high/high=1.51"), lines[-1]


def test_calibrated_tiers_are_the_bundled_scenarios(experiment_runs, tmp_path):
    # `calibrate` re-derives the builtin medium and low tiers bit for bit
    for tier in ("medium", "low"):
        greenfl("run", "--config", f"cifar_tiers_{tier}", "--out", tmp_path / tier)
        assert tree(tmp_path / tier) == tree(experiment_runs / "a" / "tiers" / tier), tier


def test_csv_report_is_a_row_per_site_of_each_tier_run(experiment_runs):
    with open(experiment_runs / "a" / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # a header and 3 runs x 6 sites
    assert len(rows) == 19 and all(len(row) == 5 for row in rows), rows


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a stand-in for perfbench/run.py: the three lines bench_pairs reads, after
# starting a child that sleeps on, its pid written to `child.pid`
FAKE_RUN = """
    import json, subprocess, sys
    if {leak}:
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        open("child.pid", "w").write(str(child.pid))
    print("wall seconds: op median 1.5, set-up median 0.5, calibration loop median 0.1")
    print("env " + json.dumps({{"nproc": 2}}))
    print(json.dumps({{"correct": True, "metrics": {{}}}}))
"""


@pytest.mark.parametrize("leak", [False, True])
def test_bench_pairs_names_a_run_that_leaves_a_process_running(tmp_path, leak):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(textwrap.dedent(FAKE_RUN.format(leak=leak)))
    bench_pairs = load_bench_pairs()
    if not leak:
        side = bench_pairs.run_side(tmp_path, "tier_suite", 7, 1.0)
        assert side["env"] == {"nproc": 2} and side["result"]["correct"]
        return
    with pytest.raises(SystemExit, match=r"^error: .*perfbench/run.py --workload tier_suite --seed 7 .* left processes"):
        bench_pairs.run_side(tmp_path, "tier_suite", 7, 1.0)
    # SIGKILL lands soon after it is sent; then the child is gone (X), or a
    # zombie (Z) until its new parent reaps it
    pid = (tmp_path / "child.pid").read_text()
    deadline = time.monotonic() + 10
    while (state := process_state(pid)) not in "ZX":
        assert time.monotonic() < deadline, state
        time.sleep(0.01)


def process_state(pid: str) -> str:
    """The state letter of process `pid` from /proc, X once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return "X"
