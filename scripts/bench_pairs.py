#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --workload retina_seed_sweep \\
        --workload tier_suite --pairs 10 --seconds 50 --seed 1001 --out BENCH_<n>.json

REV's files are extracted with `git archive` into a temporary directory, which
is removed again on every exit, failures and interrupts included; the
repository's own state is never touched. Pair i runs
`perfbench/run.py --seed <seed + i>` once in that checkout and once in the
working tree, the parent first on even pairs and the working tree first on
odd ones; several workloads are interleaved pair by pair. The JSON file
written holds each run's result line, `env` line and wall-seconds line and,
per workload and metric, each side's median and quartiles, the pairs the
change won (by the `better` direction of BENCHMARK.json) and the raw wall
medians beside the reference seconds. It is rewritten after every pair.
Each run has its own session; one that leaves a process running after it
exits is an error, and that process is killed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL = re.compile(
    r"wall seconds: op median (?P<op_s>[0-9.]+), set-up median (?P<setup_s>[0-9.]+), "
    r"calibration loop median (?P<calibration_loop_s>[0-9.]+)"
)


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: its result, env and wall lines.

    The run gets its own session, so its process group holds it and every
    process it starts, and its output goes to files, so a process that
    outlives it cannot hold a pipe open. A group still alive once the run
    has exited is killed, and is an error that names the run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = f"{' '.join(cmd)} in {tree}"
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(cmd, cwd=tree, stdout=out, stderr=err, text=True, start_new_session=True)
        try:
            code = proc.wait()
        finally:
            # on an interrupt too: the run's session does not get the terminal's signals
            leaked = group_alive(proc.pid)
            if leaked:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if leaked:
            raise SystemExit(f"error: {run} left processes running in its process group; they were killed")
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if code != 0:
        raise SystemExit(f"error: {run} exited {code}:\n{stderr[-2000:]}")
    lines = stdout.splitlines()
    wall = next(line for line in lines if WALL.search(line))
    env = next(line for line in lines if line.startswith("env "))
    return {"result": json.loads(lines[-1]), "wall": wall, "env": json.loads(env[len("env "):])}


def group_alive(pgid: int) -> bool:
    """Whether any process is left in the process group `pgid`."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str | None) -> dict:
    """Each side's spread, the pairs the change won, and whether the
    medians differ by more than the parent's quartile spread."""
    out = {"parent": spread(parent), "change": spread(change), "pairs": len(parent)}
    p, c = out["parent"], out["change"]
    out["change_vs_parent"] = (c["median"] - p["median"]) / p["median"] if p["median"] else None
    out["beyond_parent_spread"] = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    if better is not None:
        sign = 1 if better == "higher" else -1
        out["change_better_pairs"] = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        out["tied_pairs"] = sum(a == b for a, b in zip(parent, change))
    return out


def summarize(runs: list[dict], directions: dict) -> tuple[dict, dict]:
    """Per-metric comparisons of the results, in reference seconds, and of
    the raw wall medians."""
    def sides(read):
        return [read(run["parent"]) for run in runs], [read(run["change"]) for run in runs]

    summary = {}
    for name, metric in runs[0]["parent"]["result"]["metrics"].items():
        parent, change = sides(lambda side: side["result"]["metrics"][name]["value"])
        summary[name] = {"unit": metric["unit"], **compare(parent, change, directions.get(name))}
    raw = {}
    for name in WALL.groupindex:
        parent, change = sides(lambda side: float(WALL.search(side["wall"])[name]))
        raw[name] = {"unit": "s", **compare(parent, change, "lower")}
    return summary, raw


def write(path: Path, doc: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV", help="the revision to compare against")
    parser.add_argument("--workload", required=True, action="append", help="a perfbench workload; repeatable")
    parser.add_argument("--pairs", required=True, type=int, help="parent/working-tree pairs per workload")
    parser.add_argument("--seconds", type=float, default=50.0, help="perfbench/run.py --seconds (default 50)")
    parser.add_argument("--seed", type=int, default=1, help="pair i runs at seed SEED + i (default 1)")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    directions = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    doc = {
        "about": "scripts/bench_pairs.py: perfbench/run.py --workload W --seed S --seconds T --trace 0, run in a "
                 "`git archive` of the parent and in the working tree, alternating which runs first; times in "
                 "reference seconds, raw_wall from each run's wall-seconds line; quartiles by "
                 "statistics.quantiles(method='inclusive')",
        "command": ["scripts/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "parent": parent,
        "change": f"working tree at {git('rev-parse', 'HEAD')}" + (" with uncommitted changes" if dirty else ""),
        "end_to_end": {},
    }

    # SIGTERM unwinds like Ctrl-C, so the parent's copy is removed either way
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    tree = scratch / "parent"
    try:
        archive = scratch / "parent.tar"
        git("archive", "--output", str(archive), parent)
        tree.mkdir()
        untar = subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], capture_output=True, text=True)
        if untar.returncode != 0:
            raise SystemExit(f"error: tar -xf {archive}: {untar.stderr.strip()}")
        sides = {"parent": tree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in args.workload:
                entry = doc["end_to_end"].setdefault(workload, {"seeds": [], "summary": {}, "raw_wall": {}, "runs": []})
                run = {"seed": seed, "first": first}
                for side in (first, second):
                    print(f"pair {i + 1}/{args.pairs} {workload} seed {seed}: {side}", file=sys.stderr)
                    run[side] = run_side(sides[side], workload, seed, args.seconds)
                entry["seeds"].append(seed)
                entry["runs"].append(run)
                entry["summary"], entry["raw_wall"] = summarize(entry["runs"], directions)
                write(args.out, doc)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
