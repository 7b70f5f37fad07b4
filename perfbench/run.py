#!/usr/bin/env python3
"""The greenfl benchmark: run one workload for a fixed time and print metrics.

    python3 perfbench/run.py --workload tier_suite --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; greenfl is imported from its src/. The
workloads are defined in workloads.py and described in README.md. With
`--trace 0` the last stdout line is a JSON object carrying the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of tracing.py.
"""

import os

# Pin BLAS to one thread, below nproc, before greenfl imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import Calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up runs this many times in a run, each in a fresh process; setup_s is
# the median.
SETUP_REPS = 9
SETUP_TIMEOUT_S = 100
# Op i of a run with seed s uses seed s * SEED_STRIDE + i + 1, distinct
# for i < SEED_STRIDE - 1.
SEED_STRIDE = 1_000_000


def import_greenfl():
    """Import greenfl from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import greenfl
    except ImportError as exc:
        raise SystemExit(f"error: cannot import greenfl from {SRC}: {exc}")
    if not Path(greenfl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: greenfl was imported from {greenfl.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup_once(args) -> float:
    """Wall seconds of one set-up in a fresh process, from spawn to exit."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-child"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # a blocking wait times the exit exactly; the watchdog bounds it
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"error: set-up exited {code}")
    return elapsed


class Measurement:
    """Op and set-up times in reference seconds (see calibration.py).

    Each timed call is followed by the calibration loop and scaled by the
    mean of the loop times on either side of it. An op of several greenfl
    commands is scaled command by command.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.ops = {False: [], True: []}  # keyed by traced
        self.setups: list[float] = []
        self.wall_ops: list[float] = []
        self.wall_setups: list[float] = []
        self.loops = [calibration.time()]
        self._wall_s = self._ref_s = 0.0

    def timed(self, fn, *args):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall_s = time.perf_counter() - started
            self.loops.append(self.calibration.time())
            self._wall_s += wall_s
            self._ref_s += self.calibration.scale(wall_s, (self.loops[-2] + self.loops[-1]) / 2)

    def _end(self) -> tuple[float, float]:
        """(wall, reference) seconds of the timed calls since the last _end."""
        span = self._wall_s, self._ref_s
        self._wall_s = self._ref_s = 0.0
        return span

    def op(self, traced: bool) -> None:
        wall_s, ref_s = self._end()
        self.wall_ops.append(wall_s)
        self.ops[traced].append(ref_s)

    def setup(self, args) -> float:
        self.timed(setup_once, args)
        wall_s, ref_s = self._end()
        self.wall_setups.append(wall_s)
        self.setups.append(ref_s)
        return wall_s


def measure(wl, args, tracer) -> tuple[Measurement, int, int]:
    """Run ops until --seconds have passed, not counting set-up repetitions.

    Set-up runs once before the first op and SETUP_REPS - 1 more times
    spread over the run, so that the median samples the whole run.
    Returns (the measurement, attempted, failed).
    """
    from workloads import greenfl_cli

    m = Measurement(Calibration(wl.calibration))
    m.setup(args)
    seeds = set()
    attempted = failed = 0
    started = time.perf_counter()

    def more() -> bool:
        if time.perf_counter() - started < args.seconds:
            return True
        # a traced run needs at least one traced and one untraced op
        return tracer is not None and not (m.ops[False] and m.ops[True])

    while more():
        index = attempted
        seed = args.seed * SEED_STRIDE + index + 1
        if seed in seeds:
            raise RuntimeError(f"op {index} reuses seed {seed}")
        seeds.add(seed)
        traced = tracer is not None and index % 2 == 0
        op = wl.prepare(index, seed)
        attempted += 1
        try:
            with tracer.attach() if traced else contextlib.nullcontext():
                outs = [m.timed(greenfl_cli, argv) for argv in wl.commands(op)]
            wl.check(op, outs)
        except Exception:  # any failure of one op is counted, and the run goes on
            failed += 1
            print(f"op {index} (seed {seed}) failed:", file=sys.stderr)
            traceback.print_exc(limit=3, file=sys.stderr)
        finally:
            wl.cleanup(op)
        m.op(traced)
        while len(m.setups) < SETUP_REPS and time.perf_counter() - started >= args.seconds * len(m.setups) / SETUP_REPS:
            started += m.setup(args)
    while len(m.setups) < SETUP_REPS:
        m.setup(args)
    return m, attempted, failed


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="how long to run ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None and not args.setup_child:
        parser.error("--seconds is required")
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"

    if args.setup_child:
        workload(work).setup()
        return 0

    from tracing import Tracer

    try:
        wl = workload(work)
        tracer = Tracer() if args.trace else None
        if tracer and tracer.missing:
            print(f"note: call sites not found, reported as 0: {', '.join(tracer.missing)}", file=sys.stderr)
        m, attempted, failed = measure(wl, args, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    all_ops = m.ops[False] + m.ops[True]
    if tracer:
        metrics = tracer.metrics(m.ops[False], m.ops[True])
    else:
        metrics = {
            "setup_s": (statistics.median(m.setups), "s"),
            "op_s.p50": (statistics.median(all_ops), "s"),
            "ops_per_s": ((attempted - failed) / sum(all_ops), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    print(f"{args.workload}: {attempted} ops ({failed} failed), op_s.p50 over {len(all_ops)} samples; "
          f"wall seconds: op median {statistics.median(m.wall_ops):.4f}, "
          f"set-up median {statistics.median(m.wall_setups):.4f}, "
          f"calibration loop median {statistics.median(m.loops):.4f}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    import_greenfl()
    sys.exit(main())
