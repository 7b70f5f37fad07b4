"""Per-layer tracing from outside the program.

While a traced op runs, `Tracer.attach()` replaces greenfl's functions at
their call sites (the module attribute the caller looks up) with wrappers
that record a span per call: calls, busy time, and self time (busy time
minus the time of wrapped child spans). A few wrappers also count work:
SGD steps, distinct `local_train` inputs, `evaluate` results that reach
summary.json, and ledger records. Nothing under src/ is changed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import statistics
import sys
import weakref
from collections import Counter
from time import perf_counter

import numpy as np

# layer name -> call sites "module:attribute" that resolve to it
CALL_SITES = {
    "cli.main": ["greenfl.cli:main"],
    "runner.execute_run": ["greenfl.cli:execute_run"],
    "runner.write_artifacts": ["greenfl.cli:write_artifacts"],
    "runner.ledger_to_records": ["greenfl.runner:ledger_to_records"],
    "orchestrator.run_job": ["greenfl.runner:run_job"],
    "orchestrator.fedavg_aggregate": ["greenfl.orchestrator:fedavg_aggregate"],
    "comm.round_comm_total": ["greenfl.orchestrator:round_comm_total"],
    "workload.local_train": ["greenfl.orchestrator:local_train"],
    "workload.evaluate": ["greenfl.orchestrator:evaluate"],
    "workload.make_blobs": ["greenfl.config:make_blobs"],
    "partition.dirichlet_partition": ["greenfl.config:dirichlet_partition"],
    "reporting.write_round_log": ["greenfl.runner:write_round_log"],
    "reporting.summarize_run": ["greenfl.runner:summarize_run", "greenfl.cli:summarize_run"],
    "reporting.parse_round_log": ["greenfl.cli:parse_round_log"],
    "reporting.remap_grid_intensity": ["greenfl.cli:remap_grid_intensity"],
    "reporting.calibrate_tiers": ["greenfl.cli:calibrate_tiers"],
}


# The per-layer metrics reported, in BENCHMARK.json order.
PER_LAYER = (
    "workload.local_train.calls",
    "workload.local_train.busy_s",
    "workload.sgd_steps",
    "workload.sgd_step_us",
    "workload.local_train.useful_ratio",
    "workload.evaluate.calls",
    "workload.evaluate.busy_s",
    "workload.evaluate.useful_ratio",
    "workload.make_blobs.calls",
    "workload.make_blobs.busy_s",
    "partition.dirichlet_partition.calls",
    "partition.dirichlet_partition.busy_s",
    "orchestrator.run_job.busy_s",
    "orchestrator.run_job.self_s",
    "orchestrator.fedavg_aggregate.calls",
    "orchestrator.fedavg_aggregate.busy_s",
    "comm.round_comm_total.calls",
    "tracker.records",
    "runner.execute_run.busy_s",
    "runner.ledger_to_records.busy_s",
    "runner.write_artifacts.busy_s",
    "reporting.write_round_log.busy_s",
    "reporting.calibrate_tiers.busy_s",
    "reporting.parse_round_log.calls",
    "reporting.parse_round_log.busy_s",
    "reporting.summarize_run.calls",
    "reporting.summarize_run.busy_s",
    "reporting.remap_grid_intensity.calls",
    "reporting.remap_grid_intensity.busy_s",
    "cli.main.calls",
    "cli.main.self_s",
    "trace.overhead_s",
)


class _Tracked(float):
    """An `evaluate` result, marked so the benchmark can see where it ends up."""

    __slots__ = ()


@dataclasses.dataclass
class OpStats:
    calls: Counter = dataclasses.field(default_factory=Counter)
    busy_s: Counter = dataclasses.field(default_factory=Counter)
    self_s: Counter = dataclasses.field(default_factory=Counter)
    sgd_steps: int = 0
    train_inputs: set = dataclasses.field(default_factory=set)
    useful_evals: dict = dataclasses.field(default_factory=dict)  # id -> result
    records: int = 0
    ledgers: int = 0


class _Digests:
    """Content digests of arrays, memoised per live array object."""

    def __init__(self):
        self._memo: dict[int, tuple[weakref.ref, bytes]] = {}

    def of(self, obj):
        if isinstance(obj, np.ndarray):
            hit = self._memo.get(id(obj))
            if hit is not None and hit[0]() is obj:
                return hit[1]
            h = hashlib.blake2b(np.ascontiguousarray(obj).data, digest_size=16)
            h.update(f"{obj.dtype}{obj.shape}".encode())
            self._memo[id(obj)] = (weakref.ref(obj), h.digest())
            return h.digest()
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return tuple(self.of(getattr(obj, f.name)) for f in dataclasses.fields(obj))
        if isinstance(obj, (list, tuple)):
            return tuple(self.of(x) for x in obj)
        if isinstance(obj, dict):
            return tuple((k, self.of(v)) for k, v in obj.items())
        return repr(obj)


class Tracer:
    def __init__(self):
        self.ops: list[OpStats] = []
        self.missing = [site for sites in CALL_SITES.values() for site in sites if _resolve(site) is None]
        self._stack: list[list[float]] = []
        self._digests = _Digests()

    @contextlib.contextmanager
    def attach(self):
        """Wrap every call site for the duration of one op."""
        stats = OpStats()
        self.ops.append(stats)
        saved = []
        try:
            for name, sites in CALL_SITES.items():
                for site in sites:
                    found = _resolve(site)
                    if found is not None:
                        module, attr = found
                        original = getattr(module, attr)
                        saved.append((module, attr, original))
                        setattr(module, attr, self._wrap(name, original, stats))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn, stats: OpStats):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            hook_s = 0.0
            if before:
                h0 = perf_counter()
                before(self, stats, args, kwargs)
                hook_s = perf_counter() - h0
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - t0
                self._stack.pop()
                stats.calls[name] += 1
                stats.busy_s[name] += busy
                stats.self_s[name] += busy - frame[0]
                if self._stack:
                    self._stack[-1][0] += busy + hook_s
            if after:
                h0 = perf_counter()
                out = after(self, stats, out)
                if self._stack:
                    # the caller's self time excludes this span and its hooks
                    self._stack[-1][0] += perf_counter() - h0
            return out

        return span

    def metrics(self, untraced_op_s: list[float], traced_op_s: list[float]) -> dict:
        """Per-layer metrics: medians over traced ops of per-op values."""

        def per_op(value) -> float:
            return statistics.median(value(s) for s in self.ops)

        def total(value) -> float:
            return sum(value(s) for s in self.ops)

        out = {}
        for name in CALL_SITES:
            out[f"{name}.calls"] = (per_op(lambda s: s.calls[name]), "count/op")
            out[f"{name}.busy_s"] = (per_op(lambda s: s.busy_s[name]), "s/op")
            out[f"{name}.self_s"] = (per_op(lambda s: s.self_s[name]), "s/op")
        train_calls = total(lambda s: s.calls["workload.local_train"])
        eval_calls = total(lambda s: s.calls["workload.evaluate"])
        steps = total(lambda s: s.sgd_steps)
        out["workload.sgd_steps"] = (per_op(lambda s: s.sgd_steps), "count/op")
        out["workload.sgd_step_us"] = (
            total(lambda s: s.busy_s["workload.local_train"]) / steps * 1e6 if steps else 0.0, "us",
        )
        out["workload.local_train.useful_ratio"] = (
            total(lambda s: len(s.train_inputs)) / train_calls if train_calls else 0.0, "ratio",
        )
        out["workload.evaluate.useful_ratio"] = (
            total(lambda s: len(s.useful_evals)) / eval_calls if eval_calls else 0.0, "ratio",
        )
        ledgers = total(lambda s: s.ledgers)
        out["tracker.records"] = (total(lambda s: s.records) / ledgers if ledgers else 0.0, "count")
        out["trace.overhead_s"] = (statistics.median(traced_op_s) - statistics.median(untraced_op_s), "s")
        return {name: out[name] for name in PER_LAYER}


def _resolve(site: str):
    module_name, attr = site.split(":")
    module = sys.modules.get(module_name) or importlib.import_module(module_name)
    return (module, attr) if callable(getattr(module, attr, None)) else None


def _train_input(tracer: Tracer, stats: OpStats, args, kwargs) -> None:
    stats.train_inputs.add(tracer._digests.of((args, kwargs)))


def _train_steps(tracer: Tracer, stats: OpStats, out):
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], int):
        stats.sgd_steps += out[1]
    return out


def _mark_eval(tracer: Tracer, stats: OpStats, out):
    return _Tracked(out) if isinstance(out, float) else out


def _useful_evals(tracer: Tracer, stats: OpStats, report):
    # report.accuracy_by_round is the list written to summary.json
    for value in getattr(report, "accuracy_by_round", None) or ():
        if isinstance(value, _Tracked):
            stats.useful_evals[id(value)] = value
    return report


def _count_records(tracer: Tracer, stats: OpStats, records):
    stats.records += len(records)
    stats.ledgers += 1
    return records


_HOOKS = {
    "workload.local_train": (_train_input, _train_steps),
    "workload.evaluate": (None, _mark_eval),
    "runner.write_artifacts": (None, _useful_evals),
    "runner.ledger_to_records": (None, _count_records),
    "reporting.parse_round_log": (None, _count_records),
}
