"""Glue between the orchestrator and the reporting layer: plan a configured
scenario, train it, and write run artifacts (rounds.csv, run.json,
summary.json) to an output directory.

A run is a ledger plus a learning trajectory.  The ledger depends only on
the plan, the client shard sizes and the update's shape, which all follow
from the config, so `plan_run` builds it and its one checked report with no
training: a span or total that overflows fails at the config path of its
site.  The trajectory depends only on the `TrajectorySpec`, so it is trained
once and reused in-process by every run that shares the spec, and a run
attaches its accuracies to the report of `plan_run`."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import __version__
from .config import RunConfig, TrajectorySpec, build_dataset, build_shards
from .errors import ConfigError, NonFiniteTotal, SchemaViolation
from .orchestrator import build_ledger, run_job
from .reporting import RoundRecord, RunReport, summarize_run, write_round_log
from .workload import ModelParams, update_payload_bytes


@dataclass(frozen=True)
class Trajectory:
    """What a run takes from training; shared by every run with the same spec."""

    accuracy_by_round: tuple[float, ...]
    final_params: ModelParams  # arrays are read-only


# Small on purpose: an entry holds only the final parameters and per-round
# floats, never the dataset or the shards.
@lru_cache(maxsize=8)
def train_trajectory(spec: TrajectorySpec) -> Trajectory:
    accuracy_by_round, params = run_job(spec.num_rounds, spec.train, build_dataset(spec), build_shards(spec))
    params.weights.flags.writeable = False
    params.bias.flags.writeable = False
    return Trajectory(tuple(accuracy_by_round), params)


def plan_run(cfg: RunConfig) -> tuple[list[RoundRecord], RunReport]:
    """The run's schema rows and their checked report, from the config alone,
    with no training.  A row that its type rejects is a ConfigError at
    `sites[<i>]`, where i is its site's index in the config, and a run total
    that overflows is one at `sites`."""
    workload = cfg.spec.workload
    try:
        records = build_ledger(
            cfg.plan,
            [len(shard) for shard in build_shards(cfg.spec)],
            cfg.scenario,
            cfg.seed,
            update_payload_bytes(workload.num_classes, workload.num_features),
        )
    except SchemaViolation as exc:
        row = exc.record
        i = [site.site_id for site in cfg.plan.sites].index(row.site_id)
        raise ConfigError(f"sites[{i}]", f"{row.phase} span of round {row.round_index}: {exc}") from None
    try:
        return records, summarize_run(records)
    except NonFiniteTotal as exc:
        raise ConfigError("sites", str(exc)) from None


def execute_run(cfg: RunConfig) -> tuple[list[RoundRecord], Trajectory]:
    return plan_run(cfg)[0], train_trajectory(cfg.spec)


def run_metadata(cfg: RunConfig) -> dict:
    return {
        "tool": "greenfl",
        "version": __version__,
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config_sha256": cfg.config_hash(),
        "comm_attribution": cfg.comm_attribution,
        "tiers": {
            s.site_id: {
                "label": s.tier.label,
                "slowdown_factor": s.tier.slowdown_factor,
                "power_scale": s.tier.power_scale,
            }
            for s in cfg.plan.sites
        },
        "hardware": {
            s.site_id: s.hardware.name for s in cfg.plan.sites
        },
        "regions": {s.site_id: s.region.code for s in cfg.plan.sites},
        "config": cfg.raw,
    }


def write_artifacts(out_dir, cfg: RunConfig, records, report: RunReport) -> RunReport:
    """Write the run's three artifacts; returns `report`, the summary
    written, which perfbench's tracer reads for the accuracies that reach
    summary.json (`workload.evaluate.useful_ratio`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rounds.csv").write_text(write_round_log(records), encoding="utf-8", newline="")
    with open(out / "run.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(run_metadata(cfg), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(out / "summary.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return report
