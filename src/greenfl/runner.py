"""Glue between the orchestrator and the reporting layer: plan a configured
scenario, train it, and write run artifacts (rounds.csv, run.json,
summary.json) to an output directory.

A run is a ledger plus a learning trajectory.  The ledger depends only on
the parsed `RunConfig` and the client shard sizes, which follow from the
config too, so `plan_run` builds it and its one checked report with no
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
from .config import MAX_DATASET_VALUES, RunConfig, TrajectorySpec, build_dataset, build_shards
from .errors import ConfigError, NonFiniteTotal, SchemaViolation
from .orchestrator import build_ledger, run_job
from .reporting import RoundRecord, RunReport, summarize_run, write_round_log
from .workload import ModelParams, lockstep_values


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
    that overflows is one at `sites`.  An empty Dirichlet shard is a
    ConfigError at `partition.alpha`, naming the first site that would get it.
    The one lockstep rule follows: all that one `train_clients` call holds,
    `workload.lockstep_values`, must fit `MAX_DATASET_VALUES` 4-byte values,
    or it is a ConfigError at `partition.num_clients`."""
    sizes = [len(shard) for shard in build_shards(cfg.spec)]
    if 0 in sizes:
        i = sizes.index(0)
        raise ConfigError("partition.alpha", f"sites[{i}] ({cfg.sites[i].site_id}) gets an empty shard")
    wl = cfg.spec.workload
    if lockstep_values(sizes, cfg.spec.train.batch_size, wl.num_classes, wl.num_features) > MAX_DATASET_VALUES:
        raise ConfigError(
            "partition.num_clients",
            "num_clients x (num_classes x (3 x (num_features + 1) + lane) + lane x (7 x batches(largest shard, lane)"
            f" + num_features + 1)), lane = min(batch_size, largest shard), must be <= {MAX_DATASET_VALUES};"
            f" the largest shard holds {max(sizes)} samples",
        )
    try:
        records = build_ledger(cfg, sizes)
    except SchemaViolation as exc:
        row = exc.record
        i = [site.site_id for site in cfg.sites].index(row.site_id)
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
        "seed": cfg.spec.train.seed,
        "config_sha256": cfg.config_hash(),
        "comm_attribution": "client",  # the one attribution `parse_config` accepts
        "tiers": {
            s.site_id: {
                "label": s.tier.label,
                "slowdown_factor": s.tier.slowdown_factor,
                "power_scale": s.tier.power_scale,
            }
            for s in cfg.sites
        },
        "hardware": {s.site_id: s.hardware.name for s in cfg.sites},
        "regions": {s.site_id: s.region.code for s in cfg.sites},
        "config": cfg.raw,
    }


def write_json(path, doc) -> None:
    """Write `doc` as every JSON artifact is written: indented, keys sorted,
    no NaN or inf, and one final newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_artifacts(out_dir, cfg: RunConfig, records, report: RunReport) -> RunReport:
    """Write the run's three artifacts; returns `report`, the summary
    written, which perfbench's tracer reads for the accuracies that reach
    summary.json (`workload.evaluate.useful_ratio`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rounds.csv").write_text(write_round_log(records), encoding="utf-8", newline="")
    write_json(out / "run.json", run_metadata(cfg))
    write_json(out / "summary.json", report.to_dict())
    return report
