"""Glue between the orchestrator and the reporting layer: run a configured
scenario, flatten the ledger into schema records, and write run artifacts
(rounds.csv, run.json, summary.json) to an output directory.

A run is a learning trajectory plus a ledger.  The trajectory depends only
on the `TrajectorySpec`, so it is trained once and reused in-process by
every run that shares the spec: tier and hardware variants of a scenario
cost only their ledger."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import __version__
from .config import RunConfig, TrajectorySpec, build_dataset, build_shards
from .orchestrator import build_ledger, run_job
from .reporting import RoundRecord, RunReport, summarize_run, write_round_log
from .tracker import ROUND, EmissionsRecord
from .workload import ModelParams, update_payload_bytes


def ledger_to_records(cfg: RunConfig, spans: list[EmissionsRecord], payload_bytes: int) -> list[RoundRecord]:
    """One schema row per span, in time order; every round row carries the
    `payload_bytes` of one client update."""
    sites = {site.site_id: site for site in cfg.plan.sites}
    net_intensity = cfg.plan.comm_model.net_intensity_kwh_per_gb
    records = []
    for span in spans:
        site = sites[span.site_id]
        records.append(
            RoundRecord(
                run_id=cfg.scenario,
                site_id=span.site_id,
                round_index=span.phase.round_index,
                phase=span.phase.kind,
                start_s=span.start.seconds,
                duration_s=span.duration.seconds,
                energy_kwh=span.energy.value,
                co2e_kg=span.co2e.value,
                ci_kg_per_kwh=span.ci.value,
                region_code=site.region.code,
                hardware_name=site.hardware.name,
                tier_label=site.tier.label,
                payload_bytes=payload_bytes if span.phase.kind == ROUND else None,
                net_intensity_kwh_per_gb=net_intensity,
                seed=cfg.seed,
            )
        )
    records.sort(key=lambda r: (r.start_s, r.site_id, r.phase))
    return records


@dataclass(frozen=True)
class Trajectory:
    """What a run takes from training; shared by every run with the same spec."""

    accuracy_by_round: tuple[float, ...]
    final_params: ModelParams  # arrays are read-only
    shard_sizes: tuple[int, ...]


# Small on purpose: an entry holds only the final parameters and per-round
# floats, never the dataset or the shards.
@lru_cache(maxsize=8)
def train_trajectory(spec: TrajectorySpec) -> Trajectory:
    dataset = build_dataset(spec)
    shards = build_shards(spec, dataset)
    accuracy_by_round, params = run_job(spec.num_rounds, spec.train, dataset, shards)
    params.weights.flags.writeable = False
    params.bias.flags.writeable = False
    return Trajectory(tuple(accuracy_by_round), params, tuple(len(s) for s in shards))


def execute_run(cfg: RunConfig) -> tuple[list[RoundRecord], Trajectory]:
    """The run's schema rows and the (possibly shared) trajectory they come from."""
    trajectory = train_trajectory(cfg.trajectory_spec())
    spans = build_ledger(cfg.plan, trajectory.shard_sizes)
    records = ledger_to_records(cfg, spans, update_payload_bytes(trajectory.final_params))
    return records, trajectory


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


def write_artifacts(out_dir, cfg: RunConfig, records, trajectory: Trajectory) -> RunReport:
    # summarize first: a total that overflows fails the run before any file is written
    report = summarize_run(records, accuracy_by_round=list(trajectory.accuracy_by_round))
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
