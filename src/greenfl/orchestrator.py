"""Synchronous FedAvg: the learning trajectory and its sim-clock ledger.

Every site participates every round.  Within a round the sim clock runs:
all sites start training at the round barrier, each finishes after its
tier-stretched duration, non-slowest sites idle until the slowest one
finishes, everyone then evaluates, and the next barrier is the end of the
slowest evaluation.  Timing never feeds back into learning: efficiency
tiers and hardware profiles change the ledger, never the model.  So the
two are separate functions: `run_job` trains, and `build_ledger` derives
every span in closed form from the plan and the client shard sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .comm import CommEnergyModel
from .errors import EmptyUpdateSet, ShapeMismatch
from .sites import SiteConfig, effective_power, effective_train_duration
from .tracker import Phase, SamplingPolicy, TaskTracker
from .units import JOULES_PER_KWH, CarbonIntensity
from .workload import (
    ModelParams,
    SyntheticDataset,
    TrainConfig,
    evaluate,
    local_train,
    steps_per_round,
)


@dataclass(frozen=True)
class RunPlan:
    num_rounds: int
    sites: list[SiteConfig]
    train_cfg: TrainConfig
    comm_model: CommEnergyModel
    evaluate_each_round: bool = True
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy)

    def __post_init__(self):
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if not self.sites:
            raise ValueError("at least one site is required")
        ids = [s.site_id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise ValueError("site_id values must be unique")


@dataclass
class RoundOutcome:
    round_index: int
    train_duration_s: dict[str, float]
    idle_duration_s: dict[str, float]
    payload_bytes: dict[str, int]


@dataclass
class RunResult:
    tracker: TaskTracker
    outcomes: list[RoundOutcome]
    final_params: ModelParams
    accuracy_by_round: list[float]


def fedavg_aggregate(updates: list[tuple[ModelParams, int]]) -> ModelParams:
    """Sample-count-weighted mean of client updates, accumulated left to right."""
    if not updates:
        raise EmptyUpdateSet("no updates to aggregate")
    shape = (updates[0][0].weights.shape, updates[0][0].bias.shape)
    total_n = 0
    for params, n in updates:
        if (params.weights.shape, params.bias.shape) != shape:
            raise ShapeMismatch(f"update shape {params.weights.shape} != {shape[0]}")
        total_n += n
    if total_n <= 0:
        raise EmptyUpdateSet("total sample count must be > 0")
    weights = np.zeros_like(updates[0][0].weights)
    bias = np.zeros_like(updates[0][0].bias)
    for params, n in updates:
        w = n / total_n
        weights += w * params.weights
        bias += w * params.bias
    return ModelParams(weights, bias)


def _client_seed(base_seed: int, site_index: int, round_index: int) -> int:
    # stable per-(site, round) stream, independent of tier/hardware
    return int(np.random.SeedSequence([base_seed, site_index, round_index]).generate_state(1)[0])


def _ci(site: SiteConfig) -> CarbonIntensity:
    return CarbonIntensity(site.region.ci_kg_per_kwh)


def run_job(
    num_rounds: int,
    train_cfg: TrainConfig,
    dataset: SyntheticDataset,
    shards: list[SyntheticDataset],
) -> tuple[list[float], ModelParams]:
    """Train FedAvg for `num_rounds`; return the global accuracy after each
    round and the final global parameters.

    Client i trains on `shards[i]` with its own (seed, i, round) shuffle
    stream; the aggregate is evaluated on the full `dataset`.
    """
    params = ModelParams.zeros(dataset.num_classes, dataset.num_features)
    accuracy_by_round = []
    for round_index in range(1, num_rounds + 1):
        updates = []
        for site_index, shard in enumerate(shards):
            cfg = TrainConfig(
                local_epochs=train_cfg.local_epochs,
                batch_size=train_cfg.batch_size,
                learning_rate=train_cfg.learning_rate,
                seed=_client_seed(train_cfg.seed, site_index, round_index),
            )
            trained, _ = local_train(params, shard, cfg)
            updates.append((trained, shard.num_samples))
        params = fedavg_aggregate(updates)
        accuracy_by_round.append(evaluate(params, dataset))
    return accuracy_by_round, params


def build_ledger(
    plan: RunPlan, shard_sizes: list[int], payload_bytes: int
) -> tuple[TaskTracker, list[RoundOutcome]]:
    """Every span of the run, from the plan and the client shard sizes.

    Site i holds `shard_sizes[i]` samples and sends `payload_bytes` per
    round; its step counts follow from `steps_per_round`.
    """
    tracker = TaskTracker(plan.sampling)

    # one-time init: duration chosen so integrating training power over the
    # span reproduces the startup spike energy
    init_end = 0.0
    for site in plan.sites:
        power = effective_power(site.hardware, site.tier, Phase.init())
        duration = (
            site.hardware.init_spike_energy.value * JOULES_PER_KWH / power.total if power.total > 0 else 0.0
        )
        span = tracker.start_task(site.site_id, Phase.init(), 0.0)
        tracker.stop_task(span, duration, power, _ci(site))
        init_end = max(init_end, duration)

    barrier = init_end
    outcomes = []
    for round_index in range(1, plan.num_rounds + 1):
        train_durations: dict[str, float] = {}
        for site, n in zip(plan.sites, shard_sizes, strict=True):
            steps = steps_per_round(n, plan.train_cfg)
            duration = effective_train_duration(site.hardware, site.tier, steps).seconds
            span = tracker.start_task(site.site_id, Phase.round(round_index), barrier)
            tracker.stop_task(
                span,
                barrier + duration,
                effective_power(site.hardware, site.tier, Phase.round(round_index)),
                _ci(site),
            )
            train_durations[site.site_id] = duration

        train_end = barrier + max(train_durations.values())

        # stragglers' peers idle until the round barrier; the slowest site gets
        # a zero-length idle span so every site has one per round
        idle_durations: dict[str, float] = {}
        for site in plan.sites:
            start = barrier + train_durations[site.site_id]
            span = tracker.start_task(site.site_id, Phase.idle(round_index), start)
            tracker.stop_task(
                span,
                train_end,
                effective_power(site.hardware, site.tier, Phase.idle(round_index)),
                _ci(site),
            )
            idle_durations[site.site_id] = train_end - start

        eval_end = train_end
        if plan.evaluate_each_round:
            for site, n in zip(plan.sites, shard_sizes, strict=True):
                eval_steps = -(-n // plan.train_cfg.batch_size)  # one forward pass
                duration = effective_train_duration(site.hardware, site.tier, eval_steps).seconds
                span = tracker.start_task(site.site_id, Phase.evaluate(round_index), train_end)
                tracker.stop_task(
                    span,
                    train_end + duration,
                    effective_power(site.hardware, site.tier, Phase.evaluate(round_index)),
                    _ci(site),
                )
                eval_end = max(eval_end, train_end + duration)

        barrier = eval_end
        outcomes.append(
            RoundOutcome(
                round_index=round_index,
                train_duration_s=train_durations,
                idle_duration_s=idle_durations,
                payload_bytes={site.site_id: payload_bytes for site in plan.sites},
            )
        )
    return tracker, outcomes
