"""Synchronous FedAvg: the learning trajectory and its sim-clock ledger.

Every site participates every round.  Within a round the sim clock runs:
all sites start training at the round barrier, each finishes after its
tier-stretched duration, non-slowest sites idle until the slowest one
finishes, everyone then evaluates, and the next barrier is the end of the
slowest evaluation.  Timing never feeds back into learning: efficiency
tiers and hardware profiles change the ledger, never the model.  So the
two are separate functions: `run_job` trains, and `build_ledger` derives
the run's ledger in closed form from the parsed run and its shard sizes:
one `RoundRecord` row per span of one site in one phase, each drawing its
phase's constant power for its duration.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import Diverged, EmptyUpdateSet, ShapeMismatch
from .reporting import RoundRecord
from .sites import EVALUATE, IDLE, INIT, ROUND, SiteConfig, effective_power, effective_train_duration
from .units import JOULES_PER_KWH, emissions_of, energy_of
from .workload import (
    ClientGroups,
    ModelParams,
    SyntheticDataset,
    TrainConfig,
    batches,
    steps_per_round,
    update_payload_bytes,
)


def fedavg_aggregate(updates: list[tuple[ModelParams, int]]) -> ModelParams:
    """Sample-count-weighted mean of client updates, accumulated left to right
    in the updates' dtype: each weight is a Python float, so NEP 50 keeps
    float32 params float32."""
    if not updates:
        raise EmptyUpdateSet("no updates to aggregate")
    shape = (updates[0][0].weights.shape, updates[0][0].bias.shape)
    total_n = 0
    for params, n in updates:
        if (params.weights.shape, params.bias.shape) != shape:
            raise ShapeMismatch(
                f"update shapes (weights {params.weights.shape}, bias {params.bias.shape}) "
                f"!= (weights {shape[0]}, bias {shape[1]})"
            )
        total_n += n
    if total_n <= 0:
        raise EmptyUpdateSet("total sample count must be > 0")
    weights = np.zeros_like(updates[0][0].weights)
    bias = np.zeros_like(updates[0][0].bias)
    for params, n in updates:
        w = float(n / total_n)
        weights += w * params.weights
        bias += w * params.bias
    return ModelParams(weights, bias)


def _client_seed(base_seed: int, site_index: int, round_index: int) -> int:
    # stable per-(site, round) stream, independent of tier/hardware
    return int(np.random.SeedSequence([base_seed, site_index, round_index]).generate_state(1)[0])


def run_job(
    num_rounds: int,
    train_cfg: TrainConfig,
    dataset: SyntheticDataset,
    shards: list[np.ndarray],
) -> tuple[list[float], ModelParams]:
    """Train FedAvg for `num_rounds`; return the global accuracy after each
    round and the final global parameters.

    Client i trains on the rows `shards[i]` of `dataset` with its own
    (seed, i, round) shuffle stream; one `ClientGroups`, whose workers live
    for the whole run, steps all clients of each round in lockstep.  The
    parameters are in the dataset's dtype.  Each round's aggregate is
    evaluated on the full `dataset`; with k groups, the aggregates of k
    rounds are kept and evaluated together, one in each process, so a run
    holds at most k of them.  Non-finite parameters raise `Diverged` naming
    the round.
    """
    params = ModelParams.zeros(dataset.num_classes, dataset.num_features, dataset.design.dtype)
    sizes = [len(shard) for shard in shards]
    accuracy_by_round, aggregates = [], []
    with ClientGroups(dataset, shards, train_cfg) as groups:
        for round_index in range(1, num_rounds + 1):
            seeds = [_client_seed(train_cfg.seed, i, round_index) for i in range(len(shards))]
            try:
                trained = groups.train(params, seeds)
                params = fedavg_aggregate(list(zip(trained, sizes)))
            except Diverged:
                raise Diverged(round_index) from None
            aggregates.append(params)
            if len(aggregates) == len(groups.groups) or round_index == num_rounds:
                accuracy_by_round += groups.evaluate(aggregates)
                aggregates = []
    return accuracy_by_round, params


def build_ledger(cfg: RunConfig, shard_sizes: list[int]) -> list[RoundRecord]:
    """The run's schema rows, one per span, sorted by (start_s, site_id, phase).

    Site i of `cfg.sites` holds `shard_sizes[i]` samples; its step counts
    follow from `steps_per_round`.  Of the trajectory spec the ledger reads
    the round count, `train`'s epochs, batch size and seed, and the model's
    shape, whose `update_payload_bytes` every round row carries; nothing
    else.  Each row's run id is `cfg.scenario`.  A span's energy and CO2e
    are plain floats, so a value that overflows reaches its row, which
    rejects it as it is made (the init rows first, then each round's round,
    idle and evaluate rows, in site order).
    """
    train, workload = cfg.spec.train, cfg.spec.workload
    payload_bytes = update_payload_bytes(workload.num_classes, workload.num_features)
    rows = []

    def add_span(site: SiteConfig, phase: str, round_index: int, start: float, end: float, energy: float | None = None):
        """Add `site`'s row for `phase` from sim time `start` to `end`; its energy
        is the phase's power drawn over the span unless `energy` is given."""
        duration = end - start
        if energy is None:
            energy = energy_of(effective_power(site.hardware, site.tier, phase).total, duration)
        ci = site.region.ci_kg_per_kwh
        rows.append(RoundRecord(
            run_id=cfg.scenario,
            site_id=site.site_id,
            round_index=round_index,
            phase=phase,
            start_s=start,
            duration_s=duration,
            energy_kwh=energy,
            co2e_kg=emissions_of(energy, ci),
            ci_kg_per_kwh=ci,
            region_code=site.region.code,
            hardware_name=site.hardware.name,
            tier_label=site.tier.label,
            payload_bytes=payload_bytes if phase == ROUND else None,
            net_intensity_kwh_per_gb=cfg.comm_model.net_intensity_kwh_per_gb,
            seed=train.seed,
        ))

    # one-time init at training power, lasting as long as it takes that power
    # to draw the startup spike; with zero training power the spike is a lump
    # on a zero-length span
    init_end = 0.0
    for site in cfg.sites:
        power = effective_power(site.hardware, site.tier, INIT).total
        spike = site.hardware.init_spike_energy.value
        if power > 0:
            end = spike * JOULES_PER_KWH / power
            add_span(site, INIT, 0, 0.0, end)
        else:
            end = 0.0
            add_span(site, INIT, 0, 0.0, end, energy=spike)
        init_end = max(init_end, end)

    barrier = init_end
    for round_index in range(1, cfg.spec.num_rounds + 1):
        train_ends = []
        for site, n in zip(cfg.sites, shard_sizes, strict=True):
            duration = effective_train_duration(site.hardware, site.tier, steps_per_round(n, train))
            train_ends.append(barrier + duration)
            add_span(site, ROUND, round_index, barrier, train_ends[-1])

        # stragglers' peers idle until the slowest site finishes; that site gets
        # a zero-length idle span so every site has one per round
        train_end = max(train_ends)
        for site, end in zip(cfg.sites, train_ends):
            add_span(site, IDLE, round_index, end, train_end)

        barrier = train_end
        if cfg.evaluate_each_round:
            for site, n in zip(cfg.sites, shard_sizes):
                eval_steps = batches(n, train.batch_size)  # one forward pass
                duration = effective_train_duration(site.hardware, site.tier, eval_steps)
                add_span(site, EVALUATE, round_index, train_end, train_end + duration)
                barrier = max(barrier, train_end + duration)
    rows.sort(key=lambda r: (r.start_s, r.site_id, r.phase))
    return rows
