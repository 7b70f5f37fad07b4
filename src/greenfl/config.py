"""Run-configuration document: parsing, validation and plan construction.

A run is one JSON document.  Validation happens before any simulation
starts, unknown keys are rejected, and every error carries a dotted field
path so the CLI can point at the offending entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .comm import CommEnergyModel
from .errors import ConfigError
from .orchestrator import RunPlan
from .partition import LabeledDatasetDescriptor, PartitionConfig, dirichlet_partition
from .sites import (
    BUILTIN_HARDWARE,
    BUILTIN_REGIONS,
    BUILTIN_TIERS,
    EfficiencyTier,
    GridRegion,
    HardwareProfile,
    SiteConfig,
)
from .units import EnergyKwh, PowerDrawW
from .workload import SyntheticDataset, TrainConfig, make_blobs

_TOP_KEYS = {
    "scenario",
    "seed",
    "num_rounds",
    "evaluate_each_round",
    "workload",
    "partition",
    "comm",
    "tiers",
    "hardware",
    "regions",
    "sites",
}
_WORKLOAD_KEYS = {
    "num_classes",
    "num_features",
    "samples_per_class",
    "separation",
    "local_epochs",
    "batch_size",
    "learning_rate",
}
_PARTITION_KEYS = {"num_clients", "alpha", "seed"}
_COMM_KEYS = {"net_intensity_kwh_per_gb", "attribution"}
_SITE_KEYS = {"site_id", "hardware", "tier", "region"}
_HARDWARE_KEYS = {
    "train_power_w",
    "idle_power_w",
    "init_spike_energy_kwh",
    "throughput_steps_per_s",
}
_POWER_KEYS = {"cpu_w", "gpu_w", "ram_w"}
_TIER_KEYS = {"slowdown_factor", "power_scale"}


@dataclass(frozen=True)
class WorkloadConfig:
    """The synthetic dataset's shape; see `workload.make_blobs`."""

    num_classes: int
    num_features: int
    samples_per_class: int
    separation: float


@dataclass(frozen=True)
class TrajectorySpec:
    """Every input that shapes the learning trajectory, and nothing else.

    Tiers, hardware, regions, the comm model and evaluation spans only
    change the ledger, so they are not here.  The dataset seed is
    `train.seed`.
    """

    workload: WorkloadConfig
    train: TrainConfig
    partition: PartitionConfig
    num_rounds: int
    num_sites: int


@dataclass
class RunConfig:
    scenario: str
    seed: int
    plan: RunPlan
    partition_cfg: PartitionConfig
    workload_cfg: WorkloadConfig
    comm_attribution: str
    raw: dict = field(repr=False, default_factory=dict)

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def trajectory_spec(self) -> TrajectorySpec:
        return TrajectorySpec(
            workload=self.workload_cfg,
            train=self.plan.train_cfg,
            partition=self.partition_cfg,
            num_rounds=self.plan.num_rounds,
            num_sites=len(self.plan.sites),
        )


def _require(doc: dict, key: str, types, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {types}, got {type(value).__name__}")
    return value


def _reject_unknown(doc: dict, allowed: set, path: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _positive(value, path: str):
    if not value > 0:
        raise ConfigError(path, f"must be > 0, got {value}")
    return value


def _power(doc, path: str) -> PowerDrawW:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object with cpu_w/gpu_w/ram_w")
    _reject_unknown(doc, _POWER_KEYS, path)
    try:
        return PowerDrawW(
            cpu_w=float(doc.get("cpu_w", 0.0)),
            gpu_w=float(doc.get("gpu_w", 0.0)),
            ram_w=float(doc.get("ram_w", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict, tier_overrides: dict[str, EfficiencyTier] | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config", "document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "")

    scenario = _require(doc, "scenario", str, "")
    seed = int(_require(doc, "seed", int, ""))
    num_rounds = int(_require(doc, "num_rounds", int, ""))
    if num_rounds < 1:
        raise ConfigError("num_rounds", f"must be >= 1, got {num_rounds}")
    evaluate_each_round = doc.get("evaluate_each_round", True)
    if not isinstance(evaluate_each_round, bool):
        raise ConfigError("evaluate_each_round", "expected bool")

    wl = _require(doc, "workload", dict, "")
    _reject_unknown(wl, _WORKLOAD_KEYS, "workload")
    workload_cfg = WorkloadConfig(
        num_classes=int(wl.get("num_classes", 10)),
        num_features=int(wl.get("num_features", 90)),
        samples_per_class=int(wl.get("samples_per_class", 6000)),
        separation=float(wl.get("separation", 5.0)),
    )
    for key in ("num_classes", "num_features", "samples_per_class"):
        _positive(getattr(workload_cfg, key), f"workload.{key}")
    try:
        train_cfg = TrainConfig(
            local_epochs=int(wl.get("local_epochs", 10)),
            batch_size=int(wl.get("batch_size", 600)),
            learning_rate=float(wl.get("learning_rate", 0.05)),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError("workload", str(exc)) from exc

    part = _require(doc, "partition", dict, "")
    _reject_unknown(part, _PARTITION_KEYS, "partition")
    alpha = float(_require(part, "alpha", (int, float), "partition"))
    if not alpha > 0:
        raise ConfigError("partition.alpha", f"must be > 0, got {alpha}")
    num_clients = int(_require(part, "num_clients", int, "partition"))
    if num_clients < 1:
        raise ConfigError("partition.num_clients", f"must be >= 1, got {num_clients}")
    partition_cfg = PartitionConfig(
        num_clients=num_clients,
        alpha=alpha,
        seed=int(part.get("seed", seed)),
    )

    comm = _require(doc, "comm", dict, "")
    _reject_unknown(comm, _COMM_KEYS, "comm")
    net_intensity = float(_require(comm, "net_intensity_kwh_per_gb", (int, float), "comm"))
    if net_intensity < 0:
        raise ConfigError("comm.net_intensity_kwh_per_gb", "must be >= 0")
    attribution = comm.get("attribution", "client")
    if attribution != "client":
        raise ConfigError("comm.attribution", f"only 'client' attribution is supported, got {attribution!r}")

    hardware = dict(BUILTIN_HARDWARE)
    for name, hw in doc.get("hardware", {}).items():
        path = f"hardware.{name}"
        if not isinstance(hw, dict):
            raise ConfigError(path, "expected an object")
        _reject_unknown(hw, _HARDWARE_KEYS, path)
        try:
            hardware[name] = HardwareProfile(
                name=name,
                train_power=_power(_require(hw, "train_power_w", dict, path), f"{path}.train_power_w"),
                idle_power=_power(_require(hw, "idle_power_w", dict, path), f"{path}.idle_power_w"),
                init_spike_energy=EnergyKwh(float(hw.get("init_spike_energy_kwh", 0.0))),
                throughput_steps_per_s=float(_require(hw, "throughput_steps_per_s", (int, float), path)),
            )
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc

    tiers = dict(BUILTIN_TIERS)
    for label, tier in doc.get("tiers", {}).items():
        path = f"tiers.{label}"
        if not isinstance(tier, dict):
            raise ConfigError(path, "expected an object")
        _reject_unknown(tier, _TIER_KEYS, path)
        try:
            tiers[label] = EfficiencyTier(
                label=label,
                slowdown_factor=float(_require(tier, "slowdown_factor", (int, float), path)),
                power_scale=float(_require(tier, "power_scale", (int, float), path)),
            )
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if tier_overrides:
        tiers.update(tier_overrides)

    regions = dict(BUILTIN_REGIONS)
    for code, ci in doc.get("regions", {}).items():
        try:
            regions[code] = GridRegion(code, float(ci))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"regions.{code}", str(exc)) from exc

    raw_sites = _require(doc, "sites", list, "")
    if len(raw_sites) != num_clients:
        raise ConfigError("sites", f"{len(raw_sites)} sites but partition.num_clients = {num_clients}")
    sites = []
    for i, raw in enumerate(raw_sites):
        path = f"sites[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(path, "expected an object")
        _reject_unknown(raw, _SITE_KEYS, path)
        site_id = _require(raw, "site_id", str, path)
        hw_name = _require(raw, "hardware", str, path)
        if hw_name not in hardware:
            raise ConfigError(f"{path}.hardware", f"unknown hardware profile {hw_name!r}")
        tier_label = _require(raw, "tier", str, path)
        if tier_label not in tiers:
            raise ConfigError(f"{path}.tier", f"unknown tier {tier_label!r}")
        region_code = _require(raw, "region", str, path)
        if region_code not in regions:
            raise ConfigError(f"{path}.region", f"unknown region {region_code!r}")
        sites.append(
            SiteConfig(
                site_id=site_id,
                hardware=hardware[hw_name],
                tier=tiers[tier_label],
                region=regions[region_code],
            )
        )
    if len({s.site_id for s in sites}) != len(sites):
        raise ConfigError("sites", "site_id values must be unique")

    plan = RunPlan(
        num_rounds=num_rounds,
        sites=sites,
        train_cfg=train_cfg,
        comm_model=CommEnergyModel(net_intensity),
        evaluate_each_round=evaluate_each_round,
    )
    return RunConfig(
        scenario=scenario,
        seed=seed,
        plan=plan,
        partition_cfg=partition_cfg,
        workload_cfg=workload_cfg,
        comm_attribution=attribution,
        raw=doc,
    )


def build_dataset(spec: TrajectorySpec) -> SyntheticDataset:
    return make_blobs(
        num_classes=spec.workload.num_classes,
        num_features=spec.workload.num_features,
        samples_per_class=spec.workload.samples_per_class,
        separation=spec.workload.separation,
        seed=spec.train.seed,
    )


def build_shards(spec: TrajectorySpec, dataset: SyntheticDataset) -> list[np.ndarray]:
    """The sample indices of the first `spec.num_sites` Dirichlet partitions
    of `dataset`, in site order."""
    descriptor = LabeledDatasetDescriptor(
        num_samples=dataset.num_samples,
        num_classes=dataset.num_classes,
        labels=dataset.labels,
    )
    parts = dirichlet_partition(descriptor, spec.partition)
    return [part.sample_indices for part in parts[: spec.num_sites]]


def bundled_config_path(name: str):
    """Path to a bundled scenario config, by bare name (without .json)."""
    return resources.files("greenfl").joinpath("configs", f"{name}.json")
