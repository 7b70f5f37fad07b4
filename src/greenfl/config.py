"""Run-configuration document: parsing and validation.

A run is one JSON document.  It, a `--tiers` preset file, a
`calibrate --targets` file and the accuracies `report` reads from a
`summary.json` are each checked by one reader against a table of fields
(`_CONFIG`, `_TIERS_FILE`, `_TARGETS_FILE`, `_ACCURACIES`) before any
simulation starts: unknown keys are rejected, types are strict, floats
must be finite, and every error carries a dotted field path so the CLI can
point at the offending entry.  The rules between fields (the size
products, site count, site references, unique site ids) follow the table
as a few explicit checks, and the `RunConfig` they build is the one record
of a parsed run, which nothing checks again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .comm import CommEnergyModel
from .errors import ConfigError
from .partition import LabeledDatasetDescriptor, PartitionConfig, dirichlet_counts, dirichlet_partition
from .sites import (
    BUILTIN_HARDWARE,
    BUILTIN_REGIONS,
    BUILTIN_TIERS,
    MAX_TIER_FACTOR,
    EfficiencyTier,
    GridRegion,
    HardwareProfile,
    SiteConfig,
)
from .units import EnergyKwh, PowerDrawW
from .workload import SyntheticDataset, TrainConfig, blob_labels, make_blobs

REQUIRED = object()  # the default of a field that has none
# samples_per_class x num_classes x num_features of the largest dataset:
# its float32 features take 400 MB, plus one column of ones.  It also caps
# the logits rule, the [samples, classes] logits one evaluation computes
# (`evaluate` holds one block of them, at most `workload.EVAL_BYTES`), and
# the one lockstep rule, in 4-byte values, which `runner.plan_run` checks
# once the shard sizes are known
MAX_DATASET_VALUES = 10**8
# num_classes x (num_classes - 1) / 2 x num_features: `make_blobs` compares
# every pair of class means over all features.  On a 2-core VM the worst
# accepted cases took up to 2.4 s in that pass and about 6 s for the dataset
MAX_CLASS_PAIR_VALUES = 3 * 10**8
# partition.num_clients x num_rounds: the ledger holds clients x (1 + 3 x
# rounds) rows.  At this bound, 250 sites x 1000 rounds of a 2-class,
# 2-feature model gave 750,250 rows and a 100 MB rounds.csv; `greenfl run`
# peaked at 474 MB and `greenfl report` at 451 MB (VmHWM, Python 3.11 on a
# 2-core VM), about the dataset's 400 MB
MAX_SITE_ROUNDS = 250_000


@dataclass(frozen=True)
class Field:
    """One input field: its kind, its default and its bounds.

    `kind` is `bool`, `int`, `str`, `float` (any JSON number, read as a
    finite float), a section `{key: Field}`, or a `MapOf`/`ListOf`.  An int
    takes no bool, float or string.  `lo` is inclusive unless `lo_open`;
    `hi` is inclusive.
    """

    kind: object
    default: object = REQUIRED
    lo: float | None = None
    lo_open: bool = False
    hi: float | None = None


@dataclass(frozen=True)
class MapOf:
    """A JSON object with free keys, each value read as `item`."""

    item: Field


@dataclass(frozen=True)
class ListOf:
    """A JSON list, each entry read as `item`."""

    item: Field


_POWER = {key: Field(float, 0.0, lo=0) for key in ("cpu_w", "gpu_w", "ram_w")}
_HARDWARE = {
    "train_power_w": Field(_POWER),
    "idle_power_w": Field(_POWER),
    "init_spike_energy_kwh": Field(float, 0.0, lo=0),
    "throughput_steps_per_s": Field(float, lo=0, lo_open=True),
}
_TIER = {
    # calibrate fits slowdowns up to the same bound, so this reads every tier file it writes
    "slowdown_factor": Field(float, lo=1, hi=MAX_TIER_FACTOR),
    "power_scale": Field(float, lo=0, lo_open=True),
}
_SITE = {key: Field(str) for key in ("site_id", "hardware", "tier", "region")}
_CONFIG = {
    "scenario": Field(str),
    "seed": Field(int, lo=0),
    "num_rounds": Field(int, lo=1, hi=10_000),
    "evaluate_each_round": Field(bool, True),
    "workload": Field({
        "num_classes": Field(int, 10, lo=1),
        "num_features": Field(int, 90, lo=1),
        "samples_per_class": Field(int, 6000, lo=1),
        "separation": Field(float, 5.0, lo=0),
        "local_epochs": Field(int, 10, lo=0, hi=1000),
        "batch_size": Field(int, 600, lo=1),
        "learning_rate": Field(float, 0.05, lo=0),
    }),
    "partition": Field({
        "num_clients": Field(int, lo=1, hi=1000),
        "alpha": Field(float, lo=0, lo_open=True),
        "seed": Field(int, None, lo=0),  # None: the top-level seed
    }),
    "comm": Field({
        "net_intensity_kwh_per_gb": Field(float, lo=0),
        "attribution": Field(str, "client"),
    }),
    "tiers": Field(MapOf(Field(_TIER)), {}),
    "hardware": Field(MapOf(Field(_HARDWARE)), {}),
    "regions": Field(MapOf(Field(float, lo=0)), {}),
    "sites": Field(ListOf(Field(_SITE))),
}
# the file `greenfl calibrate` writes and `greenfl run --tiers` reads
_TIERS_FILE = {"tiers": Field(MapOf(Field(_TIER)))}
_TARGETS_FILE = MapOf(Field({
    "mean_energy_kwh_per_round": Field(float, lo=0, lo_open=True),
    "runtime_min": Field(float, lo=0, lo_open=True),
}))
_ACCURACIES = ListOf(Field(float, lo=0, hi=1))  # summary.json's accuracy_by_round


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
    `train.seed`.  The ledger takes from it the round count, `train`'s
    epochs, batch size and seed, the model's shape and the shard sizes
    (`shard_sizes`, the partition's count table, with no shard built),
    never a trained value.
    """

    workload: WorkloadConfig
    train: TrainConfig
    partition: PartitionConfig
    num_rounds: int


@dataclass
class RunConfig:
    """A parsed run: its scenario name (the run id), its sites in config
    order, its trajectory spec, its comm model, whether every round ends in
    an evaluation, and its source document.  The top-level seed is
    `spec.train.seed`, the round count `spec.num_rounds`.  `parse_config`
    has checked it: at least one round, one site per client, and unique
    site ids."""

    scenario: str
    sites: list[SiteConfig]
    spec: TrajectorySpec
    comm_model: CommEnergyModel
    evaluate_each_round: bool
    raw: dict = field(repr=False, default_factory=dict)

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


_SCALARS = {bool: "bool", int: "int", float: "number", str: "string"}


def _read(value, spec: Field, path: str):
    """`value` checked against `spec`, with section defaults filled in.

    Raises ConfigError at the dotted path of the first bad field.
    """
    kind = spec.kind
    if isinstance(kind, (dict, MapOf)):
        types, name = dict, "object"
    elif isinstance(kind, ListOf):
        types, name = list, "list"
    else:
        types, name = (int, float) if kind is float else kind, _SCALARS[kind]
    if not isinstance(value, types) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(path or "config", f"expected {name}")

    if isinstance(kind, dict):
        out = {}
        for key, sub in kind.items():
            if key in value:
                out[key] = _read(value[key], sub, _join(path, key))
            elif sub.default is REQUIRED:
                raise ConfigError(_join(path, key), "missing required field")
            else:
                out[key] = sub.default
        for key in value:
            if key not in kind:
                raise ConfigError(_join(path, key), "unknown field")
        return out
    if isinstance(kind, MapOf):
        return {_text(key, _join(path, key)): _read(item, kind.item, _join(path, key)) for key, item in value.items()}
    if isinstance(kind, ListOf):
        return [_read(item, kind.item, f"{path}[{i}]") for i, item in enumerate(value)]
    if kind is str:
        return _text(value, path)
    if kind is float:
        try:
            value = float(value) + 0.0  # reads -0.0 as 0.0, and keeps every other float's bits
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(path, "must be finite")
    if spec.lo is not None and not (value > spec.lo if spec.lo_open else value >= spec.lo):
        raise ConfigError(path, f"must be {'>' if spec.lo_open else '>='} {spec.lo}")
    if spec.hi is not None and not value <= spec.hi:
        raise ConfigError(path, f"must be <= {spec.hi}")
    return value


def _text(value: str, path: str) -> str:
    """`value`, unless it holds a carriage return or a NUL, which a text cell
    of `rounds.csv` cannot hold (`reporting.validate_record`)."""
    if "\r" in value or "\0" in value:
        raise ConfigError(path, "must not contain a carriage return or NUL")
    return value


def _entry(path: str, cls, *args, **kwargs):
    """`cls(*args, **kwargs)`, its ValueError reported at `path`."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _tiers(raw: dict) -> dict[str, EfficiencyTier]:
    return {
        label: _entry(f"tiers.{label}", EfficiencyTier, label, t["slowdown_factor"], t["power_scale"])
        for label, t in raw.items()
    }


def _unique_keys(pairs: list[tuple]) -> dict:
    """The dict of a JSON object's `(key, value)` pairs; a key given twice
    raises ValueError, since either value may be the one meant."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_json(path, what: str) -> dict:
    """The JSON object in file `path`; anything else, a repeated key
    included, is a ConfigError at `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(what, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(what, f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(what, f"{path} does not hold a JSON object")
    return doc


def load_config(path) -> RunConfig:
    return parse_config(load_json(path, "config"))


def load_tiers(path) -> dict[str, EfficiencyTier]:
    """The tier presets of a `{"tiers": {label: {...}}}` file, as `calibrate` writes it."""
    return _tiers(_read(load_json(path, "tiers"), Field(_TIERS_FILE), "")["tiers"])


def load_targets(path) -> dict[str, dict]:
    """Calibration targets: `{label: {"mean_energy_kwh_per_round": .., "runtime_min": ..}}`."""
    return _read(load_json(path, "targets"), Field(_TARGETS_FILE), "targets")


def load_accuracies(path) -> list[float]:
    """The per-round accuracies of a run's `summary.json`, as `greenfl run` writes it."""
    doc = load_json(path, "summary.json")
    return _read(doc.get("accuracy_by_round"), Field(_ACCURACIES), "summary.json.accuracy_by_round")


def parse_config(doc: dict, tier_overrides: dict[str, EfficiencyTier] | None = None) -> RunConfig:
    c = _read(doc, Field(_CONFIG), "")
    wl, part, comm = c["workload"], c["partition"], c["comm"]
    if comm["attribution"] != "client":
        raise ConfigError("comm.attribution", f"only 'client' attribution is supported, got {comm['attribution']!r}")
    if wl["samples_per_class"] * wl["num_classes"] * wl["num_features"] > MAX_DATASET_VALUES:
        raise ConfigError(
            "workload.samples_per_class",
            f"samples_per_class x num_classes x num_features must be <= {MAX_DATASET_VALUES}",
        )
    if wl["num_classes"] * wl["num_classes"] * wl["samples_per_class"] > MAX_DATASET_VALUES:
        raise ConfigError(
            "workload.num_classes",
            f"num_classes x num_classes x samples_per_class must be <= {MAX_DATASET_VALUES}",
        )
    if wl["num_classes"] * (wl["num_classes"] - 1) // 2 * wl["num_features"] > MAX_CLASS_PAIR_VALUES:
        raise ConfigError(
            "workload.num_features",
            f"num_classes x (num_classes - 1) / 2 x num_features must be <= {MAX_CLASS_PAIR_VALUES}",
        )

    hardware = dict(BUILTIN_HARDWARE)
    for name, hw in c["hardware"].items():
        hardware[name] = _entry(
            f"hardware.{name}",
            HardwareProfile,
            name=name,
            train_power=PowerDrawW(**hw["train_power_w"]),
            idle_power=PowerDrawW(**hw["idle_power_w"]),
            init_spike_energy=EnergyKwh(hw["init_spike_energy_kwh"]),
            throughput_steps_per_s=hw["throughput_steps_per_s"],
        )
    tiers = {**BUILTIN_TIERS, **_tiers(c["tiers"]), **(tier_overrides or {})}
    regions = {**BUILTIN_REGIONS, **{code: GridRegion(code, ci) for code, ci in c["regions"].items()}}

    if len(c["sites"]) != part["num_clients"]:
        raise ConfigError("sites", f"{len(c['sites'])} sites but partition.num_clients = {part['num_clients']}")
    if part["num_clients"] * c["num_rounds"] > MAX_SITE_ROUNDS:
        raise ConfigError("num_rounds", f"partition.num_clients x num_rounds must be <= {MAX_SITE_ROUNDS}")
    sites = []
    for i, raw in enumerate(c["sites"]):
        for key, known, noun in (
            ("hardware", hardware, "hardware profile"),
            ("tier", tiers, "tier"),
            ("region", regions, "region"),
        ):
            if raw[key] not in known:
                raise ConfigError(f"sites[{i}].{key}", f"unknown {noun} {raw[key]!r}")
        sites.append(SiteConfig(raw["site_id"], hardware[raw["hardware"]], tiers[raw["tier"]], regions[raw["region"]]))
    if len({site.site_id for site in sites}) != len(sites):
        raise ConfigError("sites", "site_id values must be unique")

    seed = c["seed"]
    return RunConfig(
        scenario=c["scenario"],
        sites=sites,
        spec=TrajectorySpec(
            workload=WorkloadConfig(wl["num_classes"], wl["num_features"], wl["samples_per_class"], wl["separation"]),
            train=TrainConfig(wl["local_epochs"], wl["batch_size"], wl["learning_rate"], seed),
            partition=PartitionConfig(
                part["num_clients"], part["alpha"], seed if part["seed"] is None else part["seed"]
            ),
            num_rounds=c["num_rounds"],
        ),
        comm_model=CommEnergyModel(comm["net_intensity_kwh_per_gb"]),
        evaluate_each_round=c["evaluate_each_round"],
        raw=doc,
    )


def build_dataset(spec: TrajectorySpec) -> SyntheticDataset:
    """The run's dataset; a separation that overflows it is a ConfigError."""
    return _entry(
        "workload.separation",
        make_blobs,
        num_classes=spec.workload.num_classes,
        num_features=spec.workload.num_features,
        samples_per_class=spec.workload.samples_per_class,
        separation=spec.workload.separation,
        seed=spec.train.seed,
    )


def build_shards(spec: TrajectorySpec) -> list[np.ndarray]:
    """The sample indices of each site's Dirichlet partition of the run's
    dataset, in site order.

    The partition reads only the labels, which `blob_labels` lays out with
    no random draw, so the shards need neither the features nor training.
    More clients than samples is a ConfigError.
    """
    labels = blob_labels(spec.workload.num_classes, spec.workload.samples_per_class)
    descriptor = LabeledDatasetDescriptor(len(labels), spec.workload.num_classes, labels)
    parts = _entry("partition.num_clients", dirichlet_partition, descriptor, spec.partition)
    return [part.sample_indices for part in parts]


def shard_sizes(spec: TrajectorySpec) -> list[int]:
    """Each site's shard size, in site order: the lengths of `build_shards`,
    read off the partition's count table, so no label or index is built.
    More clients than samples is a ConfigError, as in `build_shards`."""
    class_sizes = [spec.workload.samples_per_class] * spec.workload.num_classes
    return _entry("partition.num_clients", dirichlet_counts, class_sizes, spec.partition).sum(axis=0).tolist()


def bundled_config_path(name: str):
    """Path to a bundled scenario config, by bare name (without .json)."""
    return resources.files("greenfl").joinpath("configs", f"{name}.json")
