"""Deterministic Dirichlet label-based non-IID partitioning.

Generator contract: all draws come from numpy's PCG64 via
``numpy.random.default_rng(seed)``.  For each class (in ascending label
order) a Dirichlet proportion vector over clients is sampled as normalized
independent Gamma(alpha, 1) draws, that class's sample indices (ascending)
are split into contiguous blocks sized by largest-remainder rounding of
the proportions, and block b goes to client b.  Each client's index list
is finally sorted ascending.  Fixing (labels, num_clients, alpha, seed)
fixes the output bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDataset, InvalidAlpha


@dataclass(frozen=True)
class LabeledDatasetDescriptor:
    num_samples: int
    num_classes: int
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if labels.shape != (self.num_samples,):
            raise ValueError("labels length must equal num_samples")
        if self.num_samples and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")


@dataclass(frozen=True)
class PartitionConfig:
    num_clients: int
    alpha: float
    seed: int

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")


@dataclass(frozen=True)
class ClientPartition:
    client_id: int
    sample_indices: np.ndarray


@dataclass
class PartitionReport:
    disjoint: bool
    exhaustive: bool
    client_sample_counts: list[int]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.disjoint and self.exhaustive


def largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round `proportions * total` to integer counts summing to `total`.

    Floors first, then hands the leftover units to the largest fractional
    remainders; ties break on lower index for determinism.
    """
    exact = proportions * total
    counts = np.floor(exact).astype(np.int64)
    leftover = total - int(counts.sum())
    if leftover > 0:
        remainders = exact - counts
        # stable argsort on negated remainders -> largest first, index tie-break
        order = np.argsort(-remainders, kind="stable")
        counts[order[:leftover]] += 1
    return counts


def dirichlet_partition(dataset: LabeledDatasetDescriptor, cfg: PartitionConfig) -> list[ClientPartition]:
    if dataset.num_samples == 0:
        raise EmptyDataset("cannot partition an empty dataset")
    if not cfg.alpha > 0:
        raise InvalidAlpha(f"alpha must be > 0, got {cfg.alpha}")
    if cfg.num_clients > dataset.num_samples:
        raise ValueError("more clients than samples")

    rng = np.random.default_rng(cfg.seed)
    per_client: list[list[np.ndarray]] = [[] for _ in range(cfg.num_clients)]
    for cls in range(dataset.num_classes):
        cls_indices = np.flatnonzero(dataset.labels == cls)
        gammas = rng.gamma(cfg.alpha, 1.0, size=cfg.num_clients)
        with np.errstate(over="ignore"):
            total = gammas.sum()
        # a zero or overflowing total falls back to uniform proportions, the alpha -> inf limit
        if 0 < total < np.inf:
            proportions = gammas / total
        else:
            proportions = np.full(cfg.num_clients, 1.0 / cfg.num_clients)
        counts = largest_remainder_counts(proportions, len(cls_indices))
        offset = 0
        for client, count in enumerate(counts):
            per_client[client].append(cls_indices[offset : offset + count])
            offset += count

    partitions = []
    for client in range(cfg.num_clients):
        indices = np.sort(np.concatenate(per_client[client])) if per_client[client] else np.empty(0, dtype=np.int64)
        partitions.append(ClientPartition(client_id=client, sample_indices=indices.astype(np.int64)))
    return partitions


def validate_partition(dataset: LabeledDatasetDescriptor, partitions: list[ClientPartition]) -> PartitionReport:
    """Check disjointness and exhaustiveness; violations are reported, not raised."""
    seen = np.zeros(dataset.num_samples, dtype=np.int64)
    violations = []
    counts = []
    for part in partitions:
        idx = part.sample_indices
        counts.append(int(idx.size))
        if idx.size != np.unique(idx).size:
            violations.append(f"client {part.client_id}: duplicate indices within client")
        if idx.size and (idx.min() < 0 or idx.max() >= dataset.num_samples):
            violations.append(f"client {part.client_id}: index out of range")
            idx = idx[(idx >= 0) & (idx < dataset.num_samples)]
        np.add.at(seen, idx, 1)

    dup = np.flatnonzero(seen > 1)
    missing = np.flatnonzero(seen == 0)
    disjoint = dup.size == 0
    exhaustive = missing.size == 0
    if not disjoint:
        violations.append(f"disjointness: {dup.size} indices assigned to multiple clients")
    if not exhaustive:
        violations.append(f"exhaustiveness: {missing.size} indices unassigned")
    return PartitionReport(
        disjoint=disjoint,
        exhaustive=exhaustive,
        client_sample_counts=counts,
        violations=violations,
    )
