"""Deterministic Dirichlet label-based non-IID partitioning.

Generator contract: all draws come from numpy's PCG64 via
``numpy.random.default_rng(seed)``.  For each class (in ascending label
order) a Dirichlet proportion vector over clients is sampled as normalized
independent Gamma(alpha, 1) draws, that class's sample indices (ascending)
are split into contiguous blocks sized by largest-remainder rounding of
the proportions, and block b goes to client b.  Each client's index list
is ascending.  Fixing (labels, num_clients, alpha, seed) fixes the output
bit-for-bit.

The draws and the rounding need only each class's size:
`dirichlet_counts` turns the class sizes into the count table
counts[class, client], whose column sums are the shard sizes, with no
label or index built.  `dirichlet_partition` places that table on the
labels in two stable sorts, whatever the class count: one by label writes
each sample's owner, and one by owner lists each client's indices.
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


def dirichlet_counts(class_sizes: list[int] | np.ndarray, cfg: PartitionConfig) -> np.ndarray:
    """counts[cls, client]: how many of class cls's `class_sizes[cls]`
    samples go to client, the Dirichlet draw and rounding that
    `dirichlet_partition` places.  Its column sums are the shard sizes."""
    num_samples = int(np.sum(class_sizes))
    if num_samples == 0:
        raise EmptyDataset("cannot partition an empty dataset")
    if not cfg.alpha > 0:
        raise InvalidAlpha(f"alpha must be > 0, got {cfg.alpha}")
    if cfg.num_clients > num_samples:
        raise ValueError("more clients than samples")

    rng = np.random.default_rng(cfg.seed)
    counts = np.empty((len(class_sizes), cfg.num_clients), dtype=np.int64)
    for cls, size in enumerate(class_sizes):
        gammas = rng.gamma(cfg.alpha, 1.0, size=cfg.num_clients)
        with np.errstate(over="ignore"):
            total = gammas.sum()
        # a zero or overflowing total falls back to uniform proportions, the alpha -> inf limit
        if 0 < total < np.inf:
            proportions = gammas / total
        else:
            proportions = np.full(cfg.num_clients, 1.0 / cfg.num_clients)
        counts[cls] = largest_remainder_counts(proportions, int(size))
    return counts


def dirichlet_partition(dataset: LabeledDatasetDescriptor, cfg: PartitionConfig) -> list[ClientPartition]:
    counts = dirichlet_counts(np.bincount(dataset.labels, minlength=dataset.num_classes), cfg)
    # the samples in (class, index) order take their owners block by block;
    # a stable sort by owner then lists each client's samples in index order
    owner = np.empty(dataset.num_samples, dtype=np.int32)
    clients = np.tile(np.arange(cfg.num_clients, dtype=np.int32), dataset.num_classes)
    owner[np.argsort(dataset.labels, kind="stable")] = np.repeat(clients, counts.ravel())
    by_owner = np.argsort(owner, kind="stable").astype(np.int64, copy=False)
    shards = np.split(by_owner, np.cumsum(counts.sum(axis=0))[:-1])
    return [ClientPartition(client_id=client, sample_indices=shard) for client, shard in enumerate(shards)]


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
