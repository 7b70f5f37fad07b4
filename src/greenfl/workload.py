"""Trainable local workload: multinomial logistic regression on Gaussian blobs.

The learning problem is a desk-scale stand-in for an image-classification
CNN: real gradients, real convergence, no heavyweight dependencies.  SGD,
aggregation and evaluation run in the dtype of the dataset's features:
float32 for `make_blobs` data, float64 for float64 data.  The byte size of
a transmitted update assumes 32-bit little-endian serialization of weights
then bias whatever the host dtype, so payload accounting is
host-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import Diverged, EmptyClientData

FLOAT32_BYTES = 4


@dataclass(frozen=True)
class ModelParams:
    weights: np.ndarray  # [num_classes, num_features]
    bias: np.ndarray  # [num_classes]

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise Diverged()

    @classmethod
    def zeros(cls, num_classes: int, num_features: int, dtype=np.float64) -> "ModelParams":
        return cls(np.zeros((num_classes, num_features), dtype), np.zeros(num_classes, dtype))


@dataclass(frozen=True)
class SyntheticDataset:
    features: np.ndarray  # [n, num_features]
    labels: np.ndarray  # [n]
    num_classes: int

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 10
    batch_size: int = 600
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")


def make_blobs(
    num_classes: int = 10,
    num_features: int = 90,
    samples_per_class: int = 6000,
    separation: float = 5.0,
    seed: int = 0,
) -> SyntheticDataset:
    """Unit-variance Gaussian blobs with minimum class-mean separation.

    Means are drawn isotropically and rescaled so the minimum pairwise
    distance equals `separation`; labels are the block-ordered class ids.
    Each class block is drawn in float64 and stored as float32.  A
    separation so large that a feature overflows float32 raises ValueError.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, num_features))
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite feature below
        if num_classes > 1:
            dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
            min_dist = dists[~np.eye(num_classes, dtype=bool)].min()
            means *= separation / min_dist
        features = np.empty((num_classes * samples_per_class, num_features), dtype=np.float32)
        for c in range(num_classes):
            block = slice(c * samples_per_class, (c + 1) * samples_per_class)
            features[block] = means[c] + rng.normal(size=(samples_per_class, num_features))
    # min and max propagate NaN and reach any inf, without an [n, F] temporary
    if not (np.isfinite(features.min()) and np.isfinite(features.max())):
        raise ValueError(f"separation {separation} overflows the float32 features")
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    return SyntheticDataset(features, labels, num_classes)


def steps_per_round(n: int, cfg: TrainConfig) -> int:
    return cfg.local_epochs * ceil(n / cfg.batch_size)


def train_clients(
    params: ModelParams,
    dataset: SyntheticDataset,
    shards: list[np.ndarray],
    cfg: TrainConfig,
    seeds: list[int],
) -> tuple[list[ModelParams], list[int]]:
    """Mini-batch SGD from `params` for every client at once; returns each
    client's trained params and step count, in `shards` order.

    Client i trains on the rows `shards[i]` of `dataset` (global indices,
    gathered per step, never copied out) and shuffles each epoch with its
    own `default_rng(seeds[i])` stream; `cfg.seed` is not used.  Clients
    step in lockstep: sorted by step count, longest first, the clients
    still training at step k are a prefix, and one batched forward and
    gradient serves them all.  Logits are class-major, `[client, class,
    lane]`, so the softmax reductions run along the contiguous lane axis.
    A batch's gradient is the mean over its real samples: every sample
    carries weight 1/len(batch), folded into the softmax normalisation,
    and the lanes that pad an epoch's short last batch carry weight 0.
    Everything runs in the dtype of `dataset.features`.  Finiteness is
    checked once, when the trained params are built after the last step.
    """
    sizes = [len(shard) for shard in shards]
    if min(sizes) == 0:
        raise EmptyClientData("cannot train on empty client data")
    dtype = dataset.features.dtype
    batch = cfg.batch_size
    steps = [steps_per_round(n, cfg) for n in sizes]
    order = sorted(range(len(shards)), key=lambda c: -steps[c])
    num_steps = steps[order[0]]

    # [client, step, lane] tables in sorted-client order; a padded lane
    # repeats the last sample of its batch, so its logits stay finite
    # whenever the batch's are
    index = np.zeros((len(shards), num_steps, batch), dtype=np.intp)
    scale = np.zeros((len(shards), num_steps, batch), dtype)
    for row, c in enumerate(order):
        n = sizes[c]
        per_epoch = -(-n // batch)
        lanes = np.zeros(per_epoch * batch)
        lanes[:n] = 1.0 / batch
        lanes[(per_epoch - 1) * batch : n] = 1.0 / (n - (per_epoch - 1) * batch)
        scale[row, : steps[c]] = np.tile(lanes.reshape(per_epoch, batch), (cfg.local_epochs, 1))
        rng = np.random.default_rng(seeds[c])
        for epoch in range(cfg.local_epochs):
            perm = rng.permutation(n)
            perm = np.concatenate([perm, np.full(per_epoch * batch - n, perm[-1])])
            index[row, epoch * per_epoch : (epoch + 1) * per_epoch] = shards[c][perm].reshape(per_epoch, batch)
    # flat position of each lane's true-class probability in a [rows, classes, batch] block
    k = dataset.num_classes
    target = dataset.labels[index] * batch
    target += np.arange(batch) + (k * batch) * np.arange(len(shards))[:, None, None]

    weights = np.repeat(params.weights[None].astype(dtype), len(shards), axis=0)
    bias = np.repeat(params.bias[None].astype(dtype), len(shards), axis=0)
    active = len(shards)
    # a diverging run overflows here; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(num_steps):
            while steps[order[active - 1]] <= step:
                active -= 1
            features = np.take(dataset.features, index[:active, step], axis=0)
            probs = np.matmul(weights[:active], features.transpose(0, 2, 1))
            probs += bias[:active, :, None]
            probs -= probs.max(axis=1, keepdims=True)
            np.exp(probs, out=probs)
            lane = scale[:active, step]
            probs *= lane[:, None, :] / probs.sum(axis=1, keepdims=True)
            probs.reshape(-1)[target[:active, step]] -= lane
            weights[:active] -= cfg.learning_rate * np.matmul(probs, features)
            bias[:active] -= cfg.learning_rate * probs.sum(axis=2)

    trained = [None] * len(shards)
    for row, c in enumerate(order):
        trained[c] = ModelParams(weights[row], bias[row])
    return trained, steps


def local_train(params: ModelParams, data: SyntheticDataset, cfg: TrainConfig):
    """Mini-batch SGD on all of `data`; returns (updated params, steps taken).

    The one-client case of `train_clients`, shuffled by `cfg.seed`, so
    fixed seeds give bit-identical trained parameters.
    """
    trained, steps = train_clients(params, data, [np.arange(data.num_samples)], cfg, [cfg.seed])
    return trained[0], steps[0]


def evaluate(params: ModelParams, data: SyntheticDataset) -> float:
    """Fraction of argmax-correct predictions, computed in the dtype of
    `data.features` and `params`."""
    if data.num_samples == 0:
        raise EmptyClientData("cannot evaluate on empty client data")
    predictions = np.argmax(data.features @ params.weights.T + params.bias, axis=1)
    return float(np.mean(predictions == data.labels))


def update_payload_bytes(params: ModelParams) -> int:
    """Bytes of one transmitted update under 32-bit serialization."""
    return (params.weights.size + params.bias.size) * FLOAT32_BYTES
