"""Trainable local workload: multinomial logistic regression on Gaussian blobs.

The learning problem is a desk-scale stand-in for an image-classification
CNN: real gradients, real convergence, no heavyweight dependencies.  A
dataset is held once, in homogeneous coordinates: a design matrix `[x, 1]`
whose last column makes the bias one more weight in SGD.  SGD,
aggregation and evaluation run in the dtype of the dataset's features:
float32 for `make_blobs` data, float64 for float64 data.  The byte size of
a transmitted update assumes 32-bit little-endian serialization of weights
then bias whatever the host dtype, so payload accounting is
host-independent.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, EmptyClientData, WorkerFailed

FLOAT32_BYTES = 4
# Multiply-adds one lockstep step must give each client group before the
# clients split into groups, each after the first in a worker process.  With
# one worker, a whole 5-round run of retina's clients lost 21% at 6.4k per
# group (retina's own step), tied at 12.8k and won 13% at 25.6k; at 54k per
# group (cifar's clients at 20 lanes) a 10-round run won 24% (CHANGES.md,
# "Client groups train in a forked worker process").  Like CLASS_MAJOR_WORK
# it depends on the BLAS build.
MIN_GROUP_WORK = 1 << 14
# One client's multiply-adds per lockstep step, `lane * num_features *
# num_classes`, below which θ is held class-major.  Such a step is bound
# by its numpy calls, and the class-major forward writes `probs` directly
# and the update is contiguous; above it, numpy's stacked matmul on the
# transposed batch loses to the feature-major forward and its copy.  The
# measured crossover lies between 64,000 and 90,000 (CHANGES.md, "Two θ
# layouts"); it depends on the BLAS build.
CLASS_MAJOR_WORK = 1 << 16
# Bytes of gathered batches one lockstep call holds: a `take` gathers as
# many consecutive steps of one active prefix as fit, and at least one.
# A call-bound step then pays a fraction of a `take`; a whole epoch's
# batches (about 22 MB on cifar) would raise the peak memory for nothing.
GATHER_BYTES = 1 << 18
# Bytes of one chunk of `make_blobs`' float64 draw: a class block is drawn in
# C order a chunk at a time, and each chunk gets its class mean and is cast
# into the design while it is in cache, so no block-sized buffer is held.
DRAW_BYTES = 1 << 18
# Bytes of one `evaluate` block: its logits, `classes x itemsize` a row, and
# its intp predictions and their bool comparison, 9 bytes a row.  A dataset
# is evaluated one block of rows at a time, so an evaluation holds one block,
# not `[samples, classes]` logits.  One float32 evaluation on a 2-core VM, one
# BLAS thread, best of 3 in each of two processes, whole dataset against
# blocks: cifar's shape (60,000 rows, 3 blocks) 5.6 to 7.3 ms and 6.1 to 7.4
# ms; 1000 classes x 600 features 906 to 950 and 960 to 1101 ms; 500 classes
# x 8 features 58 and 16 ms.  256 KiB blocks took the 1000-class shape to
# 1435 to 1589 ms, since each small block repays the GEMM's fixed cost.
EVAL_BYTES = 1 << 20


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
    """Labelled samples, held once as a C-contiguous `[n, F + 1]` design
    matrix `[x, 1]`: `features` is its `[:, :F]` view.  Another labelling
    of a dataset shares its `design`."""

    design: np.ndarray  # [n, num_features + 1], last column 1
    labels: np.ndarray  # [n]
    num_classes: int

    def __post_init__(self):
        d = self.design
        if not (d.ndim == 2 and d.shape[1] > 0 and d.flags.c_contiguous and np.all(d[:, -1] == 1)):
            raise ValueError("design must be a C-contiguous [n, F + 1] matrix whose last column is 1")

    @classmethod
    def of(cls, features: np.ndarray, labels: np.ndarray, num_classes: int) -> "SyntheticDataset":
        """A dataset of `[n, F]` features, copied once into a new design
        matrix, so the caller's array is neither aliased nor modified."""
        ones = np.ones((len(features), 1), features.dtype)
        return cls(np.hstack([features, ones]), labels, num_classes)

    @property
    def features(self) -> np.ndarray:
        return self.design[:, :-1]

    @property
    def num_samples(self) -> int:
        return self.design.shape[0]

    @property
    def num_features(self) -> int:
        return self.design.shape[1] - 1


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
    distance equals `separation`; labels are `blob_labels`.
    Each class block is drawn in float64 in C order, in chunks of up to
    `DRAW_BYTES` from one stream (whole rows, or pieces of one row when a
    row is larger), and each chunk is stored as float32 straight into the
    first columns of the dataset's design matrix.  The stream yields the
    same values however it is chunked.  A separation so large that a
    feature overflows float32 raises ValueError.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, num_features))
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite feature below
        if num_classes > 1:
            # row by row, so no [K, K, F] difference array is built
            min_dist = min(
                np.linalg.norm(means[c + 1 :] - means[c], axis=-1).min() for c in range(num_classes - 1)
            )
            means *= separation / min_dist
        design = np.empty((num_classes * samples_per_class, num_features + 1), dtype=np.float32)
        design[:, num_features] = 1
        chunk_values = max(1, DRAW_BYTES // means.itemsize)
        rows = max(1, min(samples_per_class, chunk_values // num_features))
        cols = min(num_features, chunk_values)  # num_features whenever rows > 1
        buf = np.empty(rows * cols)
        for c in range(num_classes):
            end = (c + 1) * samples_per_class
            for row in range(c * samples_per_class, end, rows):
                block = design[row : min(row + rows, end)]
                for lo in range(0, num_features, cols):
                    hi = min(lo + cols, num_features)
                    draw = buf[: len(block) * (hi - lo)].reshape(len(block), hi - lo)
                    rng.standard_normal(out=draw)
                    draw += means[c, lo:hi]
                    block[:, lo:hi] = draw
    # min and max propagate NaN and reach any inf, without an [n, F] temporary
    if not (np.isfinite(design.min()) and np.isfinite(design.max())):
        raise ValueError(f"separation {separation} overflows the float32 features")
    return SyntheticDataset(design, blob_labels(num_classes, samples_per_class), num_classes)


def blob_labels(num_classes: int, samples_per_class: int) -> np.ndarray:
    """The labels of `make_blobs` data: each class id repeated
    `samples_per_class` times, in class order.  They take no random draw."""
    return np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)


def batches(n: int, batch_size: int) -> int:
    """Batches of at most `batch_size` that cover `n` samples, an integer ceiling."""
    return -(-n // batch_size)


def steps_per_round(n: int, cfg: TrainConfig) -> int:
    return cfg.local_epochs * batches(n, cfg.batch_size)


def _usable_cores() -> int:
    """The cores client groups may use: on Linux, those this process may run
    on; elsewhere 1.  Each group after the first trains in a forked worker,
    and fork is safe only on Linux here: macOS's Accelerate BLAS does not
    survive it, and Windows has none."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def _client_groups(sizes: list[int], client_work: int, cores: int) -> list[list[int]]:
    """Client indices split into the groups `ClientGroups` trains side by side.

    There are `min(cores, clients, step_work // MIN_GROUP_WORK)` groups, at
    least one, where `step_work = client_work * clients` is the
    multiply-adds of one full lockstep step and `client_work = lane *
    num_features * num_classes` one client's share.  Clients go largest
    shard first to the group with the fewest samples so far.  This is the
    one place that orders the clients: each group lists them largest shard
    first, as `_lockstep` takes them.
    """
    step_work = client_work * len(sizes)
    count = max(1, min(cores, len(sizes), step_work // MIN_GROUP_WORK))
    groups = [[] for _ in range(count)]
    loads = [0] * count
    for c in sorted(range(len(sizes)), key=lambda c: -sizes[c]):
        g = loads.index(min(loads))
        groups[g].append(c)
        loads[g] += sizes[c]
    return groups


def train_clients(
    params: ModelParams,
    dataset: SyntheticDataset,
    shards: list[np.ndarray],
    cfg: TrainConfig,
    seeds: list[int],
) -> list[ModelParams]:
    """Mini-batch SGD from `params` for every client at once; returns each
    client's trained params, in `shards` order.  One round of
    `ClientGroups`, whose workers, if any, live for this call alone.
    """
    with ClientGroups(dataset, shards, cfg) as groups:
        return groups.train(params, seeds)


class ClientGroups:
    """The clients of `shards`, dealt into groups once, trained a round at a
    time by `train`, and whose processes share `evaluate`, until `close`; a
    context manager that closes on exit.

    Client i trains on the rows `shards[i]` of `dataset`.  Each client takes
    `steps_per_round` of its shard size, the count the ledger charges.
    `_client_groups` orders the clients and deals them into groups.  There
    is one group unless one lockstep step is large enough to pay for a
    worker process (`MIN_GROUP_WORK`); then the groups, of balanced shard
    size, are one per usable core.  A group trains a round in one
    `_lockstep` call.  The calling process trains the first group, and each
    group after it trains in its own worker process, forked when the object
    is made and ended by `close`.  A worker shares `dataset` and `shards`
    with the caller copy-on-write, so they are never sent.  `train` and
    `evaluate` are one exchange, `_share`: each process runs the same method
    on its group's share of the arguments, `train`'s params and seeds or
    every k-th of `evaluate`'s params, and a worker receives its share on
    its one connection to the caller and sends back the method's return
    value, its group's θ array or its accuracies.  Every group steps at the
    lane width of the whole call, and in the θ layout chosen from one
    client's step work alone, so a client's trained bits do not depend on
    its group or its process, and a client that diverges raises `Diverged`
    in the caller.  A worker that fails otherwise, or exits, raises
    `WorkerFailed`.  A shard index outside `[0, dataset.num_samples)` raises
    IndexError naming its client, before anything is forked.
    """

    def __init__(self, dataset: SyntheticDataset, shards: list[np.ndarray], cfg: TrainConfig):
        sizes = [len(shard) for shard in shards]
        if min(sizes) == 0:
            raise EmptyClientData("cannot train on empty client data")
        # the batches are gathered in `clip` mode, which never raises
        for i, shard in enumerate(shards):
            if shard.min() < 0 or shard.max() >= dataset.num_samples:
                raise IndexError(f"client {i}: shard indices must lie in [0, {dataset.num_samples})")
        self.dataset, self.shards, self.cfg = dataset, shards, cfg
        # a batch wider than every shard holds each shard whole, one batch per epoch
        self.lane = min(cfg.batch_size, max(sizes))
        client_work = self.lane * dataset.num_features * dataset.num_classes
        self.class_major = client_work < CLASS_MAJOR_WORK
        self.groups = _client_groups(sizes, client_work, _usable_cores())
        # (pid, the caller's end of its connection) of each group after the first
        self._workers = []
        try:
            for g in range(1, len(self.groups)):
                self._workers.append(self._fork(g))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ClientGroups":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """End the workers: closing the connections gives each an EOF to read
        or a broken pipe to write, either of which ends it, and it is reaped."""
        workers, self._workers = self._workers, []
        for _, conn in workers:
            conn.close()
        for pid, _ in workers:
            os.waitpid(pid, 0)

    def train(self, params: ModelParams, seeds: list[int]) -> list[ModelParams]:
        """Each client's params after one round of SGD from `params`, in
        `shards` order; client i shuffles each epoch with its own
        `default_rng(seeds[i])` stream, and `cfg.seed` is not used."""
        num_features = self.dataset.num_features
        trained = [None] * len(self.shards)
        for group, theta in zip(self.groups, self._share("_train", [(params, seeds)] * len(self.groups))):
            for c, t in zip(group, theta):
                trained[c] = ModelParams(t[:, :num_features].copy(), t[:, num_features].copy())
        return trained

    def evaluate(self, params: list[ModelParams]) -> list[float]:
        """`evaluate(p, dataset)` of each of `params`, in order.  With k
        groups, group g's process takes every k-th from the g-th."""
        k = len(self.groups)
        accuracies = [None] * len(params)
        for g, share in enumerate(self._share("_evaluate", [(params[g::k],) for g in range(k)])):
            accuracies[g::k] = share
        return accuracies

    def _share(self, method: str, shares: list[tuple]) -> list:
        """`getattr(self, method)(g, *shares[g])` of every group g, each in
        its own process: send each worker its method and share, run group
        0's here meanwhile, and return every group's result in group order."""
        try:
            for (_, conn), share in zip(self._workers, shares[1:]):
                conn.send((method, share))
            results = [getattr(self, method)(0, *shares[0])]
            for _, conn in self._workers:
                error, result = conn.recv()
                if error is not None:
                    raise WorkerFailed(f"a client group's worker failed: {error}")
                results.append(result)
        # a worker that died, before or in its reply: an EOF, a broken pipe or
        # reset connection, or "got end of file during message", an OSError
        except (EOFError, OSError):
            raise WorkerFailed("a client group's worker exited before its reply") from None
        return results

    def _train(self, g: int, params: ModelParams, seeds: list[int]) -> np.ndarray:
        """Group g's trained θ, `[client, class, feature + 1]`, in group order."""
        clients = self.groups[g]
        shards, group_seeds = [self.shards[c] for c in clients], [seeds[c] for c in clients]
        return _lockstep(params, self.dataset, shards, self.cfg, group_seeds, self.lane, self.class_major)

    def _evaluate(self, g: int, params: list[ModelParams]) -> list[float]:
        """The accuracies of group g's share of the params to evaluate."""
        return [evaluate(p, self.dataset) for p in params]

    def _fork(self, g: int) -> tuple:
        """Fork the worker that trains group g; return its pid and the
        caller's end of its connection."""
        # only a call with two or more groups forks, so only it imports these
        import signal
        from multiprocessing import Pipe

        conn, worker_conn = Pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the caller's handlers are not the worker's: a signal ends
                # it, SIGINT by KeyboardInterrupt
                for sig in signal.valid_signals():
                    if callable(signal.getsignal(sig)):
                        signal.signal(sig, signal.default_int_handler if sig == signal.SIGINT else signal.SIG_DFL)
                # the caller's end, so its exit is an EOF here, and the other workers'
                conn.close()
                for _, other in self._workers:
                    other.close()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 1)
                os.dup2(devnull, 2)
                code = self._serve(g, worker_conn)
            finally:
                # never the caller's exit path: no atexit hook, buffer flush or `finally`
                os._exit(code)
        worker_conn.close()
        return pid, conn

    def _serve(self, g: int, conn) -> int:
        """The worker's loop: for each request `(method, args)` on `conn`
        until EOF, reply with `getattr(self, method)(g, *args)` or the error
        it raised."""
        while True:
            try:
                method, args = conn.recv()
            except EOFError:
                return 0
            try:
                reply = None, getattr(self, method)(g, *args)
            except Exception as exc:  # reported to the caller, which raises it
                reply = f"{type(exc).__name__}: {exc}", None
            conn.send(reply)


def lockstep_values(sizes: list[int], batch_size: int, num_classes: int, num_features: int) -> int:
    """4-byte values one round of `ClientGroups` holds, over all its groups,
    for clients of shard `sizes`, `lane = min(batch_size, max(sizes))` lanes
    wide.  Per client: θ, its gradient and the trained copy, each `[classes,
    features + 1]`; the logits, `[classes, lane]`; 7 values for each entry
    of the `[steps, clients, 1, lane]` epoch tables, one for the lane weight
    (float32) and two each for the sample index, the true-class position and
    the shuffle buffer (intp); and the gather of one step, `lane x (features
    + 1)`.  A process holds these values for its own group's clients alone,
    so the count over all groups bounds any one process."""
    lane, k, f = min(batch_size, max(sizes)), num_classes, num_features
    return len(sizes) * (k * (3 * (f + 1) + lane) + lane * (7 * batches(max(sizes), lane) + f + 1))


def _lockstep(
    params: ModelParams,
    dataset: SyntheticDataset,
    shards: list[np.ndarray],
    cfg: TrainConfig,
    seeds: list[int],
    batch: int,
    class_major: bool,
) -> np.ndarray:
    """One round of SGD for one group of `ClientGroups`' clients, `batch`
    lanes wide, which come largest shard first; returns their trained θ in
    that order, `[client, class, feature + 1]` with the bias as feature F.

    Client i trains on the rows `shards[i]` of `dataset` (global indices,
    gathered by chunk, never copied out) and shuffles each epoch with its
    own `default_rng(seeds[i])` stream; `cfg.seed` is not used.  Clients
    step in lockstep one epoch at a time.  Steps per epoch, `batches(n,
    batch)`, do not increase as the shard shrinks, so the clients still
    training at step k of an epoch are a prefix, and one batched forward and
    gradient serves them all.  Batches are gathered from the design matrix
    `[x, 1]`, so the bias is one more weight: each client's weights and bias
    are one tensor θ, with the bias as feature F.  The logits go to a
    class-major buffer `probs`, `[client, class, lane]`, so the softmax
    reductions run along the contiguous lane axis.  θ's memory order follows
    `class_major`.  A call-bound step holds θ class-major, `[client, class,
    feature + 1]`: its forward `θ @ [x, 1]ᵀ` writes `probs` directly.  A
    BLAS-bound step holds θ feature-major, `[client, feature + 1, class]`:
    its forward `[x, 1] @ θ` multiplies two row-major operands, and the
    result is copied into `probs`.  The gradient GEMM `probs @ [x, 1]`
    writes the whole class-major gradient, `[client, class, feature + 1]`,
    and one subtraction updates weights and bias, through θ's class-major
    view (contiguous or transposed).  The batches of consecutive steps of
    one active prefix are gathered by one `take`, up to `GATHER_BYTES` and
    at least one step, into a buffer made once per call.  Each chunk's
    arrays, its index view, its gathered block and that block's transpose,
    and its slices of the lane-weight and true-class tables, are made once
    per call, and iterating them together yields each step's views, so the
    call keeps nothing per step.  The step's buffers are made once per call
    and written with `out=`, so a step allocates only the feature-major
    forward's result and the true-class gather.  A batch's step is the
    learning rate times the mean gradient over its real samples: every
    sample carries weight `lr / len(batch)`, folded into the softmax
    normalisation, and the lanes that pad an epoch's short last batch carry
    weight 0.  Everything runs in the dtype of `dataset.design`.
    Finiteness is not checked here: `ClientGroups.train` builds the trained
    params, which check it.
    """
    sizes = [len(shard) for shard in shards]
    design = dataset.design
    dtype = design.dtype
    num_clients, k = len(shards), dataset.num_classes
    per_epoch = [batches(n, batch) for n in sizes]
    num_steps = per_epoch[0]

    # [step, client, 1, lane] tables of one epoch, a row per client in
    # `shards` order; the unit class axis broadcasts over a [client, class,
    # lane] block.  The lane weights are the same every epoch; a rate whose
    # weight overflows the dtype gives inf weights, and the run then diverges
    lr = cfg.learning_rate
    scale = np.zeros((num_steps, num_clients, 1, batch), dtype)
    with np.errstate(over="ignore"):
        for row, (n, p) in enumerate(zip(sizes, per_epoch)):
            lanes = scale[:p, row, 0]
            lanes[:-1] = lr / batch
            lanes[-1, : n - (p - 1) * batch] = lr / (n - (p - 1) * batch)
    # a lane's true-class probability is at flat position
    # `label * batch + offset` of a [client, class, lane] block
    offset = np.arange(batch) + (k * batch) * np.arange(num_clients)[:, None, None]
    index = np.zeros((num_steps, num_clients, 1, batch), dtype=np.intp)
    target = np.empty_like(index)
    labels = dataset.labels.astype(np.intp, copy=False)  # `take` into the intp `target` needs intp labels
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # each client's epoch order, its shard shuffled in place and padded
    shuffled = [np.empty(p * batch, np.intp) for p in per_epoch]

    # `theta` is θ in class-major order, `[client, class, feature + 1]`, with
    # the bias as column F.  A call-bound step stores θ so; a BLAS-bound
    # step stores it feature-major and `theta` is a transposed view, because
    # at its shapes numpy's stacked matmul is slow on a transposed operand
    num_features = dataset.num_features
    if class_major:
        theta = np.empty((num_clients, k, num_features + 1), dtype)
    else:
        theta = np.empty((num_clients, num_features + 1, k), dtype).transpose(0, 2, 1)
    theta[:, :, :num_features] = params.weights
    theta[:, :, num_features] = params.bias
    # the step's buffers, made once at full client count; an active prefix
    # writes into their [:active] views.  The softmax's class-axis max and
    # its normaliser are live at disjoint times and share `per_lane_all`
    probs_all = np.empty((num_clients, k, batch), dtype)
    per_lane_all = np.empty((num_clients, 1, batch), dtype)
    grad_all = np.empty((num_clients, k, num_features + 1), dtype)
    # rows [0, active) train during steps [ends[active], ends[active - 1]) of
    # every epoch; each run of steps is gathered in chunks of `chunk` steps
    ends = per_epoch + [0]
    row_values = batch * (num_features + 1)  # one client's batch
    runs = []
    for active in range(num_clients, 0, -1):
        if ends[active] < ends[active - 1]:
            chunk = max(1, GATHER_BYTES // (active * row_values * design.itemsize))
            runs.append((active, range(ends[active], ends[active - 1]), chunk))
    gathered = np.empty(max(active * min(chunk, len(steps)) for active, steps, chunk in runs) * row_values, dtype)
    # each chunk gets its arrays once, and they stay valid because the epoch
    # tables are refilled in place; iterating them yields each step's views
    prefixes = []
    for active, steps, chunk in runs:
        chunks = []
        for lo in steps[::chunk]:
            hi = min(lo + chunk, steps.stop)
            xs = gathered[: (hi - lo) * active * row_values].reshape(hi - lo, active, batch, num_features + 1)
            chunks.append(
                (index[lo:hi, :active, 0], xs, xs.transpose(0, 1, 3, 2), scale[lo:hi, :active], target[lo:hi, :active])
            )
        t, probs = theta[:active], probs_all[:active]
        views = (t, t.transpose(0, 2, 1), probs, probs.reshape(-1))
        prefixes.append((chunks, *views, per_lane_all[:active], grad_all[:active]))
    # looked up once per call: at small shapes a step is bound by its calls
    take, matmul, copyto, exp, divide = design.take, np.matmul, np.copyto, np.exp, np.divide
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce

    # a diverging run overflows here; the trained params' finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            # the shuffle makes the swaps of `permutation(n)`, so `buf[:n]` is
            # `shard[permutation(n)]`; a padded lane repeats the last
            # sample of its batch, so its logits stay finite whenever the
            # batch's are
            for row, (shard, rng, buf) in enumerate(zip(shards, rngs, shuffled)):
                n = len(shard)
                buf[:n] = shard
                rng.shuffle(buf[:n])
                buf[n:] = buf[n - 1]
                index[: per_epoch[row], row, 0] = buf.reshape(-1, batch)
            # `clip` fills `target` in place, where the default `raise`
            # would buffer the whole gather first
            labels.take(index, out=target, mode="clip")
            target *= batch
            target += offset
            for chunks, t, t_fm, probs, flat, per_lane, grad in prefixes:
                for idx, xs, xs_t, lanes, targets in chunks:
                    # `clip` writes straight into `out=`; `ClientGroups`
                    # has checked every index
                    take(idx, axis=0, out=xs, mode="clip")
                    for x, x_t, lane, tg in zip(xs, xs_t, lanes, targets):
                        if class_major:
                            matmul(t, x_t, out=probs)
                        else:
                            copyto(probs, matmul(x, t_fm).transpose(0, 2, 1))
                        max_reduce(probs, axis=1, keepdims=True, out=per_lane)
                        probs -= per_lane
                        exp(probs, out=probs)
                        add_reduce(probs, axis=1, keepdims=True, out=per_lane)
                        divide(lane, per_lane, out=per_lane)
                        probs *= per_lane
                        flat[tg] -= lane
                        matmul(probs, x, out=grad)
                        t -= grad

    return theta


def local_train(params: ModelParams, data: SyntheticDataset, cfg: TrainConfig):
    """Mini-batch SGD on all of `data`; returns (updated params, steps taken).

    The one-client case of `train_clients`, shuffled by `cfg.seed`, so
    fixed seeds give bit-identical trained parameters.  The step count is
    `steps_per_round`, the ledger's rule.
    """
    (trained,) = train_clients(params, data, [np.arange(data.num_samples)], cfg, [cfg.seed])
    return trained, steps_per_round(data.num_samples, cfg)


def evaluate(params: ModelParams, data: SyntheticDataset) -> float:
    """Fraction of argmax-correct predictions, computed in the dtype of
    `data.design` and `params`, one block of at most `EVAL_BYTES` at a time."""
    if data.num_samples == 0:
        raise EmptyClientData("cannot evaluate on empty client data")
    classes = len(params.weights)
    dtype = np.result_type(data.features, params.weights)
    rows = max(1, EVAL_BYTES // (classes * dtype.itemsize + 9))
    buf = np.empty((min(rows, data.num_samples), classes), dtype)
    correct = 0
    for lo in range(0, data.num_samples, rows):
        block = data.features[lo : lo + rows]
        logits = np.matmul(block, params.weights.T, out=buf[: len(block)])
        logits += params.bias
        correct += int(np.count_nonzero(np.argmax(logits, axis=1) == data.labels[lo : lo + rows]))
    return correct / data.num_samples


def update_payload_bytes(num_classes: int, num_features: int) -> int:
    """Bytes of one transmitted update of a `[num_classes, num_features]`
    model, weights then bias, under 32-bit serialization."""
    return (num_classes * num_features + num_classes) * FLOAT32_BYTES
