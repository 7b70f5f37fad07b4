"""A fixed SGD loop that tells how fast the machine runs right now.

The machine the bounds were set on is a shared 2-core VM whose cores slow
down together by up to 1.5x, in phases lasting from seconds to tens of
minutes (see README.md). Raw op times then differ between two sets of runs
of the same code by more than any usable bound. So the benchmark times
this loop next to every op and every set-up repetition and reports those
times scaled to the speed at which the loop takes its reference time:

    reference seconds = wall seconds * REFERENCE_S / (loop seconds now)

The loop is a frozen copy of greenfl's mini-batch softmax SGD step at a
workload's batch shape, so the machine's phases slow it the way they slow
the op. It uses no greenfl code: a change to greenfl never moves it.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter

import numpy as np

# Samples in the loop's fixed dataset; batches cycle through it.
SAMPLES = 6000


@dataclasses.dataclass(frozen=True)
class Shape:
    batch: int
    features: int
    classes: int
    steps: int  # SGD steps per timing
    reference_s: float  # about the median seconds of one timing on the machine the bounds were set on


class Calibration:
    def __init__(self, shape: Shape):
        self.shape = shape
        rng = np.random.default_rng(0)
        self.features = rng.standard_normal((SAMPLES, shape.features))
        self.labels = rng.integers(0, shape.classes, SAMPLES)
        self.order = rng.permutation(SAMPLES)

    def time(self) -> float:
        """Wall seconds of one fixed run of the loop."""
        s = self.shape
        weights = np.zeros((s.classes, s.features))
        bias = np.zeros(s.classes)
        started = perf_counter()
        for step in range(s.steps):
            lo = step * s.batch % (SAMPLES - s.batch)
            batch = self.order[lo : lo + s.batch]
            x, y = self.features[batch], self.labels[batch]
            logits = x @ weights.T + bias
            exp = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs = exp / exp.sum(axis=1, keepdims=True)
            probs[np.arange(s.batch), y] -= 1.0
            weights -= 0.05 * (probs.T @ x / s.batch)
            bias -= 0.05 * probs.mean(axis=0)
        return perf_counter() - started

    def scale(self, wall_s: float, loop_s: float) -> float:
        """Wall seconds measured while the loop took loop_s, in reference seconds."""
        return wall_s * self.shape.reference_s / loop_s
