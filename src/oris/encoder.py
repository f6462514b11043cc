"""Agent state construction: document embedding + k-averaged per-class recency."""

from __future__ import annotations

from collections import deque

import numpy as np


class LastSeenTracker:
    """Ring buffers of the k most recent steps at which each class was emitted.

    Buffers start filled with step 0, so a fresh tracker read at step t gives
    a recency of t for every class, growing until the class is emitted again.
    The tracker holds no clock: the walker passes its stream position to
    every read and emission. Emissions are recorded only for picked
    documents; running sums give exact averages.
    """

    def __init__(self, num_classes: int, k: int = 3):
        if num_classes < 1:
            raise ValueError("need at least one class")
        if k < 1:
            raise ValueError(f"history depth k must be >= 1, got {k}")
        self.num_classes = num_classes
        self.k = k
        self._buffers = [deque([0] * k, maxlen=k) for _ in range(num_classes)]
        self._sums = [0] * num_classes

    def since_last(self, cls: int, step: int) -> int:
        """Steps from the class's latest recorded emission to step: the annotator's slip clock."""
        return step - self._buffers[cls][-1]

    def averages(self, step) -> np.ndarray:
        """Per class, the mean of (step - recorded step) over its buffer: a
        vector for one step, a (rows, classes) matrix for a (rows, 1) column
        of integer steps, whose rows are the vectors of those steps."""
        return (step * self.k - np.array(self._sums)) / self.k

    def record_emission(self, cls: int, step: int) -> None:
        """Push step into the class's buffer, evicting the oldest."""
        self._sums[cls] += step - self._buffers[cls][0]
        self._buffers[cls].append(step)


def encode_state(emb, tracker: LastSeenTracker, step, dt_scale: float = 1.0) -> np.ndarray:
    """Concatenate the document embedding with per-class averaged recency at step.

    The recency tail is divided by dt_scale (default 1, i.e. raw steps).
    Result length is always len(emb) + num_classes. A (rows, E) matrix of
    embeddings with a (rows, 1) column of steps gives the (rows, E + C)
    matrix of their states, row for row those of one embedding and step.
    """
    if not 0 < dt_scale < np.inf:
        raise ValueError(f"dt_scale must be finite and > 0, got {dt_scale}")
    return np.concatenate([emb, tracker.averages(step) / dt_scale], axis=-1)
