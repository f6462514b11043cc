"""Agent state construction: document embedding + k-averaged per-class recency."""

from __future__ import annotations

from collections import deque

import numpy as np


class LastSeenTracker:
    """Ring buffers of the k most recent steps at which each class was emitted.

    Buffers start filled with step 0, so a fresh tracker reads a recency of 0
    for every class and the value grows until the class is emitted again.
    Emissions are recorded only for picked documents; the step counter
    counts stream documents, one advance_step at a time or, past documents
    that no one reads it for, in one advance_to; running sums give exact
    averages.
    """

    def __init__(self, num_classes: int, k: int = 3):
        if num_classes < 1:
            raise ValueError("need at least one class")
        if k < 1:
            raise ValueError(f"history depth k must be >= 1, got {k}")
        self.num_classes = num_classes
        self.k = k
        self.current_step = 0
        self._buffers = [deque([0] * k, maxlen=k) for _ in range(num_classes)]
        self._sums = [0] * num_classes

    def since_last(self, cls: int) -> int:
        """Steps since the class's most recent recorded emission: the annotator's slip clock."""
        return self.current_step - self._buffers[cls][-1]

    def averages(self) -> np.ndarray:
        """Per class, the mean of (current_step - recorded step) over its buffer."""
        return (self.current_step * self.k - np.array(self._sums)) / self.k

    def record_emission(self, cls: int) -> None:
        """Push the current step into the class's buffer, evicting the oldest."""
        self._sums[cls] += self.current_step - self._buffers[cls][0]
        self._buffers[cls].append(self.current_step)

    def advance_step(self) -> None:
        self.current_step += 1

    def advance_to(self, step: int) -> None:
        """Move the step counter forward to step: the same as step -
        current_step calls of advance_step, in one assignment."""
        if step < self.current_step:
            raise ValueError(f"cannot move the step back from {self.current_step} to {step}")
        self.current_step = step


def encode_state(emb, tracker: LastSeenTracker, dt_scale: float = 1.0) -> np.ndarray:
    """Concatenate the document embedding with per-class averaged recency.

    The recency tail is divided by dt_scale (default 1, i.e. raw steps).
    Result length is always len(emb) + num_classes.
    """
    if dt_scale <= 0:
        raise ValueError(f"dt_scale must be > 0, got {dt_scale}")
    return np.concatenate([emb, tracker.averages() / dt_scale])
