"""Simulated annotator whose slip rate grows with time since a class was last labeled.

Two decay shapes are supported (plus an error-free "perfect" mode):

    sigmoid:      p(dt) = 1 / (1 + exp(-alpha * dt + beta))
    exponential:  p(dt) = min(1, exp(alpha * dt + beta))

The exponential form is clipped from above at 1 so it stays a probability;
as printed elsewhere with max() it would never fall below 1, contradicting
the decay behavior it is meant to model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check
from .corpus import Document
from .encoder import LastSeenTracker

DECAY_KINDS = ("sigmoid", "exponential", "perfect")


@dataclass(frozen=True)
class DecayModel:
    kind: str = "sigmoid"
    alpha: float = 0.3
    beta: float = 9.0

    def __post_init__(self):
        check(
            (self.kind not in DECAY_KINDS,
             f"unknown decay kind {self.kind!r}, expected one of {DECAY_KINDS}"),
            (self.kind != "perfect" and not 0 <= self.alpha < math.inf,
             f"alpha must be finite and >= 0, got {self.alpha}"),
            (self.kind != "perfect" and not math.isfinite(self.beta),
             f"beta must be finite, got {self.beta}"),
        )


def error_probability(model: DecayModel, dt) -> float:
    """Slip probability after dt steps since the class was last emitted."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if model.kind == "perfect":
        return 0.0
    if model.kind == "sigmoid":
        x = -model.alpha * dt + model.beta
        if x > 700.0:  # exp would overflow; probability is ~exp(-x)
            return math.exp(-x)
        return 1.0 / (1.0 + math.exp(x))
    x = model.alpha * dt + model.beta
    if x >= 0.0:
        return 1.0
    return math.exp(x)


class OracleState:
    """One annotator over one stream, reading recency and the class count
    from a shared tracker.

    The tracker records the step of every *emitted* label (the only signal
    an observer has), so the agent's state and the annotator's slips read
    the same recency; every class starts as just-seen at step 0.
    """

    def __init__(self, model: DecayModel, tracker: LastSeenTracker, seed=0):
        self.model = model
        self.tracker = tracker
        self.rng = np.random.default_rng(seed)

    def annotate(self, doc: Document, step: int) -> int:
        """Return a label for doc at stream position step: the true class, or
        with the decay-model's slip probability a uniformly random other
        class. Records whatever label was emitted in the tracker.
        """
        true, num_classes = doc.true_class, self.tracker.num_classes
        if not 0 <= true < num_classes:
            raise ValueError(f"document class {true} outside label space")
        p = error_probability(self.model, self.tracker.since_last(true, step))
        emitted = true
        if p > 0.0 and self.rng.random() < p:
            other = int(self.rng.integers(num_classes - 1))
            emitted = other + (other >= true)
        self.tracker.record_emission(emitted, step)
        return emitted
