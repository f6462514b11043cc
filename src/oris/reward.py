"""Inclusivity score (normalized label entropy over recent picks) and the agent reward.

Inclusivity is the normalized entropy of the labels of the last m picks, the
new one included; the episode that keeps that window computes it once per
pick and passes it to compute_reward. A pick is rewarded by
rho * exp(delta * (inclusivity - 1)), which deactivates near-zero entropy
windows and saturates at rho for a perfectly uniform one; a discard earns the
small constant lam. Entropy is normalized by log2(C) so inclusivity lies in
[0, 1] for any class count, keeping the pick reward inside
(rho * exp(-delta), rho].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check

DISCARD = 0
PICK = 1


@dataclass(frozen=True)
class RewardConfig:
    rho: float = 5.0
    delta: float = 8.0
    lam: float = 0.01
    m: int = 10

    def __post_init__(self):
        check(
            (not 0 < self.rho < math.inf, f"rho must be finite and > 0, got {self.rho}"),
            (not 0 < self.delta < math.inf, f"delta must be finite and > 0, got {self.delta}"),
            (not 0 <= self.lam < math.inf, f"lam must be finite and >= 0, got {self.lam}"),
            (self.m < 1, f"memory window m must be >= 1, got {self.m}"),
        )


def normalized_entropy(p) -> float:
    """Shannon entropy in bits of the probability vector p, divided by
    log2(len(p)) so it lies in [0, 1]."""
    nonzero = p[p > 0]
    return float(-(nonzero * np.log2(nonzero)).sum()) / math.log2(len(p))


def inclusivity(window, num_classes: int) -> float:
    """Normalized entropy of the empirical class frequencies of the picked
    labels in window. Empty window -> 0. Windows shorter than m use
    frequencies over the actual length.
    """
    n = len(window)
    if n == 0:
        return 0.0
    return normalized_entropy(np.bincount(window, minlength=num_classes) / n)


def compute_reward(action: int, incl: float | None, cfg: RewardConfig) -> float:
    """Reward for one decision; for a pick, incl is the inclusivity of the
    window that already holds the newly emitted label (discards ignore it).
    """
    if action == PICK:
        return cfg.rho * math.exp(cfg.delta * (incl - 1.0))
    return cfg.lam
