"""Inclusivity score (normalized label entropy over recent picks) and the agent reward.

A pick is rewarded by rho * exp(delta * (inclusivity - 1)), which deactivates
near-zero entropy windows and saturates at rho for a perfectly uniform one;
a discard earns the small constant lam. Entropy is normalized by log2(C) so
inclusivity lies in [0, 1] for any class count, keeping the pick reward inside
(rho * exp(-delta), rho].
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

DISCARD = 0
PICK = 1


@dataclass(frozen=True)
class RewardConfig:
    rho: float = 5.0
    delta: float = 8.0
    lam: float = 0.01
    m: int = 10

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.m < 1:
            raise ValueError(f"memory window m must be >= 1, got {self.m}")


class PickMemory:
    """Ring buffer of the emitted class labels of the last m picked documents."""

    def __init__(self, m: int, num_classes: int):
        if m < 1:
            raise ValueError(f"window size must be >= 1, got {m}")
        self.num_classes = num_classes
        self._window = deque(maxlen=m)

    def push(self, label: int) -> None:
        self._window.append(label)

    def labels(self) -> list[int]:
        return list(self._window)

    def __len__(self):
        return len(self._window)


def normalized_entropy(p) -> float:
    """Shannon entropy in bits of the probability vector p, divided by
    log2(len(p)) so it lies in [0, 1]."""
    nonzero = p[p > 0]
    return float(-(nonzero * np.log2(nonzero)).sum()) / math.log2(len(p))


def inclusivity(memory: PickMemory, num_classes: int) -> float:
    """Normalized entropy of the window's empirical class frequencies.
    Empty window -> 0. Windows shorter than m use frequencies over the
    actual length.
    """
    n = len(memory)
    if n == 0:
        return 0.0
    return normalized_entropy(np.bincount(memory.labels(), minlength=num_classes) / n)


def compute_reward(action: int, memory: PickMemory, cfg: RewardConfig) -> float:
    """Reward for one decision; for picks the memory must already contain the
    newly emitted label.
    """
    if action == PICK:
        return cfg.rho * math.exp(cfg.delta * (inclusivity(memory, memory.num_classes) - 1.0))
    return cfg.lam
