import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scalar_entropy_bits
from oris.reward import DISCARD, PICK, RewardConfig, compute_reward, inclusivity


def _pick_reward(window, cfg, num_classes=5):
    return compute_reward(PICK, inclusivity(window, num_classes), cfg)


def test_uniform_window_is_one():
    window = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert inclusivity(window, 5) == pytest.approx(1.0, abs=1e-12)


def test_single_class_window_is_zero():
    assert inclusivity([2] * 10, 5) == 0.0


def test_two_of_five_classes_half_half():
    window = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    assert inclusivity(window, 5) == pytest.approx(1.0 / math.log2(5), abs=1e-12)


def test_empty_memory_defined_as_zero():
    assert inclusivity([], 5) == 0.0


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_inclusivity_matches_plain_entropy_and_bounds(window):
    value = inclusivity(window, 5)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert value == pytest.approx(scalar_entropy_bits(window) / math.log2(5), abs=1e-12)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=10),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_inclusivity_permutation_and_relabel_invariant(window, rnd):
    shuffled = list(window)
    rnd.shuffle(shuffled)
    assert inclusivity(window, 5) == pytest.approx(inclusivity(shuffled, 5), abs=1e-12)
    relabel = list(range(5))
    rnd.shuffle(relabel)
    relabeled = [relabel[c] for c in window]
    assert inclusivity(window, 5) == pytest.approx(inclusivity(relabeled, 5), abs=1e-12)


def test_reward_endpoints():
    cfg = RewardConfig(rho=5.0, delta=8.0, lam=0.01, m=10)
    uniform = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert _pick_reward(uniform, cfg) == pytest.approx(5.0, abs=1e-12)
    single = [3] * 10
    assert _pick_reward(single, cfg) == pytest.approx(5.0 * math.exp(-8.0), abs=1e-12)
    assert _pick_reward(single, cfg) == pytest.approx(1.6773e-3, rel=1e-4)
    assert compute_reward(DISCARD, inclusivity(uniform, 5), cfg) == 0.01


def test_reward_strictly_increasing_in_inclusivity():
    cfg = RewardConfig()
    windows = [[0] * 10, [0] * 9 + [1], [0] * 7 + [1] * 3, [0] * 5 + [1] * 5,
               [0, 0, 0, 1, 1, 1, 2, 2, 3, 4], [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]]
    incls = [inclusivity(w, 5) for w in windows]
    rewards = [_pick_reward(w, cfg) for w in windows]
    assert incls == sorted(incls)
    assert all(a < b for a, b in zip(rewards, rewards[1:]))


def test_reward_bounds():
    cfg = RewardConfig()
    rng = np.random.default_rng(1)
    for _ in range(200):
        window = list(rng.integers(0, 5, size=rng.integers(1, 11)))
        r = _pick_reward(window, cfg)
        assert cfg.rho * math.exp(-cfg.delta) <= r <= cfg.rho


def test_short_window_uses_actual_length():
    # two picks, two classes: already maximally inclusive for C=2
    assert inclusivity([0, 1], 2) == pytest.approx(1.0)


def test_config_validation():
    for bad in (dict(rho=0.0), dict(delta=0.0), dict(lam=-0.1), dict(m=0)):
        with pytest.raises(ValueError):
            RewardConfig(**bad)


@pytest.mark.parametrize("name", ["rho", "delta", "lam"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_reward_config_refuses_a_non_finite_field(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RewardConfig(**{name: value})
