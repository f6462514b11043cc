import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceAdam,
    ReferenceNet,
    flatten_pairs,
    reference_soft_update,
    reference_train_agent,
    reference_train_step,
    scalar_entropy_bits,
)
from oris.corpus import Document, LabelSpace, generate_synthetic
from oris.dqn import (
    AgentConfig,
    EpisodeLog,
    ReplayBuffer,
    decide,
    select_action,
    soft_update,
    train_agent,
    train_step,
    write_training_log,
)
from oris.nnet import AdamState, DenseNet, load_checkpoint, save_checkpoint
from oris.reward import DISCARD, PICK, RewardConfig

LABELS2 = LabelSpace(["a", "b"])


def _transition(rng, dim=4):
    """(state, action, reward, next_state) with distinct random rows."""
    return (rng.standard_normal(dim), int(rng.integers(2)), float(rng.uniform(0, 5)),
            rng.standard_normal(dim))


def _batch(transitions):
    """The (states, actions, rewards, next_states) arrays that train_step takes."""
    states, actions, rewards, next_states = zip(*transitions)
    return np.stack(states), np.array(actions), np.array(rewards), np.stack(next_states)


def _stored(buf):
    """Every stored row as a hashable (state, action, reward, next_state)."""
    return {_row(buf._states[i], buf._actions[i], buf._rewards[i], buf._next_states[i])
            for i in range(len(buf))}


def _row(state, action, reward, next_state):
    return tuple(state), int(action), float(reward), tuple(next_state)


class _FixedNet:
    """Q-values q for every state."""

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)

    def forward_each(self, states):
        return np.tile(self.q, (len(states), 1))


class _StatesAreQValues:
    """A net whose Q-values are its input rows."""

    @staticmethod
    def forward_each(states):
        return np.asarray(states, dtype=float)


def test_decide_greedy_and_tie_to_pick():
    assert decide(_FixedNet([0.2, 0.9]), np.zeros((1, 2))) == [PICK]
    assert decide(_FixedNet([0.9, 0.2]), np.zeros((1, 2))) == [DISCARD]
    assert decide(_FixedNet([0.4, 0.4]), np.zeros((1, 2))) == [PICK]


def test_decide_reads_each_row():
    q = [[0.2, 0.9], [0.9, 0.2], [0.4, 0.4], [-1.0, -1.5], [0.0, 0.0]]
    assert decide(_StatesAreQValues, q) == [PICK, DISCARD, PICK, DISCARD, PICK]


def test_select_action_eps_zero_is_greedy():
    rng = np.random.default_rng(0)
    net = _FixedNet([0.9, 0.2])
    assert all(select_action(net, np.zeros(2), 0.0, rng) == DISCARD for _ in range(100))


def test_select_action_eps_one_is_uniform():
    rng = np.random.default_rng(1)
    net = _FixedNet([0.9, 0.2])  # greedy would always discard
    n = 10_000
    picks = sum(select_action(net, np.zeros(2), 1.0, rng) for _ in range(n))
    sigma = math.sqrt(n * 0.25)
    assert abs(picks - n / 2) <= 3 * sigma


def test_replay_fifo_eviction():
    rng = np.random.default_rng(2)
    buf = ReplayBuffer(capacity=2, state_dim=4, seed=0)
    first, second, third = (_transition(rng) for _ in range(3))
    buf.push(*first)
    buf.push(*second)
    buf.push(*third)
    assert len(buf) == 2
    kept = _stored(buf)
    assert _row(*first) not in kept
    assert {_row(*second), _row(*third)} <= kept


def test_replay_capacity_never_exceeded_and_order_fifo():
    rng = np.random.default_rng(3)
    buf = ReplayBuffer(capacity=5, state_dim=4, seed=0)
    items = [_transition(rng) for _ in range(12)]
    for i, t in enumerate(items):
        buf.push(*t)
        assert len(buf) <= 5
    assert _stored(buf) == {_row(*t) for t in items[-5:]}


def test_sample_single_item_buffer():
    rng = np.random.default_rng(4)
    buf = ReplayBuffer(capacity=10, state_dim=4, seed=0)
    only = _transition(rng)
    buf.push(*only)
    states, actions, rewards, next_states = buf.sample(8)
    assert len(actions) == 8  # with replacement, however few rows the ring holds
    assert all(_row(*row) == _row(*only) for row in zip(states, actions, rewards, next_states))


def test_sample_empty_raises():
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=3, state_dim=4, seed=0).sample(1)


def test_sample_uniform_with_replacement():
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(capacity=10, state_dim=4, seed=12)
    items = [_transition(rng) for _ in range(10)]
    for t in items:
        buf.push(*t)
    counts = {_row(*t): 0 for t in items}
    draws = 100_000
    for batch in iter(lambda: buf.sample(10), None):
        for row in zip(*batch):
            counts[_row(*row)] += 1
        draws -= 10
        if draws <= 0:
            break
    n = sum(counts.values())
    assert len(counts) == 10
    p = 1 / 10
    sigma = math.sqrt(n * p * (1 - p))
    for c in counts.values():
        assert abs(c - n * p) <= 3 * sigma


def test_replay_rejects_wrong_state_width():
    buf = ReplayBuffer(capacity=3, state_dim=4, seed=0)
    for state, next_state in ((np.zeros(5), np.zeros(5)), (np.zeros(1), np.zeros(4)),
                              (np.zeros(4), np.zeros(1)), (np.zeros((1, 4)), np.zeros(4)),
                              (np.zeros(4), np.zeros((1, 4)))):
        with pytest.raises(ValueError, match=re.escape(
                f"must have shape (4,), got {state.shape} and {next_state.shape}")):
            buf.push(state, 0, 0.0, next_state)
    assert len(buf) == 0
    for bad in (dict(capacity=0, state_dim=4), dict(capacity=3, state_dim=0)):
        with pytest.raises(ValueError):
            ReplayBuffer(**bad)


def test_epsilon_decays_from_start_to_end():
    cfg = AgentConfig()
    assert cfg.epsilon(0) == pytest.approx(0.9)
    values = [cfg.epsilon(step) for step in range(5000)]
    assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing
    assert all(0.05 <= v <= 0.9 for v in values)
    # half-life of (eps - end): ln 2 / 0.0005 ~ 1386.29 steps
    assert abs((cfg.epsilon(1386) - 0.05) - 0.85 / 2) < 1e-3


@pytest.mark.parametrize("start, end, decay", [(1.0, 0.1, 1e-2), (0.5, 0.5, 1e-3),
                                               (0.3, 0.0, 0.0), (0.2, 0.0, 2.0)])
def test_epsilon_reads_the_configs_eps_fields(start, end, decay):
    cfg = AgentConfig(eps_start=start, eps_end=end, eps_decay=decay)
    assert cfg.epsilon(0) == pytest.approx(start, abs=1e-15)
    for step in (1, 10, 250, 10_000):
        assert cfg.epsilon(step) == end + (start - end) * math.exp(-decay * step)
        assert end <= cfg.epsilon(step) <= start + 1e-15


def test_train_step_gamma_zero_regresses_to_rewards():
    rng = np.random.default_rng(42)
    dim = 4
    batch = _batch([_transition(rng, dim) for _ in range(16)])
    cfg = AgentConfig(gamma=0.0, minibatch=16, hidden=(32, 32), lr=1e-2)
    net = DenseNet([dim, 32, 32, 2], seed=7)
    target = net.copy()
    opt = AdamState(net, lr=cfg.lr)
    for _ in range(800):
        loss = train_step(net, target, batch, cfg, opt)
        assert loss >= 0.0
    states, actions, rewards, _ = batch
    q = net.forward(states)
    picked = q[np.arange(len(actions)), actions]
    mae = np.abs(picked - rewards).mean()
    assert mae < 1e-2


def test_train_step_duplicated_batch_equals_single_sample():
    rng = np.random.default_rng(6)
    t = _transition(rng)
    cfg = AgentConfig(gamma=0.5, minibatch=4, hidden=(8,), lr=1e-3)
    net_a = DenseNet([4, 8, 2], seed=1)
    net_b = net_a.copy()
    target = net_a.copy()
    opt_a = AdamState(net_a, lr=cfg.lr)
    opt_b = AdamState(net_b, lr=cfg.lr)
    loss_a = train_step(net_a, target, _batch([t] * 4), cfg, opt_a)
    loss_b = train_step(net_b, target, _batch([t]), cfg, opt_b)
    assert loss_a == pytest.approx(loss_b)
    for a, b in zip(net_a.weights + net_a.biases, net_b.weights + net_b.biases):
        assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("hidden", [(16,), (32, 24)])
@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_step_and_soft_update_bit_identical_to_reference(hidden, batch, seed):
    rng = np.random.default_rng(seed)
    dim = 6
    cfg = AgentConfig(gamma=0.9, tau=0.05, minibatch=batch, hidden=hidden, lr=1e-2)
    net = DenseNet([dim, *hidden, 2], seed=seed)
    target = net.copy()
    opt = AdamState(net, lr=cfg.lr)
    ref, ref_target = ReferenceNet(net), ReferenceNet(target)
    ref_opt = ReferenceAdam(net, lr=cfg.lr)
    for _ in range(20):
        if rng.random() < 0.75:  # a warm-up step blends the target without an update
            transitions = [_transition(rng, dim) for _ in range(batch)]
            loss = train_step(net, target, _batch(transitions), cfg, opt)
            assert loss == reference_train_step(ref, ref_target, transitions, cfg.gamma, ref_opt)
        soft_update(net, target, cfg.tau)
        reference_soft_update(ref, ref_target, cfg.tau)
    assert np.array_equal(net.params, flatten_pairs(zip(ref.weights, ref.biases)))
    assert np.array_equal(target.params, flatten_pairs(zip(ref_target.weights, ref_target.biases)))
    assert np.array_equal(opt.m, flatten_pairs(ref_opt.m))
    assert np.array_equal(opt.v, flatten_pairs(ref_opt.v))
    assert opt.step_count == ref_opt.step_count > 0


def test_soft_update_blend():
    src = DenseNet([2, 3, 2], seed=1)
    dst = DenseNet([2, 3, 2], seed=2)
    for w in src.weights:
        w[:] = 1.0
    for b in src.biases:
        b[:] = 1.0
    for w in dst.weights:
        w[:] = 0.0
    for b in dst.biases:
        b[:] = 0.0
    soft_update(src, dst, tau=0.005)
    assert np.allclose(dst.weights[0], 0.005)
    soft_update(src, dst, tau=1.0)
    assert np.allclose(dst.weights[0], 1.0)


def test_soft_update_converges_geometrically():
    src = DenseNet([2, 4, 2], seed=3)
    dst = DenseNet([2, 4, 2], seed=4)
    gaps = []
    for _ in range(3):
        for _ in range(200):
            soft_update(src, dst, tau=0.01)
        gaps.append(max(float(np.abs(a - b).max())
                        for a, b in zip(src.weights, dst.weights)))
    assert gaps[0] > gaps[1] > gaps[2]
    # after n updates the gap shrinks by (1 - tau)^n
    assert gaps[2] < gaps[0] * (0.99 ** 400) * 1.01


def test_soft_update_shape_mismatch():
    with pytest.raises(ValueError):
        soft_update(DenseNet([2, 3, 2], seed=0), DenseNet([2, 4, 2], seed=0), 0.5)


def test_train_agent_minimal_episode():
    docs = generate_synthetic(LABELS2, [10, 10], 2, 1.0, seed=0)
    cfg = AgentConfig(eps_start=1.0, eps_end=1.0, budget=1, episodes=1,
                      minibatch=4, replay_capacity=100, hidden=(8,))
    net, logs = train_agent(docs, LABELS2, cfg, RewardConfig(), seed=0)
    assert len(logs) == 1
    assert not logs[0].truncated  # exactly 1 pick happened
    assert logs[0].mean_inclusivity == 0.0  # single pick, single class window


def test_train_agent_refuses_non_finite_dt_scale():
    # NaN states would train a net of non-finite params to a NaN loss
    docs = generate_synthetic(LABELS2, [10, 10], 2, 1.0, seed=0)
    cfg = AgentConfig(budget=2, episodes=1, minibatch=4, replay_capacity=100, hidden=(8,))
    with pytest.raises(ValueError, match="dt_scale must be finite and > 0"):
        train_agent(docs, LABELS2, cfg, k=2, dt_scale=float("nan"))


def test_train_agent_budget_accounting():
    # a stream of 60 docs easily covers a budget of 5 picks per episode,
    # so every episode must stop at the budget (no truncation)
    docs = generate_synthetic(LABELS2, [30, 30], 2, 1.0, seed=1)
    cfg = AgentConfig(eps_start=1.0, eps_end=1.0, budget=5, episodes=3,
                      minibatch=4, replay_capacity=100, hidden=(8,))
    net, logs = train_agent(docs, LABELS2, cfg, RewardConfig(), seed=3)
    assert len(logs) == 3
    assert all(not row.truncated for row in logs)


def test_train_agent_truncates_on_short_stream():
    docs = generate_synthetic(LABELS2, [2, 2], 2, 1.0, seed=2)
    cfg = AgentConfig(eps_start=0.0, eps_end=0.0, budget=50, episodes=2,
                      minibatch=2, replay_capacity=100, hidden=(8,))
    net, logs = train_agent(docs, LABELS2, cfg, RewardConfig(), seed=0)
    assert all(row.truncated for row in logs)


def test_train_agent_deterministic_log(tmp_path):
    docs = generate_synthetic(LABELS2, [20, 20], 2, 5.0, seed=4)
    cfg = AgentConfig(budget=5, episodes=4, minibatch=8, replay_capacity=200, hidden=(8, 8))
    paths = []
    for run in range(2):
        net, logs = train_agent(docs, LABELS2, cfg, RewardConfig(), seed=77)
        path = tmp_path / f"log{run}.csv"
        write_training_log(logs, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_write_training_log_exact_bytes(tmp_path):
    logs = [EpisodeLog(episode=1, total_reward=-3.25, mean_inclusivity=0.0, epsilon=0.9,
                       loss=2.0 / 3.0, truncated=False),
            EpisodeLog(episode=np.int64(2), total_reward=np.float64(0.9999996),
                       mean_inclusivity=np.float64(1.0 / 3.0), epsilon=np.float64(0.0500004),
                       loss=0.0, truncated=True)]
    path = tmp_path / "log.csv"
    write_training_log(logs, path)
    assert path.read_bytes() == (
        b"episode,total_reward,mean_inclusivity,epsilon,loss,truncated\r\n"
        b"1,-3.250000,0.000000,0.900000,0.666667,0\r\n"
        b"2,1.000000,0.333333,0.050000,0.000000,1\r\n"
    )


def test_decide_checkpoint_round_trip_preserves_decisions(tmp_path):
    rng = np.random.default_rng(9)
    net = DenseNet([6, 16, 16, 2], seed=5)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    again = load_checkpoint(path)
    states = rng.standard_normal((1000, 6))
    assert decide(net, states) == decide(again, states)


def test_agent_config_validation():
    for bad in (dict(gamma=1.5), dict(tau=0.0), dict(minibatch=0),
                dict(minibatch=100, replay_capacity=10), dict(eps_start=0.2, eps_end=0.5),
                dict(hidden=())):
        with pytest.raises(ValueError):
            AgentConfig(**bad)


@pytest.mark.parametrize("name", ["gamma", "tau", "lr", "eps_start", "eps_end", "eps_decay"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_agent_config_refuses_a_non_finite_field(name, value):
    with pytest.raises(ValueError, match=name):
        AgentConfig(**{name: value})


LABELS3 = LabelSpace(["a", "b", "c"])


@pytest.mark.parametrize("budget", [5, 40])
@pytest.mark.parametrize("dt_scale", [1.0, 2.0])
@pytest.mark.parametrize("m", [1, 4, 10])
@pytest.mark.parametrize("k", [1, 3])
def test_train_agent_matches_reference_loop(k, m, dt_scale, budget):
    # 30 documents: budget 5 is reached every episode, budget 40 truncates every
    # one; the minibatch of 20 transitions is reached after episode 1 at budget 5
    # and inside it at budget 40
    docs = generate_synthetic(LABELS3, [10, 12, 8], 3, 2.0, seed=k + m)
    cfg = AgentConfig(budget=budget, episodes=4, minibatch=20, replay_capacity=200,
                      lr=1e-2, eps_decay=0.05, hidden=(8,))
    reward_cfg = RewardConfig(m=m)
    net, logs = train_agent(docs, LABELS3, cfg, reward_cfg, k=k, dt_scale=dt_scale, seed=11)
    ref_net, ref_logs = reference_train_agent(docs, LABELS3, cfg, reward_cfg, k=k,
                                              dt_scale=dt_scale, seed=11)
    assert np.array_equal(net.params, ref_net.params)
    assert logs == ref_logs
    assert all(row.truncated == (budget == 40) for row in logs)
    assert (logs[0].loss == 0.0) == (budget == 5)
    assert logs[-1].loss != 0.0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_episode_steps_budget_rewards_and_state_carry(data):
    # one episode whose minibatch exceeds the stream, so no Q-update runs; the
    # actions follow a drawn script, and document i embeds as np.full(2, i), so
    # each pushed state names the document it was read from
    num_classes = data.draw(st.integers(2, 4), label="num_classes")
    true = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=1, max_size=25),
                     label="true classes")
    n = len(true)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    budget = data.draw(st.integers(1, 30), label="budget")
    script = data.draw(st.lists(st.sampled_from([DISCARD, PICK]), min_size=n, max_size=n),
                       label="actions")
    reward_cfg = RewardConfig(m=data.draw(st.integers(1, 12), label="m"))
    docs = [Document(i, c, np.full(2, float(i))) for i, c in enumerate(true)]
    labels = LabelSpace([f"c{c}" for c in range(num_classes)])
    cfg = AgentConfig(budget=budget, episodes=1, minibatch=26, replay_capacity=26, hidden=(2,))
    chosen_on = []

    def scripted(net, state, eps, rng):
        chosen_on.append(state)
        return script[len(chosen_on) - 1]

    with (patch("oris.dqn.select_action", side_effect=scripted),
          patch.object(ReplayBuffer, "push", autospec=True,
                       side_effect=ReplayBuffer.push) as push):
        _, logs = train_agent(docs, labels, cfg, reward_cfg, k=2, seed=seed)
    steps = [c.args[1:] for c in push.call_args_list]

    pick_steps = [t for t, action in enumerate(script) if action == PICK]
    expected_steps = pick_steps[budget - 1] + 1 if len(pick_steps) >= budget else n
    assert len(steps) == len(chosen_on) == min(n, expected_steps)
    picks = sum(action == PICK for _, action, _, _ in steps)
    assert picks <= budget
    picked = []
    incls = []
    for t, (state, action, reward, next_state) in enumerate(steps):
        assert action == script[t]
        assert state is chosen_on[t]
        if action == PICK:
            picked.append(true[int(state[0])])
            h = scalar_entropy_bits(picked[-reward_cfg.m:]) / math.log2(num_classes)
            incls.append(h)
            assert reward == pytest.approx(
                reward_cfg.rho * math.exp(reward_cfg.delta * (h - 1.0)), rel=1e-12, abs=1e-15)
        else:
            assert reward == reward_cfg.lam
        if t + 1 < len(steps):
            assert np.array_equal(next_state, steps[t + 1][0])
    if len(steps) == n:
        assert steps[-1][3] is steps[-1][0]
    read = [int(state[0]) for state, *_ in steps]
    assert len(set(read)) == len(read)
    [log] = logs
    assert log.total_reward == sum(reward for _, _, reward, _ in steps)
    assert log.mean_inclusivity == pytest.approx(np.mean(incls) if incls else 0.0, abs=1e-12)
    assert log.truncated == (picks < budget)
