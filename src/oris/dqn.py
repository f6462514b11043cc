"""The sampling agent: replay buffer, epsilon-greedy policy, episode training
loop with soft target updates, and greedy inference decisions.

train_agent streams a shuffled copy of the corpus per training episode: a
pick queries an error-free annotator (so the learned policy is not tied to one
decay behavior), updates the pick window and recency tracker, and earns the
inclusivity reward. Training stores every step's transition and, once the
buffer holds a minibatch, performs one Q-update followed by a soft target
blend.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import astuple, dataclass, fields

import numpy as np

from .checks import check
from .corpus import write_csv
from .encoder import LastSeenTracker, encode_state
from .nnet import AdamState, DenseNet, optimizer_step, smooth_l1
from .reward import DISCARD, PICK, RewardConfig, compute_reward, inclusivity


class ReplayBuffer:
    """Fixed-capacity FIFO ring of (state, action, reward, next state) rows,
    sampled uniformly with replacement.

    Rows live in preallocated arrays; untouched pages of the state arrays
    cost no memory until the ring fills them.
    """

    def __init__(self, capacity: int, state_dim: int, seed=0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if state_dim < 1:
            raise ValueError(f"state_dim must be >= 1, got {state_dim}")
        self.capacity = capacity
        self.rng = np.random.default_rng(seed)
        self._states = np.empty((capacity, state_dim))
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity)
        self._next_states = np.empty((capacity, state_dim))
        self._size = 0
        self._write = 0

    def __len__(self):
        return self._size

    def push(self, state, action: int, reward: float, next_state) -> None:
        """Store one row, overwriting the oldest once the ring is full. A
        state or next_state not of shape (state_dim,) raises ValueError."""
        want = self._states.shape[1:]
        if np.shape(state) != want or np.shape(next_state) != want:
            raise ValueError(f"state and next_state must have shape {want}, got "
                             f"{np.shape(state)} and {np.shape(next_state)}")
        i = self._write
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._write = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        """(states, actions, rewards, next_states) of batch_size rows drawn
        uniformly with replacement, however few rows the ring holds."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        idx = self.rng.integers(0, self._size, size=batch_size)
        return self._states[idx], self._actions[idx], self._rewards[idx], self._next_states[idx]


@dataclass(frozen=True)
class AgentConfig:
    gamma: float = 0.99
    tau: float = 0.005
    minibatch: int = 512
    budget: int = 500
    episodes: int = 10000
    replay_capacity: int = 50000
    lr: float = 1e-4
    eps_start: float = 0.9
    eps_end: float = 0.05
    eps_decay: float = 5e-4
    hidden: tuple = (256, 256)

    def __post_init__(self):
        check(
            (not 0.0 <= self.gamma <= 1.0, f"gamma must be in [0, 1], got {self.gamma}"),
            (not 0.0 < self.tau <= 1.0, f"tau must be in (0, 1], got {self.tau}"),
            (self.minibatch < 1, f"minibatch must be >= 1, got {self.minibatch}"),
            (self.minibatch > self.replay_capacity,
             f"minibatch {self.minibatch} exceeds replay capacity {self.replay_capacity}"),
            (self.budget < 1 or self.episodes < 1, "budget and episodes must be >= 1"),
            (not 0.0 <= self.eps_end <= self.eps_start <= 1.0,
             "need 0 <= eps_end <= eps_start <= 1"),
            (not 0 <= self.eps_decay < math.inf,
             f"eps_decay must be finite and >= 0, got {self.eps_decay}"),
            (not 0 < self.lr < math.inf, f"lr must be finite and > 0, got {self.lr}"),
            (not self.hidden or any(h < 1 for h in self.hidden),
             f"hidden sizes must be positive, got {self.hidden}"),
        )

    def epsilon(self, step: int) -> float:
        """Exploration rate after step decisions: end + (start - end) * exp(-decay * step)."""
        return self.eps_end + (self.eps_start - self.eps_end) * math.exp(-self.eps_decay * step)


def decide(net: DenseNet, states) -> list[int]:
    """Greedy action per row of a (rows, in) state matrix, from that row's
    Q-values alone (DenseNet.forward_each); a tie goes to pick."""
    q_rows = net.forward_each(states).tolist()
    return [PICK if q[PICK] >= q[DISCARD] else DISCARD for q in q_rows]


def select_action(net: DenseNet, state, eps: float, rng) -> int:
    """Epsilon-greedy: uniform random action with probability eps, else the
    greedy decision on the state as one row."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(2))
    return decide(net, state[None])[0]


def train_step(source: DenseNet, target: DenseNet, batch, cfg: AgentConfig,
               opt: AdamState) -> float:
    """One Q-update on a (states, actions, rewards, next_states) batch, as
    ReplayBuffer.sample returns it: bootstrap targets from the target net,
    smooth-L1 on the taken action's Q-value, one optimizer step on the
    source net. Returns mean loss.
    """
    states, actions, rewards, next_states = batch
    n = len(actions)
    if not n:
        raise ValueError("empty batch")

    q_next = target.forward(next_states)
    targets = rewards + cfg.gamma * q_next.max(axis=1)

    q = source.forward(states)
    taken = q[np.arange(n), actions]
    loss, dpred = smooth_l1(taken, targets)
    grad_out = np.zeros_like(q)
    grad_out[np.arange(n), actions] = dpred / n
    source.backward(grad_out)
    optimizer_step(source, opt)
    return float(loss.mean())


def soft_update(source: DenseNet, target: DenseNet, tau: float) -> None:
    """target <- tau * source + (1 - tau) * target, elementwise."""
    if source.layer_sizes != target.layer_sizes:
        raise ValueError("source and target architectures differ")
    target.params *= 1.0 - tau
    target.params += tau * source.params


@dataclass
class EpisodeLog:
    episode: int
    total_reward: float
    mean_inclusivity: float
    epsilon: float
    loss: float
    truncated: bool


TRAINING_LOG_HEADER = [f.name for f in fields(EpisodeLog)]


def write_training_log(logs, path) -> None:
    write_csv(path, TRAINING_LOG_HEADER, map(astuple, logs))


def train_agent(docs, labels, cfg: AgentConfig, reward_cfg: RewardConfig = RewardConfig(),
                k: int = 3, dt_scale: float = 1.0, seed=0):
    """Run the full episode loop and return (trained net, per-episode log).

    Each episode streams a fresh shuffle of the corpus with error-free labels
    until the pick budget is exhausted (or the stream ends, in which case the
    episode is logged as truncated). Every step makes an epsilon-greedy
    decision, stores a transition, makes one Q-update once the buffer holds a
    minibatch, and blends the target. Document t's state reads the tracker at
    step t, and nothing changes the tracker before the next document is read,
    so a step's next state is the next step's state (the last document's is
    its own state). Epsilon decays with the count of decisions across episodes.
    """
    if not docs:
        raise ValueError("need a nonempty training corpus")
    num_classes = len(labels)
    state_dim = len(docs[0].embedding) + num_classes
    net_ss, shuffle_ss, action_ss, buffer_ss = np.random.SeedSequence(seed).spawn(4)
    net = DenseNet([state_dim, *cfg.hidden, 2], seed=net_ss)
    target = net.copy()
    opt = AdamState(net, lr=cfg.lr)
    buf = ReplayBuffer(cfg.replay_capacity, state_dim, seed=buffer_ss)
    action_rng = np.random.default_rng(action_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    logs: list[EpisodeLog] = []
    decisions = 0

    for episode in range(1, cfg.episodes + 1):
        order = shuffle_rng.permutation(len(docs))
        tracker = LastSeenTracker(num_classes, k)
        window = deque(maxlen=reward_cfg.m)
        picks = 0
        total_reward = 0.0
        incl_sum = 0.0
        losses: list[float] = []
        state = encode_state(docs[order[0]].embedding, tracker, 0, dt_scale)
        for t in range(len(order)):
            action = select_action(net, state, cfg.epsilon(decisions), action_rng)
            decisions += 1
            incl = None
            if action == PICK:
                picks += 1
                emitted = docs[order[t]].true_class
                window.append(emitted)
                tracker.record_emission(emitted, t)
                incl = inclusivity(window, num_classes)
                incl_sum += incl
            r = compute_reward(action, incl, reward_cfg)
            total_reward += r
            next_state = (encode_state(docs[order[t + 1]].embedding, tracker, t + 1, dt_scale)
                          if t + 1 < len(order) else state)
            buf.push(state, action, r, next_state)
            if len(buf) >= cfg.minibatch:
                losses.append(train_step(net, target, buf.sample(cfg.minibatch), cfg, opt))
            soft_update(net, target, cfg.tau)
            if picks >= cfg.budget:
                break
            state = next_state
        logs.append(EpisodeLog(
            episode=episode,
            total_reward=total_reward,
            mean_inclusivity=incl_sum / picks if picks else 0.0,
            epsilon=cfg.epsilon(decisions),
            loss=float(np.mean(losses)) if losses else 0.0,
            truncated=picks < cfg.budget,
        ))
    return net, logs
