"""The sampling agent: replay buffer, epsilon-greedy policy, episode training
loop with soft target updates, and greedy inference decisions.

Training streams shuffled copies of the corpus; a pick queries an error-free
annotator (so the learned policy is not tied to one decay behavior), updates
the pick window and recency tracker, and earns the inclusivity reward. Every
step stores a transition and, once the buffer has warmed up, performs one
Q-update followed by a soft target blend.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .encoder import LastSeenTracker, encode_state
from .nnet import AdamState, DenseNet, optimizer_step, smooth_l1
from .reward import DISCARD, PICK, PickMemory, RewardConfig, compute_reward, inclusivity


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
        """Store one row, overwriting the oldest once the ring is full."""
        i = self._write
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._write = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int):
        """(states, actions, rewards, next_states) of min(batch_size, len)
        rows drawn uniformly with replacement."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        n = min(batch_size, self._size)
        idx = self.rng.integers(0, self._size, size=n)
        return self._states[idx], self._actions[idx], self._rewards[idx], self._next_states[idx]


@dataclass
class EpsilonSchedule:
    """Exploration rate end + (start - end) * exp(-decay * step)."""

    start: float = 0.9
    end: float = 0.05
    decay: float = 5e-4
    step: int = 0

    def value(self) -> float:
        return self.end + (self.start - self.end) * math.exp(-self.decay * self.step)

    def advance(self) -> None:
        self.step += 1


@dataclass
class AgentConfig:
    gamma: float = 0.99
    tau: float = 0.005
    minibatch: int = 512
    budget: int = 500
    episodes: int = 10000
    replay_capacity: int = 50000
    warmup: int | None = None  # None -> minibatch size
    lr: float = 1e-4
    eps_start: float = 0.9
    eps_end: float = 0.05
    eps_decay: float = 5e-4
    hidden: tuple = (256, 256)

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.minibatch < 1:
            raise ValueError(f"minibatch must be >= 1, got {self.minibatch}")
        if self.minibatch > self.replay_capacity:
            raise ValueError(
                f"minibatch {self.minibatch} exceeds replay capacity {self.replay_capacity}"
            )
        if self.budget < 1 or self.episodes < 1:
            raise ValueError("budget and episodes must be >= 1")
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ValueError("need 0 <= eps_end <= eps_start <= 1")
        if self.eps_decay < 0 or self.lr <= 0:
            raise ValueError("eps_decay must be >= 0 and lr > 0")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden sizes must be positive, got {self.hidden}")

    def resolved_warmup(self) -> int:
        return self.minibatch if self.warmup is None else max(1, self.warmup)


def decide(net: DenseNet, state) -> int:
    """Greedy action from the Q-values; a tie goes to pick."""
    q = net.forward(state)
    return PICK if q[PICK] >= q[DISCARD] else DISCARD


def select_action(net: DenseNet, state, eps: float, rng) -> int:
    """Epsilon-greedy: uniform random action with probability eps, else greedy."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(2))
    return decide(net, state)


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
    grads = source.backward(states, grad_out)
    optimizer_step(source, grads, opt)
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


TRAINING_LOG_HEADER = ["episode", "total_reward", "mean_inclusivity", "epsilon", "loss", "truncated"]


def write_training_log(logs, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAINING_LOG_HEADER)
        for row in logs:
            writer.writerow([
                row.episode,
                f"{row.total_reward:.6f}",
                f"{row.mean_inclusivity:.6f}",
                f"{row.epsilon:.6f}",
                f"{row.loss:.6f}",
                int(row.truncated),
            ])


def train_agent(docs, labels, cfg: AgentConfig, reward_cfg: RewardConfig | None = None,
                k: int = 3, dt_scale: float = 1.0, seed=0):
    """Run the full episode loop and return (trained net, per-episode log).

    Per episode: reshuffle the corpus, reset the pick window and recency
    tracker, and stream documents until the pick budget is exhausted (or the
    stream ends, in which case the episode is logged as truncated). Labels
    come from an error-free annotator during training. Epsilon decays per
    global environment step across episodes.
    """
    if not docs:
        raise ValueError("need a nonempty training corpus")
    reward_cfg = reward_cfg if reward_cfg is not None else RewardConfig()
    num_classes = len(labels)
    emb_dim = len(docs[0].embedding)
    net_ss, shuffle_ss, action_ss, buffer_ss = np.random.SeedSequence(seed).spawn(4)
    net = DenseNet([emb_dim + num_classes, *cfg.hidden, 2], seed=net_ss)
    target = net.copy()
    opt = AdamState(net, lr=cfg.lr)
    buf = ReplayBuffer(cfg.replay_capacity, emb_dim + num_classes, seed=buffer_ss)
    sched = EpsilonSchedule(cfg.eps_start, cfg.eps_end, cfg.eps_decay)
    action_rng = np.random.default_rng(action_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    warmup = cfg.resolved_warmup()
    n = len(docs)
    logs: list[EpisodeLog] = []

    for episode in range(1, cfg.episodes + 1):
        order = shuffle_rng.permutation(n)
        tracker = LastSeenTracker(num_classes, k)
        memory = PickMemory(reward_cfg.m, num_classes)
        picks = 0
        total_reward = 0.0
        incl_sum = 0.0
        losses: list[float] = []
        state = encode_state(docs[order[0]].embedding, tracker, dt_scale)
        for t in range(n):
            doc = docs[order[t]]
            eps = sched.value()
            sched.advance()
            action = select_action(net, state, eps, action_rng)
            if action == PICK:
                picks += 1
                emitted = doc.true_class  # error-free annotator during training
                memory.push(emitted)
                tracker.record_emission(emitted)
                incl_sum += inclusivity(memory, num_classes)
            r = compute_reward(action, memory, reward_cfg)
            total_reward += r
            tracker.advance_step()
            # nothing changes the tracker before the next document is read,
            # so next_state is also that step's state
            if t + 1 < n:
                next_state = encode_state(docs[order[t + 1]].embedding, tracker, dt_scale)
            else:
                next_state = state
            buf.push(state, action, r, next_state)
            if len(buf) >= warmup:
                losses.append(train_step(net, target, buf.sample(cfg.minibatch), cfg, opt))
            soft_update(net, target, cfg.tau)
            state = next_state
            if picks >= cfg.budget:
                break
        logs.append(EpisodeLog(
            episode=episode,
            total_reward=total_reward,
            mean_inclusivity=incl_sum / picks if picks else 0.0,
            epsilon=sched.value(),
            loss=float(np.mean(losses)) if losses else 0.0,
            truncated=picks < cfg.budget,
        ))
    return net, logs


def evaluate_policy(docs, labels, cfg: AgentConfig, reward_cfg: RewardConfig | None = None,
                    k: int = 3, dt_scale: float = 1.0, seed=0, episodes: int = 50,
                    net: DenseNet | None = None):
    """Measure per-episode total reward without learning.

    Greedy decisions when a net is given, uniform random actions otherwise;
    same episode mechanics as training (error-free labels, budget cutoff).
    Returns the list of episode totals.
    """
    reward_cfg = reward_cfg if reward_cfg is not None else RewardConfig()
    num_classes = len(labels)
    shuffle_ss, action_ss = np.random.SeedSequence(seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    action_rng = np.random.default_rng(action_ss)
    n = len(docs)
    totals = []
    for _ in range(episodes):
        order = shuffle_rng.permutation(n)
        tracker = LastSeenTracker(num_classes, k)
        memory = PickMemory(reward_cfg.m, num_classes)
        picks = 0
        total = 0.0
        for t in range(n):
            doc = docs[order[t]]
            if net is None:
                action = int(action_rng.integers(2))
            else:
                action = decide(net, encode_state(doc.embedding, tracker, dt_scale))
            if action == PICK:
                picks += 1
                memory.push(doc.true_class)
                tracker.record_emission(doc.true_class)
            total += compute_reward(action, memory, reward_cfg)
            tracker.advance_step()
            if picks >= cfg.budget:
                break
        totals.append(total)
    return totals
