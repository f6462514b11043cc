"""Flat dotted-key configuration files and the fully-defaulted experiment config.

Format: one `section.key = value` per line; `#` starts a comment. Lists are
comma-separated. Every key is optional — an empty file yields the default
experiment — and unknown keys are rejected with every problem reported at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checks import CheckError, collect
from .corpus import LabelSpace
from .dqn import AgentConfig
from .harness import AGENT_KINDS, HarnessConfig
from .oracle import DECAY_KINDS, DecayModel
from .reward import RewardConfig


class ConfigError(ValueError):
    """Carries every validation problem found in one parse."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


def _parse_str_list(raw):
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _parse_int_list(raw):
    return [int(part) for part in _parse_str_list(raw)]


def _parse_float_or_auto(raw):
    if raw.lower() == "auto":
        return None
    return float(raw)


def _parse_int_or_auto(raw):
    if raw.lower() == "auto":
        return None
    return int(raw)


def _parse_choice(options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw
    return parse


# key -> (parser, default)
_SCHEMA = {
    "data.train": (str, None),
    "data.test": (str, None),
    "data.rl_train": (str, None),
    "data.vectors": (str, None),
    "data.classes": (_parse_str_list, ["c0", "c1", "c2", "c3", "c4"]),
    "seeds": (_parse_int_list, [1, 2, 3, 4, 5]),
    "oracle.kind": (_parse_choice(DECAY_KINDS), "sigmoid"),
    "oracle.alpha": (float, 0.3),
    "oracle.beta": (float, 9.0),
    "encoder.k": (int, 3),
    "encoder.dt_scale": (float, 1.0),
    "reward.rho": (float, 5.0),
    "reward.delta": (float, 8.0),
    "reward.lambda": (float, 0.01),
    "reward.m": (int, 10),
    "agent.gamma": (float, 0.99),
    "agent.tau": (float, 0.005),
    "agent.minibatch": (int, 512),
    "agent.budget": (int, 500),
    "agent.episodes": (int, 10000),
    "agent.replay_capacity": (int, 50000),
    "agent.warmup": (_parse_int_or_auto, None),
    "agent.lr": (float, 1e-4),
    "agent.eps_start": (float, 0.9),
    "agent.eps_end": (float, 0.05),
    "agent.eps_decay": (float, 5e-4),
    "agent.hidden": (_parse_int_list, [256, 256]),
    "harness.agent": (_parse_choice(AGENT_KINDS), "random"),
    "harness.budget": (int, 500),
    "harness.update_freq": (int, 25),
    "harness.pick_prob": (_parse_float_or_auto, None),
    "harness.theta0": (float, 0.5),
    "harness.diversity_cap": (int, 5000),
    "learner.epochs": (int, 50),
    "learner.batch": (int, 32),
    "learner.lr": (float, 0.1),
    "synth.train_per_class": (_parse_int_list, []),
    "synth.test_per_class": (_parse_int_list, []),
    "synth.rl_per_class": (_parse_int_list, []),
    "synth.dim": (int, 8),
    "synth.sep": (float, 5.0),
    "synth.seed": (int, 7),
}


@dataclass
class ExperimentConfig:
    """Validated union of every module's settings plus data paths and seeds."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    @property
    def seeds(self):
        return list(self.values["seeds"])

    @property
    def classes(self):
        return list(self.values["data.classes"])

    def label_space(self) -> LabelSpace:
        return LabelSpace(self.classes)

    def decay_model(self) -> DecayModel:
        return DecayModel(kind=self.values["oracle.kind"],
                          alpha=self.values["oracle.alpha"],
                          beta=self.values["oracle.beta"])

    def reward_config(self) -> RewardConfig:
        return RewardConfig(rho=self.values["reward.rho"],
                            delta=self.values["reward.delta"],
                            lam=self.values["reward.lambda"],
                            m=self.values["reward.m"])

    def agent_config(self) -> AgentConfig:
        return AgentConfig(
            gamma=self.values["agent.gamma"],
            tau=self.values["agent.tau"],
            minibatch=self.values["agent.minibatch"],
            budget=self.values["agent.budget"],
            episodes=self.values["agent.episodes"],
            replay_capacity=self.values["agent.replay_capacity"],
            warmup=self.values["agent.warmup"],
            lr=self.values["agent.lr"],
            eps_start=self.values["agent.eps_start"],
            eps_end=self.values["agent.eps_end"],
            eps_decay=self.values["agent.eps_decay"],
            hidden=tuple(self.values["agent.hidden"]),
        )

    def harness_config(self, agent: str | None = None) -> HarnessConfig:
        # built apart, so an invalid class list or oracle hides no harness check
        problems = []
        labels = collect(problems, self.label_space)
        oracle = collect(problems, self.decay_model)
        cfg = collect(
            problems, HarnessConfig,
            labels=labels,
            agent=agent if agent is not None else self.values["harness.agent"],
            budget=self.values["harness.budget"],
            update_freq=self.values["harness.update_freq"],
            seeds=tuple(self.seeds),
            oracle=oracle,
            k=self.values["encoder.k"],
            dt_scale=self.values["encoder.dt_scale"],
            pick_prob=self.values["harness.pick_prob"],
            theta0=self.values["harness.theta0"],
            diversity_cap=self.values["harness.diversity_cap"],
            learner_epochs=self.values["learner.epochs"],
            learner_batch=self.values["learner.batch"],
            learner_lr=self.values["learner.lr"],
        )
        if problems:
            raise CheckError(problems)
        return cfg


def _read_pairs(path):
    pairs = []
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                problems.append(f"line {lineno}: expected 'key = value', got {body!r}")
                continue
            key, raw = body.split("=", 1)
            pairs.append((lineno, key.strip(), raw.strip()))
    return pairs, problems


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a config file; every invalid key/value is listed
    in the raised ConfigError. Missing keys take their defaults.
    """
    pairs, problems = _read_pairs(path)
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    explicit = set()
    for lineno, key, raw in pairs:
        if key not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in explicit:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            reason = str(exc) or "unparseable value"
            problems.append(f"line {lineno}: bad value for {key}: {raw!r} ({reason})")
            continue
        explicit.add(key)

    cfg = ExperimentConfig(values=values)
    # Constraint validation is delegated to the component configs, each of
    # which reports all of its problems; harness_config also reports those
    # of the label space and the decay model it builds.
    for build in (cfg.reward_config, cfg.agent_config, cfg.harness_config):
        collect(problems, build)
    if values["oracle.kind"] == "exponential" and values["oracle.beta"] >= 0:
        # alpha, dt >= 0, so alpha * dt + beta >= 0: every label would slip
        problems.append(
            f"oracle.beta must be < 0 for the exponential oracle, got {values['oracle.beta']}"
        )
    if values["synth.sep"] < 0:
        problems.append(f"synth.sep must be >= 0, got {values['synth.sep']}")
    if values["synth.dim"] < 1:
        problems.append(f"synth.dim must be >= 1, got {values['synth.dim']}")

    if problems:
        raise ConfigError(problems)
    return cfg


def default_config() -> ExperimentConfig:
    return ExperimentConfig(values={key: default for key, (_, default) in _SCHEMA.items()})
