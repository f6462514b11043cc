"""Flat dotted-key configuration files and the fully-defaulted experiment config.

Format: one `section.key = value` per line; `#` starts a comment. Lists are
comma-separated and parse to tuples. Every key is optional — an empty file
yields the default experiment — and unknown keys are rejected with every
problem reported at once.

One table, _SCHEMA, maps each key to its parser and to the field it sets of a
component config (DecayModel, RewardConfig, AgentConfig or HarnessConfig).
That field's default is the key's, so the CLI and a direct caller of the
components run the same experiment. Only the data.* and synth.* keys, which
no component reads, carry a literal default.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .checks import CheckError, collect
from .corpus import LabelSpace
from .dqn import AgentConfig
from .harness import AGENT_KINDS, HarnessConfig
from .oracle import DECAY_KINDS, DecayModel, error_probability
from .reward import RewardConfig


class ConfigError(ValueError):
    """Carries every validation problem found in one parse."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


def _parse_str_list(raw):
    items = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _parse_int_list(raw):
    return tuple(int(part) for part in _parse_str_list(raw))


def _parse_float(raw):
    """float(raw), refusing NaN and infinities: no key is meant to take them,
    and NaN fails every comparison, so it would slip past range checks."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _or_auto(parse):
    def parse_or_auto(raw):
        return None if raw.lower() == "auto" else parse(raw)
    return parse_or_auto


def _parse_choice(options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return raw
    return parse


# key -> (parser, component, field): the key sets that field of the component
# class, and the field's default is the key's. A key that no component reads
# has component None and its literal default in place of the field.
_SCHEMA = {
    "data.train": (str, None, None),
    "data.test": (str, None, None),
    "data.rl_train": (str, None, None),
    "data.vectors": (str, None, None),
    "data.classes": (_parse_str_list, None, ("c0", "c1", "c2", "c3", "c4")),
    "seeds": (_parse_int_list, HarnessConfig, "seeds"),
    "oracle.kind": (_parse_choice(DECAY_KINDS), DecayModel, "kind"),
    "oracle.alpha": (_parse_float, DecayModel, "alpha"),
    "oracle.beta": (_parse_float, DecayModel, "beta"),
    "encoder.k": (int, HarnessConfig, "k"),
    "encoder.dt_scale": (_parse_float, HarnessConfig, "dt_scale"),
    "reward.rho": (_parse_float, RewardConfig, "rho"),
    "reward.delta": (_parse_float, RewardConfig, "delta"),
    "reward.lambda": (_parse_float, RewardConfig, "lam"),
    "reward.m": (int, RewardConfig, "m"),
    "agent.gamma": (_parse_float, AgentConfig, "gamma"),
    "agent.tau": (_parse_float, AgentConfig, "tau"),
    "agent.minibatch": (int, AgentConfig, "minibatch"),
    "agent.budget": (int, AgentConfig, "budget"),
    "agent.episodes": (int, AgentConfig, "episodes"),
    "agent.replay_capacity": (int, AgentConfig, "replay_capacity"),
    "agent.lr": (_parse_float, AgentConfig, "lr"),
    "agent.eps_start": (_parse_float, AgentConfig, "eps_start"),
    "agent.eps_end": (_parse_float, AgentConfig, "eps_end"),
    "agent.eps_decay": (_parse_float, AgentConfig, "eps_decay"),
    "agent.hidden": (_parse_int_list, AgentConfig, "hidden"),
    "harness.agent": (_parse_choice(AGENT_KINDS), HarnessConfig, "agent"),
    "harness.budget": (int, HarnessConfig, "budget"),
    "harness.update_freq": (int, HarnessConfig, "update_freq"),
    "harness.pick_prob": (_or_auto(_parse_float), HarnessConfig, "pick_prob"),
    "harness.theta0": (_parse_float, HarnessConfig, "theta0"),
    "harness.diversity_cap": (int, HarnessConfig, "diversity_cap"),
    "learner.epochs": (int, HarnessConfig, "learner_epochs"),
    "learner.batch": (int, HarnessConfig, "learner_batch"),
    "learner.lr": (_parse_float, HarnessConfig, "learner_lr"),
    "synth.train_per_class": (_parse_int_list, None, ()),
    "synth.test_per_class": (_parse_int_list, None, ()),
    "synth.rl_per_class": (_parse_int_list, None, ()),
    "synth.dim": (int, None, 8),
    "synth.sep": (_parse_float, None, 5.0),
    "synth.seed": (int, None, 7),
}


def _default(component, name):
    """The default of field `name` of `component`, or `name` itself when there is no component."""
    if component is None:
        return name
    spec = {f.name: f for f in fields(component)}[name]
    return spec.default_factory() if spec.default is MISSING else spec.default


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

    def _build(self, component, **given):
        """component() from the value of every key that sets one of its fields;
        `given` fields override them."""
        set_here = {name: self.values[key]
                    for key, (_, owner, name) in _SCHEMA.items() if owner is component}
        return component(**{**set_here, **given})

    def decay_model(self) -> DecayModel:
        return self._build(DecayModel)

    def reward_config(self) -> RewardConfig:
        return self._build(RewardConfig)

    def agent_config(self) -> AgentConfig:
        return self._build(AgentConfig)

    def harness_config(self, agent: str | None = None) -> HarnessConfig:
        # built apart, so an invalid class list or oracle hides no harness check
        problems = []
        labels = collect(problems, self.label_space)
        oracle = collect(problems, self.decay_model)
        given = {} if agent is None else {"agent": agent}
        cfg = collect(problems, self._build, HarnessConfig, labels=labels, oracle=oracle,
                      **given)
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
    values = {key: _default(owner, name) for key, (_, owner, name) in _SCHEMA.items()}
    explicit = set()
    for lineno, key, raw in pairs:
        if key not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in explicit:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        parser = _SCHEMA[key][0]
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
    if (values["oracle.kind"] == "sigmoid"
            and error_probability(DecayModel("sigmoid", 0.0, values["oracle.beta"]), 0) == 1.0):
        # 1 + exp(beta) rounds to 1 below about -36.74, so p(0) = 1 and p grows with dt
        problems.append(
            f"oracle.beta must be above about -36.74 for the sigmoid oracle, got "
            f"{values['oracle.beta']}: every label would slip"
        )
    if values["synth.sep"] < 0:
        problems.append(f"synth.sep must be >= 0, got {values['synth.sep']}")
    if values["synth.dim"] < 1:
        problems.append(f"synth.dim must be >= 1, got {values['synth.dim']}")

    if problems:
        raise ConfigError(problems)
    return cfg

