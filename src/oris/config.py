"""Flat dotted-key configuration files, parsed into the checked components of one experiment.

Format: one `section.key = value` per line; `#` starts a comment. Lists are
comma-separated and parse to tuples. Every key is optional — an empty file
yields the default experiment — and unknown keys are rejected with every
problem reported at once.

One table, _SCHEMA, maps each key to its parser and to the field it sets of a
component config (DecayModel, RewardConfig, AgentConfig or HarnessConfig).
parse_config builds each component once, from the keys the file sets: an
unset key leaves its field to the constructor's default, so the CLI and a
direct caller of the components run the same experiment. Only the data.* and
synth.* keys, which no component reads, carry a literal default.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .checks import CheckError
from .corpus import LabelSpace, open_text
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
# class, and an unset key leaves it to the constructor. A key that no
# component reads has component None and its literal default in place of the field.
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

# the oracle.beta of each decay kind at which p(0) < 1; 1 + exp(beta) rounds
# to 1 below about -36.74, so a sigmoid p(0) is 1 there
_SLIP_FREE_BETA = {"sigmoid": "above about -36.74", "exponential": "< 0"}


class ExperimentConfig:
    """The components parse_config built and checked, and the values of the
    data.* and synth.* keys. The accessors return the checked objects
    themselves, not copies: HarnessConfig and AgentConfig are mutable, and a
    caller must not change them."""

    def __init__(self, plain, built):
        self._plain = plain  # data.* and synth.* key -> value
        self._built = built  # component class -> the object built from the file

    def __getitem__(self, key):
        _, owner, name = _SCHEMA[key]
        return self._plain[key] if owner is None else getattr(self._built[owner], name)

    @property
    def seeds(self):
        return list(self._built[HarnessConfig].seeds)

    def label_space(self) -> LabelSpace:
        return self._built[HarnessConfig].labels

    def reward_config(self) -> RewardConfig:
        return self._built[RewardConfig]

    def agent_config(self) -> AgentConfig:
        return self._built[AgentConfig]

    def harness_config(self, agent: str | None = None) -> HarnessConfig:
        harness = self._built[HarnessConfig]
        return harness if agent is None else replace(harness, agent=agent)


def _read_pairs(path):
    pairs = []
    problems = []
    with open_text(path) as fh:
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
    """Parse a config file and build each component once from the keys it
    sets; every invalid key/value and every failed check is listed in the
    raised ConfigError. An unset key keeps its default.
    """
    pairs, problems = _read_pairs(path)
    values = {}
    for lineno, key, raw in pairs:
        if key not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = _SCHEMA[key][0](raw)
        except ValueError as exc:
            reason = str(exc) or "unparseable value"
            problems.append(f"line {lineno}: bad value for {key}: {raw!r} ({reason})")

    def set_fields(component):
        return {name: values[key] for key, (_, owner, name) in _SCHEMA.items()
                if owner is component and key in values}

    def build(component, *args, **given):
        """component() from the fields the file sets and `given`, or None once
        the problems of its CheckError are listed."""
        try:
            return component(*args, **given, **set_fields(component))
        except CheckError as exc:
            problems.extend(exc.problems)
            return None

    plain = {key: values.get(key, default)
             for key, (_, owner, default) in _SCHEMA.items() if owner is None}
    reward, agent = build(RewardConfig), build(AgentConfig)
    # an invalid class list or oracle hides no harness check
    labels = build(LabelSpace, plain["data.classes"])
    oracle = build(DecayModel)
    harness = build(HarnessConfig, labels=labels, oracle=oracle)
    # p(dt) never falls as dt grows, so p(0) = 1 means every label slips;
    # alpha * 0 = 0, so an invalid alpha hides no regime check
    regime = DecayModel(**{**set_fields(DecayModel), "alpha": 0.0})
    if error_probability(regime, 0) == 1.0:
        problems.append(f"oracle.beta must be {_SLIP_FREE_BETA[regime.kind]} for the "
                        f"{regime.kind} oracle, got {regime.beta}: every label would slip")
    if plain["synth.sep"] < 0:
        problems.append(f"synth.sep must be >= 0, got {plain['synth.sep']}")
    if plain["synth.dim"] < 1:
        problems.append(f"synth.dim must be >= 1, got {plain['synth.dim']}")
    if plain["synth.seed"] < 0:
        problems.append(f"synth.seed must be >= 0, got {plain['synth.seed']}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(plain, {RewardConfig: reward, AgentConfig: agent,
                                    DecayModel: oracle, HarnessConfig: harness})
