import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import oris
from oris.checks import CheckError
from oris.cli import main
from oris.config import _SCHEMA, ConfigError, parse_config
from oris.corpus import (EmbeddingTable, LabelSpace, load_dataset, load_word_vectors,
                         synthetic_token)
from oris.dqn import AgentConfig
from oris.harness import AGENT_KINDS, CSV_HEADER, HarnessConfig, read_record
from oris.nnet import DenseNet, save_checkpoint
from oris.oracle import DecayModel, error_probability
from oris.reward import RewardConfig


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_gives_standard_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, ""))
    assert cfg["harness.budget"] == 500
    assert cfg["harness.update_freq"] == 25
    assert cfg["agent.gamma"] == 0.99
    assert cfg["agent.tau"] == 0.005
    assert cfg["agent.minibatch"] == 512
    assert cfg["agent.episodes"] == 10000
    assert cfg["agent.replay_capacity"] == 50000
    assert cfg["agent.lr"] == 1e-4
    assert cfg["agent.eps_start"] == 0.9
    assert cfg["agent.eps_end"] == 0.05
    assert cfg["agent.eps_decay"] == 5e-4
    assert cfg["agent.hidden"] == (256, 256)
    assert cfg["reward.rho"] == 5.0
    assert cfg["reward.delta"] == 8.0
    assert cfg["reward.lambda"] == 0.01
    assert cfg["reward.m"] == 10
    assert cfg["encoder.k"] == 3
    assert cfg["oracle.alpha"] == 0.3
    assert cfg["oracle.beta"] == 9.0
    assert cfg.seeds == [1, 2, 3, 4, 5]


# a valid non-default value per component-backed key, and the field it must reach
COMPONENT_KEYS = {
    "seeds": ("harness", "seeds", (7, 8)),
    "oracle.kind": ("oracle", "kind", "exponential"),
    "oracle.alpha": ("oracle", "alpha", 0.6),
    "oracle.beta": ("oracle", "beta", -19.0),
    "encoder.k": ("harness", "k", 4),
    "encoder.dt_scale": ("harness", "dt_scale", 0.5),
    "reward.rho": ("reward", "rho", 2.0),
    "reward.delta": ("reward", "delta", 3.0),
    "reward.lambda": ("reward", "lam", 0.5),
    "reward.m": ("reward", "m", 4),
    "agent.gamma": ("agent", "gamma", 0.9),
    "agent.tau": ("agent", "tau", 0.01),
    "agent.minibatch": ("agent", "minibatch", 16),
    "agent.budget": ("agent", "budget", 40),
    "agent.episodes": ("agent", "episodes", 3),
    "agent.replay_capacity": ("agent", "replay_capacity", 200),
    "agent.lr": ("agent", "lr", 0.003),
    "agent.eps_start": ("agent", "eps_start", 0.8),
    "agent.eps_end": ("agent", "eps_end", 0.1),
    "agent.eps_decay": ("agent", "eps_decay", 0.001),
    "agent.hidden": ("agent", "hidden", (8, 4)),
    "harness.agent": ("harness", "agent", "uncertainty"),
    "harness.budget": ("harness", "budget", 40),
    "harness.update_freq": ("harness", "update_freq", 10),
    "harness.pick_prob": ("harness", "pick_prob", 0.25),
    "harness.theta0": ("harness", "theta0", 0.7),
    "harness.diversity_cap": ("harness", "diversity_cap", 100),
    "learner.epochs": ("harness", "learner_epochs", 5),
    "learner.batch": ("harness", "learner_batch", 8),
    "learner.lr": ("harness", "learner_lr", 0.05),
}


def _components(cfg):
    return {"oracle": cfg.harness_config().oracle, "reward": cfg.reward_config(),
            "agent": cfg.agent_config(), "harness": cfg.harness_config()}


def test_every_component_key_reaches_its_field(tmp_path):
    assert set(COMPONENT_KEYS) == {key for key, (_, owner, _) in _SCHEMA.items()
                                   if owner is not None}
    text = "".join(f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}\n"
                   for key, (_, _, value) in COMPONENT_KEYS.items())
    cfg = parse_config(_write(tmp_path, text))
    built = _components(cfg)
    defaults = _components(parse_config(_write(tmp_path, "", name="empty.cfg")))
    assert defaults == {
        "oracle": DecayModel(), "reward": RewardConfig(), "agent": AgentConfig(),
        "harness": HarnessConfig(labels=LabelSpace(["c0", "c1", "c2", "c3", "c4"])),
    }
    for key, (component, name, value) in COMPONENT_KEYS.items():
        assert getattr(defaults[component], name) != value, key
        assert getattr(built[component], name) == value, key
        assert cfg[key] == value, key
    assert built["harness"].oracle == built["oracle"]
    # run-al --agent overrides harness.agent and nothing else
    assert cfg.harness_config(agent="diversity") == replace(built["harness"], agent="diversity")


def test_config_skips_a_byte_order_mark(tmp_path):
    text = "data.classes = x, y, z\ndata.train = a.tsv\nseeds = 4, 2\noracle.beta = 3\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = parse_config(plain), parse_config(marked)
    assert _components(got) == _components(want)
    assert got.label_space() == want.label_space() == LabelSpace(["x", "y", "z"])
    assert got["data.train"] == want["data.train"] == "a.tsv"
    assert got.seeds == want.seeds == [4, 2]


@pytest.mark.parametrize("name, text, read", [
    ("exp.cfg", "seeds = 1\n{}x = 2\n", parse_config),
    ("vecs.vec", "2 2\na 1 0\n{}b 0 1\n", load_word_vectors),
    # read while `np.loadtxt` parses: the header's read decodes only the first 8 KB
    ("vecs.vec", "1001 2\n" + "".join(f"w{i} 1 0\n" for i in range(1000)) + "{}b 0 1\n",
     load_word_vectors),
    ("train.tsv", "some text\tx\n{}more text\ty\n",
     lambda path: load_dataset(path, EmbeddingTable(np.eye(2), {"some": 0, "more": 1}),
                               LabelSpace(["x", "y"]))),
    ("run.csv", ",".join(CSV_HEADER) + "\n{}\n", read_record),
], ids=["config", "vectors", "vectors-late", "dataset", "record"])
def test_a_byte_that_is_not_utf8_is_refused_naming_the_file(tmp_path, name, text, read):
    # the decoder's own position is an offset into a read chunk, so none is given
    path = tmp_path / name
    path.write_bytes(text.format("\xff").encode("latin-1"))
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}: not UTF-8 text (byte 0xff: invalid start byte)"


def test_config_parses_oracle_block(tmp_path):
    cfg = parse_config(_write(tmp_path, """
# annotator settings
oracle.kind = sigmoid
oracle.alpha = 0.3
oracle.beta = 9
"""))
    model = cfg.harness_config().oracle
    assert model.kind == "sigmoid"
    assert model.alpha == 0.3
    assert model.beta == 9.0


def test_config_rejects_exponential_oracle_without_negative_beta(tmp_path):
    for beta in ("9", "0"):
        with pytest.raises(ConfigError, match="oracle.beta must be < 0"):
            parse_config(_write(tmp_path, f"oracle.kind = exponential\noracle.beta = {beta}\n"))
    with pytest.raises(ConfigError, match="oracle.beta must be < 0"):
        parse_config(_write(tmp_path, "oracle.kind = exponential\n"))  # default beta 9
    cfg = parse_config(_write(tmp_path, "oracle.kind = exponential\noracle.alpha = 0.6\n"
                                        "oracle.beta = -19\n"))
    assert cfg.harness_config().oracle.beta == -19.0
    assert parse_config(_write(tmp_path, "oracle.kind = sigmoid\noracle.beta = 9\n"))


def test_config_rejects_a_sigmoid_oracle_that_always_slips(tmp_path):
    with pytest.raises(ConfigError, match="oracle.beta must be above about -36.74 for the "
                                          "sigmoid oracle, got -40.0"):
        parse_config(_write(tmp_path, "oracle.beta = -40\n"))  # sigmoid is the default kind
    cfg = parse_config(_write(tmp_path, "oracle.kind = sigmoid\noracle.beta = -36\n"))
    assert error_probability(cfg.harness_config().oracle, 0) < 1.0
    with pytest.raises(ConfigError, match="oracle.beta must be < 0"):  # its own message kept
        parse_config(_write(tmp_path, "oracle.kind = exponential\noracle.beta = 0\n"))


def test_config_rejects_diversity_cap_below_budget(tmp_path):
    with pytest.raises(ConfigError, match="diversity_cap must be >= budget"):
        parse_config(_write(tmp_path, "harness.diversity_cap = 499\nharness.budget = 500\n"))


def test_config_rejects_bad_encoder_k_and_dt_scale(tmp_path):
    # caught at parse time whatever the agent, not when a tracker is built
    for agent in ("random", "uncertainty", "diversity", "oris"):
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            parse_config(_write(tmp_path, f"harness.agent = {agent}\nencoder.k = 0\n"))
        with pytest.raises(ConfigError, match="dt_scale must be finite and > 0, got 0.0"):
            parse_config(_write(tmp_path, f"harness.agent = {agent}\nencoder.dt_scale = 0\n"))
    with pytest.raises(ConfigError, match="dt_scale must be finite and > 0, got -0.5"):
        parse_config(_write(tmp_path, "encoder.dt_scale = -0.5\n"))
    assert parse_config(_write(tmp_path, "encoder.k = 1\nencoder.dt_scale = 1e-3\n"))


def test_config_reports_every_component_problem_at_once(tmp_path):
    body = ("encoder.k = 0\nencoder.dt_scale = 0\nreward.rho = 0\nreward.m = 0\n"
            "agent.tau = 0\nagent.minibatch = 0\n")
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, body))
    assert info.value.problems == [
        "rho must be finite and > 0, got 0.0",
        "memory window m must be >= 1, got 0",
        "tau must be in (0, 1], got 0.0",
        "minibatch must be >= 1, got 0",
        "history depth k must be >= 1, got 0",
        "dt_scale must be finite and > 0, got 0.0",
    ]
    # the decay model is built and checked once
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, "oracle.alpha = -1\n"))
    assert info.value.problems == ["alpha must be finite and >= 0, got -1.0"]
    # an invalid class list or oracle hides no harness problem
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, "oracle.alpha = -1\nencoder.k = 0\n"))
    assert info.value.problems == ["alpha must be finite and >= 0, got -1.0",
                                   "history depth k must be >= 1, got 0"]
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, "data.classes = a\nharness.budget = 0\n"))
    assert info.value.problems == [
        "need at least 2 classes, got 1",
        "budget must be >= 1, got 0",
        "update frequency must be in (0, budget]; got f=25, B=0",
    ]
    # every stage at once: lines, reward, agent, label space, oracle, harness,
    # the oracle regime, synth
    body = ("bogus = 1\nsynth.dim = 0\nharness.budget = 0\noracle.kind = exponential\n"
            "oracle.beta = 2\noracle.alpha = -1\ndata.classes = a\nagent.tau = 0\n"
            "reward.m = 0\n")
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, body))
    assert info.value.problems == [
        "line 1: unknown key 'bogus'",
        "memory window m must be >= 1, got 0",
        "tau must be in (0, 1], got 0.0",
        "need at least 2 classes, got 1",
        "alpha must be finite and >= 0, got -1.0",
        "budget must be >= 1, got 0",
        "update frequency must be in (0, budget]; got f=25, B=0",
        "oracle.beta must be < 0 for the exponential oracle, got 2.0: every label would slip",
        "synth.dim must be >= 1, got 0",
    ]
    # the regime reads only the kind and beta, so an invalid alpha does not hide it
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, "oracle.alpha = -1\noracle.beta = -40\n"))
    assert info.value.problems == [
        "alpha must be finite and >= 0, got -1.0",
        "oracle.beta must be above about -36.74 for the sigmoid oracle, got -40.0: "
        "every label would slip",
    ]


def test_harness_config_override_refuses_an_unknown_agent(tmp_path, capsys):
    cfg_path = _write(tmp_path, "")
    message = f"unknown agent 'bogus', expected one of {AGENT_KINDS}"
    with pytest.raises(CheckError) as info:
        parse_config(cfg_path).harness_config(agent="bogus")
    assert info.value.problems == [message]
    assert main(["run-al", "--config", cfg_path, "--agent", "bogus", "--out", "x.csv"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_checked_settings_cannot_be_changed(tmp_path):
    # a field set after the check would skip it: budget 0 is refused above
    cfg = parse_config(_write(tmp_path, ""))
    with pytest.raises(FrozenInstanceError):
        cfg.harness_config().budget = 0
    with pytest.raises(FrozenInstanceError):
        cfg.agent_config().minibatch = 0
    assert (cfg.harness_config().budget, cfg.agent_config().minibatch) == (500, 512)


@pytest.mark.parametrize("body, problem", [
    ("seeds = -1, 2\n", "seeds must be distinct and >= 0, got (-1, 2)"),
    ("seeds = 1, 1\n", "seeds must be distinct and >= 0, got (1, 1)"),
    ("synth.seed = -3\n", "synth.seed must be >= 0, got -3"),
])
def test_config_refuses_a_negative_or_repeated_seed(tmp_path, body, problem):
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, body))
    assert info.value.problems == [problem]
    assert parse_config(_write(tmp_path, "seeds = 0, 2, 1\nsynth.seed = 0\n")).seeds == [0, 2, 1]


def test_config_rejects_bad_learner_settings(tmp_path):
    for body, message in (("learner.epochs = 0\n", "learner.epochs must be >= 1, got 0"),
                          ("learner.batch = -2\n", "learner.batch must be >= 1, got -2"),
                          ("learner.lr = 0\n", "learner.lr must be finite and > 0, got 0.0"),
                          ("learner.lr = -0.1\n", "learner.lr must be finite and > 0, got -0.1")):
        with pytest.raises(ConfigError) as info:
            parse_config(_write(tmp_path, body))
        assert info.value.problems == [message]
    cfg = parse_config(_write(tmp_path, "learner.epochs = 1\nlearner.batch = 1\n"
                                        "learner.lr = 1e-6\n"))
    assert cfg.harness_config().learner_epochs == 1


FLOAT_KEYS = ["oracle.alpha", "oracle.beta", "encoder.dt_scale", "reward.rho", "reward.delta",
              "reward.lambda", "agent.gamma", "agent.tau", "agent.lr", "agent.eps_start",
              "agent.eps_end", "agent.eps_decay", "harness.pick_prob", "harness.theta0",
              "learner.lr", "synth.sep"]


def _parses_a_float(parse):
    try:
        return isinstance(parse("0.5"), float)
    except ValueError:
        return False


def test_float_keys_are_every_key_that_parses_a_float():
    assert set(FLOAT_KEYS) == {k for k, (parse, _, _) in _SCHEMA.items() if _parses_a_float(parse)}


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_config_refuses_a_non_finite_float(tmp_path, key, raw):
    """No float key takes NaN or an infinity: NaN fails every comparison, so
    it would slip past the range checks and run (a NaN oracle.beta gives an
    annotator that never slips) instead of failing here."""
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, f"{key} = {raw}\n"))
    assert info.value.problems == [f"line 1: bad value for {key}: {raw!r} (must be finite)"]


def test_harness_config_refuses_a_nan_learner_lr():
    with pytest.raises(CheckError, match="learner.lr must be finite and > 0, got nan"):
        HarnessConfig(labels=LabelSpace(["a", "b"]), learner_lr=float("nan"))


def test_config_rejects_bad_synth_settings(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config(_write(tmp_path, "synth.dim = 0\nsynth.sep = -1\n"))
    assert info.value.problems == ["synth.sep must be >= 0, got -1.0",
                                   "synth.dim must be >= 1, got 0"]
    assert parse_config(_write(tmp_path, "synth.dim = 1\nsynth.sep = 0\n"))


def test_config_rejects_f_greater_than_budget(tmp_path):
    with pytest.raises(ConfigError, match="update frequency"):
        parse_config(_write(tmp_path, "harness.update_freq = 600\nharness.budget = 500\n"))


def test_config_rejects_unknown_keys_listing_all(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, "bogus.key = 1\nreward.rho = -2\nagent.gamma = 7\n"))
    message = str(err.value)
    assert "bogus.key" in message
    assert "rho" in message
    assert "gamma" in message


def test_config_type_errors_reported(tmp_path):
    with pytest.raises(ConfigError, match="reward.m"):
        parse_config(_write(tmp_path, "reward.m = ten\n"))


def test_config_runs_and_seeds_reconciled(tmp_path):
    # the run count is the seed count; there is no separate key for it
    with pytest.raises(ConfigError, match="unknown key 'harness.runs'"):
        parse_config(_write(tmp_path, "harness.runs = 3\n"))
    cfg = parse_config(_write(tmp_path, "seeds = 11, 12\n"))
    assert cfg.seeds == [11, 12]
    assert cfg.harness_config().seeds == (11, 12)


def test_config_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_config("/nonexistent/oris.cfg")


SYNTH_CFG = """
data.classes = a, b
seeds = 1, 2
synth.train_per_class = 30, 30
synth.test_per_class = 10, 10
synth.dim = 3
synth.sep = 8
synth.seed = 5
harness.budget = 8
harness.update_freq = 4
harness.pick_prob = 0.8
oracle.kind = perfect
learner.epochs = 10
"""


def test_gen_synth_writes_loadable_dataset(tmp_path):
    cfg_path = _write(tmp_path, SYNTH_CFG)
    out = tmp_path / "synth"
    assert main(["gen-synth", "--config", cfg_path, "--out-dir", str(out)]) == 0
    table = load_word_vectors(out / "vectors.vec")
    labels = LabelSpace(["a", "b"])
    train = load_dataset(out / "train.tsv", table, labels)
    test = load_dataset(out / "test.tsv", table, labels)
    assert len(train) == 60
    assert len(test) == 20
    assert table.dimension == 3


def test_module_entry_point_runs_the_command(tmp_path):
    cfg_path = _write(tmp_path, SYNTH_CFG)
    out = tmp_path / "synth"
    env = dict(os.environ)
    src = str(Path(oris.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "oris.cli", "gen-synth", "--config", str(cfg_path),
         "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    in_process = tmp_path / "in_process"
    assert main(["gen-synth", "--config", cfg_path, "--out-dir", str(in_process)]) == 0
    for name in ("train.tsv", "test.tsv", "vectors.vec"):
        assert (out / name).read_bytes() == (in_process / name).read_bytes()


def test_run_al_on_generated_data_exits_zero(tmp_path, capsys):
    cfg_text = SYNTH_CFG + f"""
data.train = {tmp_path}/synth/train.tsv
data.test = {tmp_path}/synth/test.tsv
data.vectors = {tmp_path}/synth/vectors.vec
"""
    cfg_path = _write(tmp_path, cfg_text)
    assert main(["gen-synth", "--config", cfg_path, "--out-dir", str(tmp_path / "synth")]) == 0
    out_csv = tmp_path / "results.csv"
    assert main(["run-al", "--config", cfg_path, "--agent", "random",
                 "--out", str(out_csv)]) == 0
    record = read_record(out_csv)
    assert len(record.rows) == 2 * 2  # 2 runs x (budget/f) rows
    assert all(r.human_f1_macro == 1.0 for r in record.rows)  # perfect oracle


def test_full_pipeline_byte_identical(tmp_path):
    cfg_text = SYNTH_CFG + f"""
data.train = {tmp_path}/synth/train.tsv
data.test = {tmp_path}/synth/test.tsv
data.vectors = {tmp_path}/synth/vectors.vec
agent.episodes = 3
agent.budget = 5
agent.minibatch = 8
agent.replay_capacity = 100
agent.hidden = 8, 8
"""
    cfg_path = _write(tmp_path, cfg_text)
    assert main(["gen-synth", "--config", cfg_path, "--out-dir", str(tmp_path / "synth")]) == 0

    outputs = []
    for tag in ("one", "two"):
        ckpt = tmp_path / f"{tag}.ckpt"
        log = tmp_path / f"{tag}.log.csv"
        csv_out = tmp_path / f"{tag}.csv"
        assert main(["train-agent", "--config", cfg_path, "--out", str(ckpt),
                     "--log", str(log)]) == 0
        assert main(["run-al", "--config", cfg_path, "--agent", "oris",
                     "--checkpoint", str(ckpt), "--out", str(csv_out)]) == 0
        outputs.append((ckpt.read_bytes(), log.read_bytes(), csv_out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_agent_reads_the_separate_agent_training_split(tmp_path):
    """gen-synth with synth.rl_per_class writes rl.tsv with those per-class
    counts, and vectors.vec holds one word per train, test and rl document;
    train-agent with data.rl_train set writes the bytes of a run with
    data.train pointed at rl.tsv."""
    synth = tmp_path / "synth"
    agent_keys = f"""
data.vectors = {synth}/vectors.vec
agent.episodes = 2
agent.budget = 5
agent.minibatch = 8
agent.replay_capacity = 100
agent.hidden = 8, 8
"""
    rl_cfg = _write(tmp_path, SYNTH_CFG + agent_keys + f"""
synth.rl_per_class = 12, 7
data.train = {synth}/train.tsv
data.rl_train = {synth}/rl.tsv
""", name="rl.cfg")
    train_cfg = _write(tmp_path, SYNTH_CFG + agent_keys + f"data.train = {synth}/rl.tsv\n",
                       name="train.cfg")
    assert main(["gen-synth", "--config", rl_cfg, "--out-dir", str(synth)]) == 0
    table = load_word_vectors(synth / "vectors.vec")
    labels = LabelSpace(["a", "b"])
    splits = [load_dataset(synth / name, table, labels)
              for name in ("train.tsv", "test.tsv", "rl.tsv")]
    assert [sum(d.true_class == c for d in splits[2]) for c in range(2)] == [12, 7]
    assert [len(split) for split in splits] == [60, 20, 19]
    words = [line.split("\t")[0] for name in ("train.tsv", "test.tsv", "rl.tsv")
             for line in (synth / name).read_text().splitlines()]
    assert sorted(table.rows) == sorted(words) == sorted(map(synthetic_token, range(99)))
    assert len(table.matrix) == 99

    outputs = []
    for tag, cfg_path in (("rl", rl_cfg), ("train", train_cfg)):
        ckpt, log = tmp_path / f"{tag}.ckpt", tmp_path / f"{tag}.log.csv"
        assert main(["train-agent", "--config", cfg_path, "--out", str(ckpt),
                     "--log", str(log)]) == 0
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("outputs", [3, 1])
def test_run_al_rejects_a_checkpoint_of_the_wrong_shape(tmp_path, capsys, outputs):
    cfg_text = SYNTH_CFG + f"""
data.train = {tmp_path}/synth/train.tsv
data.test = {tmp_path}/synth/test.tsv
data.vectors = {tmp_path}/synth/vectors.vec
"""
    cfg_path = _write(tmp_path, cfg_text)
    assert main(["gen-synth", "--config", cfg_path, "--out-dir", str(tmp_path / "synth")]) == 0
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(DenseNet([3 + 2, 4, outputs], seed=0), ckpt)
    capsys.readouterr()
    out_csv = tmp_path / "oris.csv"
    assert main(["run-al", "--config", cfg_path, "--agent", "oris", "--checkpoint", str(ckpt),
                 "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"[5, 4, {outputs}]" in err
    assert not out_csv.exists()


def test_run_al_refuses_a_bad_seed_before_loading_anything(tmp_path, capsys):
    cfg_path = _write(tmp_path, SYNTH_CFG.replace("seeds = 1, 2", "seeds = -1, 2") + f"""
data.train = {tmp_path}/synth/train.tsv
data.test = {tmp_path}/synth/test.tsv
data.vectors = {tmp_path}/synth/vectors.vec
""")
    out_csv = tmp_path / "random.csv"
    assert main(["run-al", "--config", cfg_path, "--agent", "random",
                 "--out", str(out_csv)]) == 2
    err = capsys.readouterr().err
    assert "seeds must be distinct and >= 0, got (-1, 2)" in err and "Traceback" not in err
    assert not out_csv.exists()


def test_run_al_refuses_a_test_file_that_is_its_training_file(tmp_path, capsys):
    cfg_path = _write(tmp_path, SYNTH_CFG + f"""
data.train = {tmp_path}/synth/train.tsv
data.test = {tmp_path}/synth/../synth/train.tsv
data.vectors = {tmp_path}/synth/vectors.vec
""")
    assert main(["gen-synth", "--config", cfg_path, "--out-dir", str(tmp_path / "synth")]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "random.csv"
    assert main(["run-al", "--config", cfg_path, "--agent", "random",
                 "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data.test is data.train") and "Traceback" not in err
    assert not out_csv.exists()


@pytest.mark.parametrize("kind", ["zero-size layer", "v1 text"])
def test_run_al_rejects_a_refused_checkpoint(tmp_path, capsys, kind):
    cfg_text = SYNTH_CFG + f"""
data.train = {tmp_path}/synth/train.tsv
data.test = {tmp_path}/synth/test.tsv
data.vectors = {tmp_path}/synth/vectors.vec
"""
    cfg_path = _write(tmp_path, cfg_text)
    assert main(["gen-synth", "--config", cfg_path, "--out-dir", str(tmp_path / "synth")]) == 0
    ckpt = tmp_path / "bad.ckpt"
    if kind == "v1 text":
        ckpt.write_text("densenet-v1\n5 2\n0 0 0 0 0\n0 0 0 0 0\n0 0\n")
    else:  # 5 -> 0 -> 2, with the 2 biases that are all such a net's parameters
        with open(ckpt, "wb") as fh:
            np.savez(fh, magic=np.array("densenet-v2"), layer_sizes=np.array([5, 0, 2]),
                     params=np.zeros(2))
    capsys.readouterr()
    out_csv = tmp_path / "oris.csv"
    assert main(["run-al", "--config", cfg_path, "--agent", "oris", "--checkpoint", str(ckpt),
                 "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and "Traceback" not in err
    assert ("densenet-v1 text checkpoint" in err) == (kind == "v1 text")
    assert not out_csv.exists()


def test_aggregate_cli(tmp_path):
    header = "run_id,budget_exhausted,machine_f1_macro,human_f1_macro,picks,oracle_errors\n"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(header + "0,25,0.200000,0.400000,25,0\n")
    b.write_text(header + "0,25,0.800000,1.000000,25,1\n")
    out = tmp_path / "agg.csv"
    assert main(["aggregate", "--in", str(a), str(b), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("budget_exhausted,n_runs,machine_f1_macro_mean,machine_f1_macro_std,"
                        "human_f1_macro_mean,human_f1_macro_std")
    fields = lines[1].split(",")
    assert fields[:2] == ["25", "2"]
    assert float(fields[2]) == pytest.approx(0.5)
    assert float(fields[3]) == pytest.approx(0.3)
    assert float(fields[4]) == pytest.approx(0.7)


@pytest.mark.parametrize("bad, fields", [("0,25,0.5", 3), ("0,50,0.2,0.4,50,0,7", 7), ("", 0)],
                         ids=["short row", "long row", "blank line"])
def test_aggregate_rejects_a_row_of_the_wrong_width(tmp_path, capsys, bad, fields):
    header = "run_id,budget_exhausted,machine_f1_macro,human_f1_macro,picks,oracle_errors\n"
    path = tmp_path / "a.csv"
    path.write_text(header + "0,25,0.200000,0.400000,25,0\n" + bad + "\n0,75,0.1,0.2,75,0\n")
    assert main(["aggregate", "--in", str(path), "--out", str(tmp_path / "agg.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: expected 6 fields, got {fields}")
    assert not (tmp_path / "agg.csv").exists()


@pytest.mark.parametrize("bad, message", [
    ("0,50,0.2,0.4,50,x", "invalid literal for int() with base 10: 'x'"),
    ("0,50,0.2,high,50,0", "could not convert string to float: 'high'"),
], ids=["bad int cell", "bad float cell"])
def test_aggregate_names_the_line_of_a_bad_cell(tmp_path, capsys, bad, message):
    header = "run_id,budget_exhausted,machine_f1_macro,human_f1_macro,picks,oracle_errors\n"
    path = tmp_path / "a.csv"
    path.write_text(header + "0,25,0.200000,0.400000,25,0\n" + bad + "\n0,75,0.1,0.2,75,0\n")
    assert main(["aggregate", "--in", str(path), "--out", str(tmp_path / "agg.csv")]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
    assert not (tmp_path / "agg.csv").exists()


def test_cli_error_paths(tmp_path, capsys):
    assert main(["run-al", "--config", "/missing.cfg", "--out", "x.csv"]) != 0
    bad_cfg = _write(tmp_path, "bogus = 1\n")
    assert main(["run-al", "--config", bad_cfg, "--out", "x.csv"]) == 2
    ok_cfg = _write(tmp_path, "")
    # oris without a checkpoint is an error
    assert main(["run-al", "--config", ok_cfg, "--agent", "oris", "--out", "x.csv"]) == 1
    assert main(["definitely-not-a-command"]) != 0


def test_train_agent_requires_data(tmp_path, capsys):
    cfg = _write(tmp_path, "")
    assert main(["train-agent", "--config", cfg, "--out", str(tmp_path / "n.ckpt")]) == 1
    err = capsys.readouterr().err
    assert "data" in err
