"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The experiment-scale criteria use small frozen corpora and seeds; everything
here is deterministic.
"""

import functools
import math

import numpy as np
import pytest

from helpers import brute_force_f1_macro, reference_evaluate_policy
from oris.corpus import LabelSpace, generate_synthetic
from oris.dqn import (
    AgentConfig,
    decide,
    train_agent,
    train_step,
    write_training_log,
)
from oris.harness import HarnessConfig, run_experiment, write_record
from oris.learner import cross_entropy_and_grads, f1_macro
from oris.nnet import AdamState, DenseNet, load_checkpoint, save_checkpoint
from oris.oracle import DecayModel, error_probability
from oris.reward import DISCARD, PICK, RewardConfig, compute_reward, inclusivity

from helpers import finite_difference_net_grads, max_relative_error


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:2d} FAIL: {description}", flush=True)
                raise
            print(f"\nACCEPTANCE {number:2d} PASS: {description}", flush=True)
        return inner
    return wrap


# ---------------------------------------------------------------- criterion 1

@criterion(1, "annotator error formulas match direct scalar evaluation")
def test_criterion_01_oracle_formulas():
    sigmoid = DecayModel("sigmoid", alpha=0.3, beta=9.0)
    exponential = DecayModel("exponential", alpha=0.6, beta=-19.0)
    for dt in np.linspace(0.0, 99.0, 100):
        dt = float(dt)
        expected_sig = 1.0 / (1.0 + math.exp(-0.3 * dt + 9.0))
        assert abs(error_probability(sigmoid, dt) - expected_sig) < 1e-9
        expected_exp = min(1.0, math.exp(0.6 * dt - 19.0))
        assert abs(error_probability(exponential, dt) - expected_exp) < 1e-9
    assert abs(error_probability(sigmoid, 30.0) - 0.5) < 1e-12


# ---------------------------------------------------------------- criterion 2

@criterion(2, "reward endpoints: uniform window 5, single-class 5e^-8, discard 0.01")
def test_criterion_02_reward_endpoints():
    cfg = RewardConfig(rho=5.0, delta=8.0, lam=0.01, m=10)
    uniform = inclusivity([0, 0, 1, 1, 2, 2, 3, 3, 4, 4], 5)
    assert abs(compute_reward(PICK, uniform, cfg) - 5.0) < 1e-9
    single = inclusivity([2] * 10, 5)
    assert abs(compute_reward(PICK, single, cfg) - 5.0 * math.exp(-8.0)) < 1e-9
    assert compute_reward(DISCARD, uniform, cfg) == 0.01


# ---------------------------------------------------------------- criterion 3

@criterion(3, "inclusivity properties hold on 10^4 random windows")
def test_criterion_03_inclusivity_properties():
    rng = np.random.default_rng(314)
    violations = 0
    for _ in range(10_000):
        num_classes = int(rng.integers(2, 7))
        length = int(rng.integers(1, 11))
        window = rng.integers(0, num_classes, size=length)
        value = inclusivity(window.tolist(), num_classes)
        if not 0.0 <= value <= 1.0 + 1e-12:
            violations += 1
        shuffled = rng.permutation(window).tolist()
        if abs(inclusivity(shuffled, num_classes) - value) > 1e-12:
            violations += 1
        if len(set(window.tolist())) == 1 and value != 0.0:
            violations += 1
    # uniform windows reach the maximum exactly
    for num_classes in range(2, 7):
        if abs(inclusivity(list(range(num_classes)) * 2, num_classes) - 1.0) > 1e-12:
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------- criterion 4

@criterion(4, "gradient checks vs central finite differences on 20+ instances")
def test_criterion_04_gradient_checks():
    worst_net = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        net = DenseNet([4, 8, 8, 2], seed=seed)
        x = rng.standard_normal((3, 4))
        grad_out = rng.standard_normal((3, 2))
        net.forward(x)
        analytic = net.backward(grad_out)
        numeric = finite_difference_net_grads(net, x, grad_out, h=1e-5)
        worst_net = max(worst_net, max_relative_error(analytic, numeric))
    assert worst_net < 1e-4

    worst_ce = 0.0
    rng = np.random.default_rng(99)
    for _ in range(20):
        C, E, n = 3, 4, 8
        W = rng.standard_normal((C, E))
        b = rng.standard_normal(C)
        X = rng.standard_normal((n, E))
        y = rng.integers(0, C, size=n)
        _, dW, db = cross_entropy_and_grads(W, b, X, y)
        h = 1e-5
        fd_W = np.zeros_like(W)
        for idx in np.ndindex(*W.shape):
            orig = W[idx]
            W[idx] = orig + h
            up = cross_entropy_and_grads(W, b, X, y)[0]
            W[idx] = orig - h
            down = cross_entropy_and_grads(W, b, X, y)[0]
            W[idx] = orig
            fd_W[idx] = (up - down) / (2 * h)
        fd_b = np.zeros_like(b)
        for i in range(C):
            orig = b[i]
            b[i] = orig + h
            up = cross_entropy_and_grads(W, b, X, y)[0]
            b[i] = orig - h
            down = cross_entropy_and_grads(W, b, X, y)[0]
            b[i] = orig
            fd_b[i] = (up - down) / (2 * h)
        worst_ce = max(worst_ce, max_relative_error([(dW, db)], [(fd_W, fd_b)]))
    assert worst_ce < 1e-4


# ---------------------------------------------------------------- criterion 5

@criterion(5, "gamma=0 training drives Q(s,a) to stored rewards (MAE < 1e-2)")
def test_criterion_05_dqn_gamma_zero_regression():
    rng = np.random.default_rng(42)
    dim = 6
    rows = [(rng.standard_normal(dim), int(rng.integers(2)), float(rng.uniform(0.0, 5.0)),
             rng.standard_normal(dim)) for _ in range(32)]
    states, actions, rewards, next_states = (np.array(col) for col in zip(*rows))
    batch = (states, actions, rewards, next_states)
    cfg = AgentConfig(gamma=0.0, minibatch=32, hidden=(64, 64), lr=1e-2)
    net = DenseNet([dim, 64, 64, 2], seed=7)
    target = net.copy()
    opt = AdamState(net, lr=cfg.lr)
    mae = math.inf
    for step in range(1, 2001):
        train_step(net, target, batch, cfg, opt)
        if step % 100 == 0:
            q = net.forward(states)
            mae = float(np.abs(q[np.arange(len(actions)), actions] - rewards).mean())
            if mae < 1e-2:
                break
    assert mae < 1e-2


# ---------------------------------------------------------------- criterion 6

TOY_LABELS = LabelSpace(["c0", "c1"])
TOY_AGENT_CFG = dict(gamma=0.99, tau=0.005, minibatch=64, budget=20, episodes=300,
                     replay_capacity=20000, lr=3e-3, hidden=(64, 64))


@criterion(6, "toy-scale policy: greedy reward >= 1.2x random on >= 4 of 5 seeds")
def test_criterion_06_policy_learning_toy():
    docs = generate_synthetic(TOY_LABELS, [160, 40], 4, 10.0, seed=123)
    cfg = AgentConfig(**TOY_AGENT_CFG)
    reward_cfg = RewardConfig()
    passed = 0
    ratios = []
    for seed in (1, 2, 3, 4, 5):
        net, _ = train_agent(docs, TOY_LABELS, cfg, reward_cfg, seed=seed)
        greedy = float(np.mean(reference_evaluate_policy(
            docs, TOY_LABELS, cfg, reward_cfg, seed=seed + 1000, episodes=50, net=net)))
        random_mean = float(np.mean(reference_evaluate_policy(
            docs, TOY_LABELS, cfg, reward_cfg, seed=seed + 1000, episodes=50, net=None)))
        ratios.append(greedy / random_mean)
        if greedy >= 1.2 * random_mean:
            passed += 1
    print(f"  per-seed greedy/random ratios: {[round(r, 3) for r in ratios]}")
    assert passed >= 4


# ------------------------------------------------------- criteria 7 and 8

ORDERING_LABELS = LabelSpace(["c0", "c1", "c2", "c3", "c4"])
# class proportions ~ [0.32, 0.36, 0.04, 0.15, 0.13]
ORDERING_TRAIN_PER_CLASS = [1280, 1440, 160, 600, 520]   # 4000-doc stream
ORDERING_TEST_PER_CLASS = [320, 360, 40, 150, 130]       # 1000-doc test set
ORDERING_RL_PER_CLASS = [640, 720, 80, 300, 260]         # 2000-doc training corpus
ORDERING_DIM, ORDERING_SEP = 8, 4.0
ORDERING_BUDGET, ORDERING_FREQ = 500, 25
ORDERING_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def ordering_experiment():
    train = generate_synthetic(ORDERING_LABELS, ORDERING_TRAIN_PER_CLASS,
                               ORDERING_DIM, ORDERING_SEP, seed=11)
    test = generate_synthetic(ORDERING_LABELS, ORDERING_TEST_PER_CLASS,
                              ORDERING_DIM, ORDERING_SEP, seed=12, start_id=len(train))
    rl = generate_synthetic(ORDERING_LABELS, ORDERING_RL_PER_CLASS,
                            ORDERING_DIM, ORDERING_SEP, seed=13)
    agent_cfg = AgentConfig(gamma=0.99, tau=0.005, minibatch=64, budget=150, episodes=100,
                            replay_capacity=20000, lr=3e-3, hidden=(64, 64))
    net, _ = train_agent(rl, ORDERING_LABELS, agent_cfg, RewardConfig(), seed=1)

    base = dict(labels=ORDERING_LABELS, budget=ORDERING_BUDGET, update_freq=ORDERING_FREQ,
                seeds=ORDERING_SEEDS, oracle=DecayModel("sigmoid", alpha=0.3, beta=9.0))
    records = {
        "random": run_experiment(train, test, HarnessConfig(
            agent="random", pick_prob=1.3 * ORDERING_BUDGET / len(train), **base)),
        "uncertainty": run_experiment(train, test, HarnessConfig(agent="uncertainty", **base)),
        "diversity": run_experiment(train, test, HarnessConfig(agent="diversity", **base)),
        "oris": run_experiment(train, test, HarnessConfig(agent="oris", **base), net=net),
    }
    return records


def _final_means(record):
    finals = {}
    for row in record.rows:
        current = finals.get(row.run_id)
        if current is None or row.budget_exhausted > current.budget_exhausted:
            finals[row.run_id] = row
    human = float(np.mean([r.human_f1_macro for r in finals.values()]))
    machine = float(np.mean([r.machine_f1_macro for r in finals.values()]))
    return human, machine


@criterion(7, "ordering: trained agent beats random/uncertainty on human f1 and "
              "stays within 0.02 of the best baseline machine f1")
def test_criterion_07_ordering(ordering_experiment):
    human = {}
    machine = {}
    for name, record in ordering_experiment.items():
        human[name], machine[name] = _final_means(record)
    print("  final means: " + "; ".join(
        f"{n}: human={human[n]:.4f} machine={machine[n]:.4f}" for n in ordering_experiment))
    assert human["oris"] > human["random"]
    assert human["oris"] > human["uncertainty"]
    best_baseline_machine = max(machine["random"], machine["uncertainty"], machine["diversity"])
    assert machine["oris"] >= best_baseline_machine - 0.02


@criterion(8, "every completed run has exactly B oracle queries and B/f = 20 rows")
def test_criterion_08_budget_interval_accounting(ordering_experiment):
    expected_rows = ORDERING_BUDGET // ORDERING_FREQ
    assert expected_rows == 20
    for name, record in ordering_experiment.items():
        assert record.partial_runs == [], f"{name} had partial runs"
        for run_id in range(len(ORDERING_SEEDS)):
            rows = sorted((r for r in record.rows if r.run_id == run_id),
                          key=lambda r: r.budget_exhausted)
            assert len(rows) == expected_rows, f"{name} run {run_id}"
            assert [r.budget_exhausted for r in rows] == list(
                range(ORDERING_FREQ, ORDERING_BUDGET + 1, ORDERING_FREQ))
            assert rows[-1].picks == ORDERING_BUDGET  # oracle queried exactly B times
            assert all(r.picks == r.budget_exhausted for r in rows)


# ---------------------------------------------------------------- criterion 9

@criterion(9, "f1-macro matches a brute-force confusion-matrix oracle exactly")
def test_criterion_09_f1_equivalence():
    labels = LabelSpace(["c0", "c1", "c2", "c3", "c4"])
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        true = rng.integers(0, 5, size=n)
        pred = rng.integers(0, 5, size=n)
        assert f1_macro(true, pred, labels) == brute_force_f1_macro(list(true), list(pred), 5)
    two = LabelSpace(["A", "B"])
    assert abs(f1_macro([0, 0, 1, 1], [0, 1, 1, 1], two) - 0.733333) <= 1e-6


# --------------------------------------------------------------- criterion 10

@criterion(10, "fixed seeds give byte-identical logs/CSVs; checkpoints preserve decisions")
def test_criterion_10_determinism_and_round_trip(tmp_path):
    labels = LabelSpace(["c0", "c1"])
    docs = generate_synthetic(labels, [40, 40], 3, 5.0, seed=21)
    test_docs = generate_synthetic(labels, [10, 10], 3, 5.0, seed=22, start_id=80)
    cfg = AgentConfig(budget=10, episodes=5, minibatch=16, replay_capacity=500, hidden=(16, 16))

    log_bytes = []
    nets = []
    for tag in ("a", "b"):
        net, logs = train_agent(docs, labels, cfg, RewardConfig(), seed=5)
        path = tmp_path / f"log_{tag}.csv"
        write_training_log(logs, path)
        log_bytes.append(path.read_bytes())
        nets.append(net)
    assert log_bytes[0] == log_bytes[1]

    csv_bytes = []
    harness_cfg = HarnessConfig(labels=labels, agent="random", budget=10, update_freq=5,
                                seeds=(3, 4), oracle=DecayModel("sigmoid", 0.3, 9.0),
                                pick_prob=0.5)
    for tag in ("a", "b"):
        record = run_experiment(docs, test_docs, harness_cfg)
        path = tmp_path / f"rec_{tag}.csv"
        write_record(record, path)
        csv_bytes.append(path.read_bytes())
    assert csv_bytes[0] == csv_bytes[1]

    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(nets[0], ckpt)
    reloaded = load_checkpoint(ckpt)
    rng = np.random.default_rng(77)
    states = rng.standard_normal((1000, 3 + 2))
    assert decide(nets[0], states) == decide(reloaded, states)
