import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_decide, reference_single_run, reference_uncertainty_entropy
import oris.harness
import oris.learner
from oris.corpus import LabelSpace, generate_synthetic
from oris.harness import (
    AGENT_KINDS,
    ExperimentRecord,
    HarnessConfig,
    RecordRow,
    aggregate_records,
    diversity_select,
    read_record,
    run_experiment,
    uncertainty_scores,
    write_aggregate,
    write_record,
)
from oris.learner import SoftmaxClassifier, f1_macro, predict_proba
from oris.nnet import DenseNet
from oris.oracle import DecayModel
from oris.reward import DISCARD, PICK

LABELS2 = LabelSpace(["a", "b"])


def _docs(per_class, dim=4, sep=5.0, seed=0, labels=LABELS2, start_id=0):
    return generate_synthetic(labels, per_class, dim, sep, seed=seed, start_id=start_id)


def _always_pick_net(state_dim):
    # zero weights give tied Q-values and ties break toward pick
    net = DenseNet([state_dim, 4, 2], seed=0)
    for w in net.weights:
        w[:] = 0.0
    return net


def _never_pick_net(state_dim):
    net = _always_pick_net(state_dim)
    net.biases[-1][DISCARD] = 1.0
    return net


def _threshold_net(state_dim, threshold=1.5):
    """Picks a document whose first embedding coordinate reaches threshold:
    picks come in clumps and gaps, so a chunk's first pick can fall
    anywhere in it."""
    net = DenseNet([state_dim, 2], seed=0)
    net.weights[0][:] = 0.0
    net.weights[0][PICK, 0] = 1.0
    net.biases[0][:] = [0.0, -threshold]
    return net


def test_random_decide_extremes_and_rate():
    rng = np.random.default_rng(0)
    assert all(random_decide(rng, 1.0) == PICK for _ in range(50))
    assert all(random_decide(rng, 0.0) == DISCARD for _ in range(50))
    n = 10_000
    picks = sum(random_decide(rng, 0.5) for _ in range(n))
    assert abs(picks - n / 2) <= 3 * math.sqrt(n * 0.25)


@pytest.mark.parametrize("E", [1, 8, 300])
@pytest.mark.parametrize("C", [2, 5, 8, 13, 130])
def test_uncertainty_scores_are_the_one_row_entropies(C, E):
    """Every row's score is bit for bit the entropy of its own one-row
    prediction: rows of spread predictions, rows holding exactly-zero
    probabilities (logit gaps above 745) and uniform rows."""
    rng = np.random.default_rng(1000 * C + E)
    X = np.concatenate([rng.normal(size=(40, E)), 1000.0 * rng.normal(size=(10, E)),
                        np.zeros((3, E))])
    spread = SoftmaxClassifier(3.0 * rng.normal(size=(C, E)), rng.normal(size=C))
    uniform = SoftmaxClassifier(np.zeros((C, E)), np.zeros(C))
    assert (predict_proba(spread, X[40:50]) == 0.0).any()
    for clf in (spread, uniform):
        assert np.array_equal(uncertainty_scores(clf, X),
                              [reference_uncertainty_entropy(clf, x) for x in X])
    # the sum of C terms of 1/C rounds: one ulp above 1 at C = 13 and 130
    assert np.all(uncertainty_scores(uniform, X) == (1.0 if C <= 8 else np.nextafter(1.0, 2.0)))


def test_uncertainty_scores_take_a_row_with_a_zero_probability_on_its_own():
    """normalized_entropy sums only the nonzero terms. On this 9-class row
    the sum of the whole row, its zero term masked, groups the terms in
    another order and rounds otherwise, so the scorer must score the row on
    its own."""
    logits = np.array([-800.0, 3.2, -0.5, -0.6, -0.2, 1.2, 0.3, -3.5, -2.8])
    clf = SoftmaxClassifier(logits[:, None], np.zeros(9))
    probs = predict_proba(clf, np.ones(1))
    assert probs[0] == 0.0
    terms = np.log2(probs, out=np.zeros(9), where=probs > 0) * probs
    assert float(-terms.sum()) / math.log2(9) != reference_uncertainty_entropy(clf, np.ones(1))
    X = np.array([[1.0], [0.5], [-1.0], [1.0]])
    assert np.array_equal(uncertainty_scores(clf, X),
                          [reference_uncertainty_entropy(clf, x) for x in X])


# a two-class prediction of entropy 1, about 1e-42 and about 0.2423
UNIFORM = SoftmaxClassifier(np.zeros((2, 2)), np.zeros(2))
CONFIDENT = SoftmaxClassifier(np.array([[50.0, 0.0], [-50.0, 0.0]]), np.zeros(2))
NEARLY = SoftmaxClassifier(np.array([[math.log(0.96 / 0.04), 0.0], [0.0, 0.0]]), np.zeros(2))
# every document embedded as (1, 0)
FLAT_STREAM = [dataclasses.replace(d, embedding=np.array([1.0, 0.0]))
               for d in _docs([300, 300], dim=2)]


@pytest.mark.parametrize("later,flip,picks", [
    (CONFIDENT, 10, 10),  # picks before the first fit only
    (UNIFORM, 10, 500),   # entropy 1 reaches the threshold at every b
    (CONFIDENT, 250, 250),
    (NEARLY, 250, 250),   # 0.2423 < 0.5 * (1 - 250 / 500) = 0.25
    (NEARLY, 260, 500),   # 0.2423 >= 0.5 * (1 - 260 / 500) = 0.24
])
def test_uncertainty_threshold_schedule(monkeypatch, later, flip, picks):
    """Before the first fit the agent picks every position. From then on it
    picks a position whose prediction entropy reaches theta0 * (1 - b / B)
    at b picks so far. The refits here return the uniform classifier up to
    b = flip and `later` from there on."""
    assert uncertainty_scores(UNIFORM, np.array([[1.0, 0.0]]))[0] == 1.0
    assert uncertainty_scores(CONFIDENT, np.array([[1.0, 0.0]]))[0] < 1e-40
    assert 0.24 < uncertainty_scores(NEARLY, np.array([[1.0, 0.0]]))[0] < 0.25
    monkeypatch.setattr(oris.harness, "fit_many", lambda X, y, spans, *args, **kwargs: [
        later if b >= flip else UNIFORM for _, b in spans])
    cfg = HarnessConfig(labels=LABELS2, agent="uncertainty", budget=500, update_freq=10,
                        seeds=(1,), theta0=0.5)
    record = run_experiment(FLAT_STREAM, _docs([5, 5], dim=2, seed=1, start_id=600), cfg)
    assert [r.picks for r in record.rows] == list(range(10, picks + 1, 10))
    assert record.partial_runs == ([] if picks == 500 else [0])


def _matrix(docs):
    return np.stack([d.embedding for d in docs])


def test_diversity_select_hand_case():
    X = np.array([(0.0, 0.0), (0.0, 1.0), (10.0, 10.0), (10.0, 11.0)])
    selected = diversity_select(X, 2, cap=5000)
    # one pick per pair; ties to the cluster mean break toward the lower row
    assert selected == [0, 2]


def test_diversity_select_budget_equals_corpus():
    X = _matrix(_docs([3, 3]))
    assert diversity_select(X, 6, cap=5000) == [0, 1, 2, 3, 4, 5]


def test_diversity_select_duplicated_points_cluster_together():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    selected = diversity_select(X, 2, cap=5000)
    assert selected == [0, 2]


def test_diversity_select_deterministic_and_validates():
    X = _matrix(_docs([10, 10]))
    assert diversity_select(X, 8, cap=5000) == diversity_select(X, 8, cap=5000)
    with pytest.raises(ValueError):
        diversity_select(X, 21, cap=5000)


def test_diversity_select_respects_cap():
    X = _matrix(_docs([30, 30]))
    capped = diversity_select(X, 5, cap=20)
    assert len(capped) == 5
    assert all(0 <= i < 60 for i in capped)


def test_diversity_select_refuses_a_cap_below_the_budget():
    X = _matrix(_docs([30, 30]))
    assert len(diversity_select(X, 20, cap=20)) == 20
    with pytest.raises(ValueError, match="cap must be >= budget"):
        diversity_select(X, 20, cap=19)


@pytest.mark.parametrize("name,label", [("dt_scale", "dt_scale"), ("theta0", "theta0"),
                                        ("pick_prob", "pick_prob"), ("learner_lr", "learner.lr")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_harness_config_refuses_a_non_finite_field(name, label, value):
    with pytest.raises(ValueError, match=label):
        HarnessConfig(labels=LABELS2, **{name: value})


def _base_cfg(**overrides):
    defaults = dict(labels=LABELS2, agent="random", budget=4, update_freq=2,
                    seeds=(1,), oracle=DecayModel("perfect"), pick_prob=1.0)
    defaults.update(overrides)
    return HarnessConfig(**defaults)


def test_run_experiment_minimal_two_rows_perfect_human():
    train = _docs([10, 10], seed=1)
    test = _docs([5, 5], seed=2, start_id=100)
    record = run_experiment(train, test, _base_cfg())
    assert len(record.rows) == 2
    assert [r.budget_exhausted for r in record.rows] == [2, 4]
    assert all(r.human_f1_macro == 1.0 for r in record.rows)
    assert all(r.oracle_errors == 0 for r in record.rows)
    assert record.partial_runs == []


def test_run_experiment_deterministic():
    train = _docs([20, 20], seed=3)
    test = _docs([5, 5], seed=4, start_id=100)
    cfg = _base_cfg(budget=10, update_freq=5, seeds=(7, 8), pick_prob=0.5)
    a = run_experiment(train, test, cfg)
    b = run_experiment(train, test, cfg)
    assert a == b


def test_run_experiment_budget_conservation_all_agents():
    train = _docs([40, 40], seed=5)
    test = _docs([10, 10], seed=6, start_id=200)
    net = _always_pick_net(4 + 2)
    for agent in ("random", "uncertainty", "diversity", "oris"):
        cfg = _base_cfg(agent=agent, budget=10, update_freq=5, pick_prob=0.8)
        record = run_experiment(train, test, cfg, net=net if agent == "oris" else None)
        assert record.partial_runs == []
        finals = [r for r in record.rows if r.budget_exhausted == 10]
        assert len(finals) == 1
        assert finals[0].picks == 10
        # perfect oracle: human f1 is 1.0 at every interval for every agent
        assert all(r.human_f1_macro == 1.0 for r in record.rows)


def test_run_experiment_human_f1_over_exactly_jf_picks():
    train = _docs([40, 40], seed=7)
    test = _docs([10, 10], seed=8, start_id=200)
    record = run_experiment(train, test, _base_cfg(budget=8, update_freq=2))
    assert [r.picks for r in record.rows] == [2, 4, 6, 8]
    assert [r.budget_exhausted for r in record.rows] == [2, 4, 6, 8]


def test_run_experiment_oracle_errors_nondecreasing():
    train = _docs([100, 100], seed=9)
    test = _docs([10, 10], seed=10, start_id=500)
    cfg = _base_cfg(budget=40, update_freq=10, pick_prob=0.3,
                    oracle=DecayModel("exponential", alpha=0.0, beta=0.0))
    record = run_experiment(train, test, cfg)
    errors = [r.oracle_errors for r in record.rows]
    assert errors == sorted(errors)
    assert errors[-1] == 40  # certain-slip oracle errs on every pick


def test_run_experiment_partial_flag_on_short_stream():
    train = _docs([5, 5], seed=11)
    test = _docs([5, 5], seed=12, start_id=100)
    record = run_experiment(train, test, _base_cfg(budget=4, update_freq=2, pick_prob=0.0))
    assert record.rows == []
    assert record.partial_runs == [0]


def test_random_pick_prob_defaults_to_budget_over_stream():
    # budget == stream length and the default pick probability -> picks everything
    train = _docs([10, 10], seed=19)
    test = _docs([5, 5], seed=20, start_id=100)
    cfg = _base_cfg(budget=20, update_freq=10, pick_prob=None)
    record = run_experiment(train, test, cfg)
    assert record.partial_runs == []
    assert [r.budget_exhausted for r in record.rows] == [10, 20]


def test_run_experiment_rejects_overlapping_test_ids():
    train = _docs([5, 5], seed=13)
    test = _docs([2, 2], seed=14)  # ids collide with the stream
    with pytest.raises(ValueError, match="overlaps"):
        run_experiment(train, test, _base_cfg())


def test_run_experiment_refuses_an_empty_stream_or_test_set():
    train = _docs([5, 5], seed=13)
    test = _docs([2, 2], seed=14, start_id=50)
    with pytest.raises(ValueError, match="empty training stream"):
        run_experiment([], test, _base_cfg())
    with pytest.raises(ValueError, match="empty test set"):
        run_experiment(train, [], _base_cfg())


def test_run_experiment_oris_requires_net():
    train = _docs([5, 5], seed=15)
    test = _docs([2, 2], seed=16, start_id=50)
    with pytest.raises(ValueError, match="trained network"):
        run_experiment(train, test, _base_cfg(agent="oris"))


@pytest.mark.parametrize("sizes", [[6, 4, 3], [6, 4, 1], [7, 4, 2]],
                         ids=["3 outputs", "1 output", "input width"])
def test_run_experiment_rejects_an_oris_net_of_the_wrong_shape(sizes):
    train = _docs([5, 5], seed=15)  # E = 4, C = 2: the net needs 6 inputs and 2 outputs
    test = _docs([2, 2], seed=16, start_id=50)
    with pytest.raises(ValueError) as raised:
        run_experiment(train, test, _base_cfg(agent="oris"), net=DenseNet(sizes, seed=0))
    message = str(raised.value)
    for part in (str(sizes), "E = 4", "C = 2", "6 inputs and 2 outputs"):
        assert part in message


def test_write_record_format_and_round_trip(tmp_path):
    rows = [RecordRow(run_id=r, budget_exhausted=b, machine_f1_macro=0.5 + 0.01 * b,
                      human_f1_macro=0.9, picks=b, oracle_errors=b // 2)
            for r in range(1) for b in range(25, 525, 25)]
    record = ExperimentRecord(rows=rows, partial_runs=[])
    path = tmp_path / "rec.csv"
    write_record(record, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 21  # header + 20 rows
    assert lines[0] == "run_id,budget_exhausted,machine_f1_macro,human_f1_macro,picks,oracle_errors"
    again = read_record(path)
    assert len(again.rows) == 20
    for a, b in zip(sorted(rows, key=lambda r: r.budget_exhausted), again.rows):
        assert a.budget_exhausted == b.budget_exhausted
        assert b.machine_f1_macro == pytest.approx(a.machine_f1_macro, abs=5e-7)


def test_read_record_skips_a_byte_order_mark(tmp_path):
    rows = [RecordRow(run_id=0, budget_exhausted=b, machine_f1_macro=0.25 * b,
                      human_f1_macro=0.5, picks=b, oracle_errors=1) for b in (1, 2)]
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_record(ExperimentRecord(rows=rows, partial_runs=[]), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_record(marked) == read_record(plain) == ExperimentRecord(rows=rows,
                                                                           partial_runs=[])


def test_write_record_exact_bytes(tmp_path):
    # written sorted by (run_id, budget_exhausted), whatever the row order
    rows = [RecordRow(run_id=1, budget_exhausted=2, machine_f1_macro=np.float64(0.9999996),
                      human_f1_macro=-0.0, picks=np.int64(2), oracle_errors=np.int64(1)),
            RecordRow(run_id=0, budget_exhausted=4, machine_f1_macro=2.0 / 3.0,
                      human_f1_macro=1.0, picks=4, oracle_errors=0),
            RecordRow(run_id=0, budget_exhausted=2, machine_f1_macro=0.0,
                      human_f1_macro=np.float64(0.1234564), picks=2, oracle_errors=2)]
    path = tmp_path / "rec.csv"
    write_record(ExperimentRecord(rows=rows, partial_runs=[1]), path)
    assert path.read_bytes() == (
        b"run_id,budget_exhausted,machine_f1_macro,human_f1_macro,picks,oracle_errors\r\n"
        b"0,2,0.000000,0.123456,2,2\r\n"
        b"0,4,0.666667,1.000000,4,0\r\n"
        b"1,2,1.000000,-0.000000,2,1\r\n"
    )


def test_write_aggregate_exact_bytes(tmp_path):
    rows = [{"budget_exhausted": 25, "n_runs": 3, "machine_f1_macro_mean": 0.5,
             "machine_f1_macro_std": 0.0, "human_f1_macro_mean": np.float64(1.0 / 3.0),
             "human_f1_macro_std": np.float64(0.2449489742783178)},
            {"budget_exhausted": np.int64(50), "n_runs": np.int64(1),
             "machine_f1_macro_mean": 0.1234567, "machine_f1_macro_std": 0.0,
             "human_f1_macro_mean": 0.9999996, "human_f1_macro_std": 0.0}]
    path = tmp_path / "agg.csv"
    write_aggregate(rows, path)
    assert path.read_bytes() == (
        b"budget_exhausted,n_runs,machine_f1_macro_mean,machine_f1_macro_std,"
        b"human_f1_macro_mean,human_f1_macro_std\r\n"
        b"25,3,0.500000,0.000000,0.333333,0.244949\r\n"
        b"50,1,0.123457,0.000000,1.000000,0.000000\r\n"
    )


def test_aggregate_matches_hand_calculation(tmp_path):
    # three tiny one-row records -> mean and population std by hand
    machine = [0.2, 0.5, 0.8]
    human = [0.4, 0.4, 1.0]
    records = [ExperimentRecord(
        rows=[RecordRow(run_id=i, budget_exhausted=25, machine_f1_macro=m,
                        human_f1_macro=h, picks=25, oracle_errors=0)],
        partial_runs=[]) for i, (m, h) in enumerate(zip(machine, human))]
    out = aggregate_records(records)
    assert len(out) == 1
    row = out[0]
    assert row["n_runs"] == 3
    assert row["machine_f1_macro_mean"] == pytest.approx(0.5)
    assert row["machine_f1_macro_std"] == pytest.approx(math.sqrt(0.06))  # population std
    assert row["human_f1_macro_mean"] == pytest.approx(0.6)
    assert row["human_f1_macro_std"] == pytest.approx(math.sqrt(0.08))
    path = tmp_path / "agg.csv"
    write_aggregate(out, path)
    assert path.read_text().splitlines()[0].startswith("budget_exhausted,n_runs,machine")


def test_harness_config_validation():
    for bad in (dict(update_freq=0), dict(update_freq=600), dict(agent="bogus"),
                dict(pick_prob=1.5), dict(theta0=0.0), dict(seeds=()),
                dict(seeds=(1, -1)), dict(seeds=(3, 1, 3)),
                dict(diversity_cap=499), dict(agent="diversity", diversity_cap=0),
                dict(k=0), dict(k=-2), dict(dt_scale=0.0), dict(dt_scale=-1.0),
                # caught when the config is built, not at the first refit
                dict(learner_epochs=0), dict(learner_batch=0), dict(learner_lr=0.0)):
        with pytest.raises(ValueError):
            _base_cfg(budget=500, **{**dict(update_freq=25), **bad})
    # a pool of exactly `budget` documents still yields `budget` clusters
    assert _base_cfg(agent="diversity", budget=500, update_freq=25, diversity_cap=500)


LABELS3 = LabelSpace(["a", "b", "c"])
REFERENCE_ORACLES = {
    "sigmoid": DecayModel("sigmoid", alpha=0.5, beta=4.0),
    "exponential": DecayModel("exponential", alpha=0.3, beta=-4.0),
}


@pytest.fixture(scope="module")
def reference_corpus():
    train = _docs([150, 90, 60], dim=5, sep=2.0, seed=21, labels=LABELS3)
    test = _docs([40, 40, 40], dim=5, sep=2.0, seed=22, labels=LABELS3, start_id=len(train))
    net = DenseNet([5 + 3, 8, 2], seed=4)  # untrained: picks depend on the recency tail
    return train, test, net


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("oracle", sorted(REFERENCE_ORACLES))
@pytest.mark.parametrize("agent", ["random", "uncertainty", "diversity", "oris"])
def test_run_experiment_matches_reference_loop(reference_corpus, agent, oracle, k):
    train, test, net = reference_corpus
    cfg = HarnessConfig(labels=LABELS3, agent=agent, budget=60, update_freq=15,
                        seeds=(1, 2, 3), oracle=REFERENCE_ORACLES[oracle], k=k,
                        diversity_cap=200, learner_epochs=5)
    record = run_experiment(train, test, cfg, net=net if agent == "oris" else None)
    diversity_ids = frozenset(
        train[row].id for row in diversity_select(_matrix(train), cfg.budget, cap=cfg.diversity_cap)
    ) if agent == "diversity" else frozenset()
    ref_rows, ref_partial = [], []
    for run_id, seed in enumerate(cfg.seeds):
        rows, completed = reference_single_run(train, test, cfg, net, diversity_ids,
                                               run_id, seed)
        ref_rows.extend(rows)
        if not completed:
            ref_partial.append(run_id)
    assert record.rows == ref_rows  # floats compared exactly
    assert record.partial_runs == ref_partial
    assert sum(r.oracle_errors for r in record.rows) > 0  # the annotator did slip


def test_uncertainty_reference_run_discards(reference_corpus):
    """At the default 50 epochs the classifier is sure of some documents, so
    every run discards: its picks are not the first `budget` documents of
    its stream. The agent must decide each position on the classifier of
    the last refit, as the reference loop does."""
    train, test, _ = reference_corpus
    cfg = HarnessConfig(labels=LABELS3, agent="uncertainty", budget=60, update_freq=15,
                        seeds=(1, 2, 3), oracle=REFERENCE_ORACLES["sigmoid"], k=1,
                        learner_epochs=50)
    record = run_experiment(train, test, cfg)
    ref_rows = []
    for run_id, seed in enumerate(cfg.seeds):
        picks = []
        rows, _ = reference_single_run(train, test, cfg, None, frozenset(), run_id, seed,
                                       picks=picks)
        ref_rows.extend(rows)
        first = np.random.default_rng(seed).permutation(len(train))[:cfg.budget]
        assert [true for true, _ in picks] != [train[row].true_class for row in first]
    assert record.rows == ref_rows  # floats compared exactly


@pytest.mark.parametrize("short", [False, True], ids=["full", "short"])
@pytest.mark.parametrize("C", [9, 13])
def test_uncertainty_sweep_matches_the_reference_above_eight_classes(C, short):
    """At C >= 8 the scorer sums the entropy terms in numpy's pairwise order.
    The sweep writes the rows and partial runs of the reference loop, which
    scores one document at a time. The short stream is about as long as the
    budget, so the runs that discard end before it."""
    labels = LabelSpace([f"c{c}" for c in range(C)])
    budget = 90
    per_class = -(-budget // C) if short else 40
    train = _docs([per_class] * C, dim=C, sep=3.0, seed=41, labels=labels)
    test = _docs([4] * C, dim=C, sep=3.0, seed=42, labels=labels, start_id=1000)
    cfg = HarnessConfig(labels=labels, agent="uncertainty", budget=budget, update_freq=15,
                        seeds=(1, 2, 3), oracle=REFERENCE_ORACLES["sigmoid"])
    record = run_experiment(train, test, cfg)
    ref_rows, ref_partial = [], []
    for run_id, seed in enumerate(cfg.seeds):
        rows, completed = reference_single_run(train, test, cfg, None, frozenset(), run_id, seed)
        ref_rows.extend(rows)
        if not completed:
            ref_partial.append(run_id)
    assert record.rows == ref_rows  # floats compared exactly
    assert record.partial_runs == ref_partial
    assert bool(ref_partial) == short


PROPERTY_TRAIN = _docs([14, 10, 6], dim=3, sep=2.0, seed=31, labels=LABELS3)
PROPERTY_TEST = _docs([5, 5, 5], dim=3, sep=2.0, seed=32, labels=LABELS3, start_id=100)
PROPERTY_NET = DenseNet([3 + 3, 8, 2], seed=5)
# oris nets of the property tests: one whose picks depend on the recency
# tail, one that never picks, one that always picks and one that picks by
# the embedding
PROPERTY_NETS = {"untrained": PROPERTY_NET, "never": _never_pick_net(3 + 3),
                 "always": _always_pick_net(3 + 3), "threshold": _threshold_net(3 + 3)}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_lockstep_sweep_equals_one_seed_sweeps(data):
    """Stacking the runs' refits keeps them independent: a sweep over seeds
    s1..sS gives exactly the rows and partial flags of S one-seed sweeps."""
    update_freq = data.draw(st.integers(1, 6), label="update_freq")
    cfg = HarnessConfig(
        labels=LABELS3,
        agent=data.draw(st.sampled_from(AGENT_KINDS), label="agent"),
        budget=data.draw(st.integers(update_freq, 28), label="budget"),
        update_freq=update_freq,
        seeds=tuple(data.draw(st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=4,
                                       unique=True), label="seeds")),
        oracle=data.draw(st.sampled_from([DecayModel("perfect"), *REFERENCE_ORACLES.values()]),
                         label="oracle"),
        k=data.draw(st.integers(1, 3), label="k"),
        pick_prob=data.draw(st.sampled_from([None, 0.5, 0.8, 1.0]), label="pick_prob"),
        learner_epochs=3, learner_batch=4,
    )
    record = run_experiment(PROPERTY_TRAIN, PROPERTY_TEST, cfg, net=PROPERTY_NET)
    singles = [run_experiment(PROPERTY_TRAIN, PROPERTY_TEST,
                              dataclasses.replace(cfg, seeds=(seed,)), net=PROPERTY_NET)
               for seed in cfg.seeds]
    assert record.rows == [dataclasses.replace(row, run_id=run_id)
                           for run_id, single in enumerate(singles) for row in single.rows]
    assert record.partial_runs == [run_id for run_id, single in enumerate(singles)
                                   if single.partial_runs == [0]]
    for run_id in range(len(cfg.seeds)):
        rows = [r for r in record.rows if r.run_id == run_id]
        if run_id not in record.partial_runs:
            assert len(rows) == cfg.budget // cfg.update_freq
        assert [r.picks for r in rows] == [cfg.update_freq * (i + 1) for i in range(len(rows))]
        assert all(r.budget_exhausted == r.picks <= cfg.budget for r in rows)
        errors = [r.oracle_errors for r in rows]
        assert errors == sorted(errors)
        assert all(r.oracle_errors <= r.picks for r in rows)


@pytest.mark.parametrize("short_stream", [False, True], ids=["full", "short"])
@pytest.mark.parametrize("agent", AGENT_KINDS)
def test_sweep_fit_many_calls(monkeypatch, reference_corpus, agent, short_stream):
    """Only the uncertainty agent reads its classifier, so only its sweep
    fits once per refit level; any other sweep fits every refit of every
    run in one call. The rows keep the order of the per-run loops."""
    train, test, net = reference_corpus
    calls = []
    fit_many = oris.harness.fit_many

    def counted(X, y, spans, *args, **kwargs):
        calls.append([n for _, n in spans])
        return fit_many(X, y, spans, *args, **kwargs)

    monkeypatch.setattr(oris.harness, "fit_many", counted)
    if short_stream:
        train = train[::7]
    cfg = HarnessConfig(labels=LABELS3, agent=agent, budget=40 if short_stream else 60,
                        update_freq=10 if short_stream else 15, seeds=(1, 2, 3, 4),
                        oracle=REFERENCE_ORACLES["sigmoid"], pick_prob=0.5 if short_stream else 0.3,
                        theta0=1.0, diversity_cap=200, learner_epochs=20)
    record = run_experiment(train, test, cfg, net=net if agent == "oris" else None)
    assert record.rows == sorted(record.rows, key=lambda r: (r.run_id, r.budget_exhausted))
    levels = max((r.budget_exhausted // cfg.update_freq for r in record.rows), default=0)
    if agent == "uncertainty":
        assert len(calls) == levels
        assert calls == [[cfg.update_freq * (i + 1)] * sum(
            r.budget_exhausted == cfg.update_freq * (i + 1) for r in record.rows)
            for i in range(levels)]
    else:
        assert calls == [[r.picks for r in record.rows]]
    if short_stream and agent != "diversity":  # diversity picks `budget` docs of any stream
        assert record.partial_runs


@pytest.mark.parametrize("agent", AGENT_KINDS)
def test_fit_many_splits_a_sweep_beyond_order_ids(monkeypatch, reference_corpus, agent):
    """At f = 1 a sweep fits a refit per pick. With ORDER_IDS small,
    fit_many fits its spans in groups of a lone span or of at most
    ORDER_IDS ids, every refit once, and the record is the unsplit one."""
    train, test, net = reference_corpus
    cfg = HarnessConfig(labels=LABELS3, agent=agent, budget=30, update_freq=1, seeds=(1, 2, 3),
                        oracle=REFERENCE_ORACLES["sigmoid"], diversity_cap=200, learner_epochs=2)
    net = net if agent == "oris" else None
    whole = run_experiment(train, test, cfg, net=net)
    calls, fitted = [], []  # the spans of every call, and of every call that fit its own
    fit_many = oris.learner.fit_many

    def spied(X, y, spans, *args, **kwargs):
        calls.append(spans)
        made = len(calls)
        clfs = fit_many(X, y, spans, *args, **kwargs)
        if len(calls) == made:  # it called no fit_many of its own
            fitted.append([n for _, n in spans])
        return clfs

    monkeypatch.setattr(oris.harness, "fit_many", spied)
    monkeypatch.setattr(oris.learner, "fit_many", spied)
    monkeypatch.setattr(oris.learner, "ORDER_IDS", 60)
    assert run_experiment(train, test, cfg, net=net) == whole
    assert all(len(sizes) == 1 or len(sizes) * max(sizes) <= 60 for sizes in fitted)
    assert sorted(b for sizes in fitted for b in sizes) == sorted(r.picks for r in whole.rows)
    assert len(fitted) < len(calls) and max(map(len, fitted)) > 1  # it split, into groups


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_error_counts_and_human_f1_match_the_replayed_picks(data):
    """Each row's oracle_errors is the number of emitted labels that differ
    from the true class over the run's first b picks, and its human f1 is
    f1_macro of those labels; the picks are replayed by the reference loop,
    which decides every document on its own, and its rows and partial runs
    are the sweep's. The oris net may never or always pick, and the stream
    may be shorter than the agent's SCORE_AHEAD."""
    update_freq = data.draw(st.integers(1, 6), label="update_freq")
    cfg = HarnessConfig(
        labels=LABELS3,
        agent=data.draw(st.sampled_from(AGENT_KINDS), label="agent"),
        budget=data.draw(st.integers(update_freq, 28), label="budget"),
        update_freq=update_freq,
        seeds=tuple(data.draw(st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=3,
                                       unique=True), label="seeds")),
        oracle=data.draw(st.sampled_from(sorted(REFERENCE_ORACLES.values(), key=repr)),
                         label="oracle"),
        learner_epochs=2, learner_batch=4,
    )
    net = PROPERTY_NETS[data.draw(st.sampled_from(sorted(PROPERTY_NETS)), label="net")]
    train = PROPERTY_TRAIN
    if cfg.agent != "diversity":  # which needs `budget` documents
        train = PROPERTY_TRAIN[:data.draw(st.sampled_from([30, 5, 1]), label="stream length")]
    record = run_experiment(train, PROPERTY_TEST, cfg, net=net)
    diversity_ids = frozenset(
        train[row].id for row in diversity_select(_matrix(train), cfg.budget, cap=cfg.diversity_cap)
    ) if cfg.agent == "diversity" else frozenset()
    ref_partial = []
    for run_id, seed in enumerate(cfg.seeds):
        picks = []
        ref_rows, completed = reference_single_run(train, PROPERTY_TEST, cfg, net, diversity_ids,
                                                   run_id, seed, picks=picks)
        if not completed:
            ref_partial.append(run_id)
        rows = [r for r in record.rows if r.run_id == run_id]
        assert rows == ref_rows
        assert len(rows) == len(picks) // cfg.update_freq
        for row in rows:
            first = picks[:row.picks]
            assert len(first) == row.picks
            assert row.oracle_errors == sum(true != emitted for true, emitted in first)
            true, emitted = zip(*first)
            assert row.human_f1_macro == f1_macro(list(true), list(emitted), LABELS3)
    assert record.partial_runs == ref_partial


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_block_picks_match_a_walk_that_scores_every_position_alone(data):
    """The oris and uncertainty agents' walker picks what a walk over every
    position picks when each position is scored on its own. The value at
    position t depends on t and on the scorer's version b // every, which
    the `every`-th pick of a block changes; the scorer returns blocks of
    any length from 1 to the rest of the stream, and the consumer stops at
    a budget, which may fall in mid-block."""
    stream_len = data.draw(st.integers(0, 30), label="stream length")
    every = data.draw(st.integers(1, 5), label="every")
    budget = data.draw(st.integers(1, 35), label="budget")
    rate = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]), label="pick rate")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    values = rng.random((stream_len + 1, stream_len))  # [version, position]
    picks = []

    def score(t, b, left):
        assert 0 <= t < stream_len and b == len(picks) and left == every - b % every
        rows = data.draw(st.integers(1, stream_len - t), label="block")
        return values[b // every, t:t + rows].tolist()

    def picked(value, b):  # the rule reads the current b, as uncertainty's threshold does
        return value < rate - b / 100

    for t in oris.harness._block_picks(stream_len, every, score, picked):
        picks.append(t)
        if len(picks) == budget:
            break
    walked = []
    for t in range(stream_len):
        if len(walked) < budget and picked(values[len(walked) // every, t], len(walked)):
            walked.append(t)
    assert picks == walked


@pytest.mark.parametrize("case", ["never picks", "always picks", "short stream",
                                  "budget mid-chunk", "f = 1"])
def test_oris_scores_chunks_and_matches_the_one_document_reference(monkeypatch, case):
    """The oris agent scores up to SCORE_AHEAD positions per decide call,
    from the position after the last pick, and its sweep writes the rows
    and partial runs of the reference loop, which decides one document at
    a time."""
    calls = []  # (rows scored, positions picked) per decide call
    decide = oris.harness.decide

    def recorded(net, states):
        actions = decide(net, states)
        calls.append((len(states), [j for j, action in enumerate(actions) if action == PICK]))
        return actions

    monkeypatch.setattr(oris.harness, "decide", recorded)
    net, train, budget, update_freq = {
        "never picks": (PROPERTY_NETS["never"], PROPERTY_TRAIN, 10, 5),
        "always picks": (PROPERTY_NETS["always"], PROPERTY_TRAIN, 12, 4),
        "short stream": (PROPERTY_NETS["always"], PROPERTY_TRAIN[:5], 10, 5),
        "budget mid-chunk": (PROPERTY_NETS["threshold"], PROPERTY_TRAIN, 3, 3),
        "f = 1": (PROPERTY_NETS["untrained"], PROPERTY_TRAIN, 9, 1),
    }[case]
    cfg = HarnessConfig(labels=LABELS3, agent="oris", budget=budget, update_freq=update_freq,
                        seeds=(1, 2, 3), oracle=REFERENCE_ORACLES["sigmoid"],
                        learner_epochs=2, learner_batch=4)
    record = run_experiment(train, PROPERTY_TEST, cfg, net=net)
    ref_rows, ref_partial = [], []
    for run_id, seed in enumerate(cfg.seeds):
        rows, completed = reference_single_run(train, PROPERTY_TEST, cfg, net, frozenset(),
                                               run_id, seed)
        ref_rows.extend(rows)
        if not completed:
            ref_partial.append(run_id)
    assert record.rows == ref_rows
    assert record.partial_runs == ref_partial

    ahead = oris.harness.SCORE_AHEAD
    assert ahead == 8 and all(1 <= rows <= ahead for rows, _ in calls)
    if case == "never picks":  # 30 documents: three full chunks and one of 6
        assert record.rows == [] and record.partial_runs == [0, 1, 2]
        assert calls == [(8, []), (8, []), (8, []), (6, [])] * 3
    elif case in ("always picks", "short stream"):  # a chunk per pick, from the next document
        chunks = [min(ahead, len(train) - t) for t in range(min(budget, len(train)))]
        assert calls == [(rows, list(range(rows))) for rows in chunks] * 3
    elif case == "budget mid-chunk":  # later positions were scored, and are dropped
        assert not record.partial_runs
        rows, picked = calls[-1]  # the chunk of the last run's last pick
        assert 0 < picked[0] < picked[-1] < rows
    else:
        assert len(record.rows) == 3 * budget


# well apart: after its first refit the classifier is sure of every document
SEPARATED = _docs([40, 40, 40], dim=5, sep=40.0, seed=23, labels=LABELS3)


def _walk_recorded(calls, cfg, stream_length):
    """Walk the scores of a one-seed uncertainty run's scorer calls, as the
    agent does from its first refit. Returns, per call, the rows of the
    block up to the next refit, the rows scored, the rows decided and the
    picks after it, and checks that a call scores its block."""
    f = t = b = cfg.update_freq  # the first f positions are picked unscored
    walked = []
    for scores in calls:
        block = -(-(f - b % f) * t // b)  # ceil: picks still needed times positions per pick
        assert len(scores) == min(block, stream_length - t)
        for decided, entropy in enumerate(scores, 1):
            t += 1
            if entropy >= cfg.theta0 * (1.0 - b / cfg.budget):
                b += 1
                if b % f == 0 or b == cfg.budget:
                    break
        walked.append((block, len(scores), decided, b))
    return walked


@pytest.mark.parametrize("case", ["f = 1", "budget mid-block", "short stream",
                                  "refit drops a tail", "never picks again"])
def test_uncertainty_scores_blocks_and_matches_the_one_document_reference(
        monkeypatch, reference_corpus, case):
    """From its first refit the uncertainty agent scores, per call, the
    positions up to its next refit: ceil((f - b % f) * t / b) from position
    t at b picks, or the rest of the stream. It walks them at the threshold
    of the current b, and the budget or a refit drops the rest of the block.
    Its sweep writes the rows and partial runs of the reference loop, which
    decides one document at a time."""
    calls = []  # the scores of every call
    scores = oris.harness.uncertainty_scores

    def recorded(clf, X):
        calls.append(scores(clf, X))
        return calls[-1]

    monkeypatch.setattr(oris.harness, "uncertainty_scores", recorded)
    train, test, _ = reference_corpus
    train, budget, update_freq = {
        "f = 1": (train, 20, 1),
        "budget mid-block": (train, 10, 4),
        "short stream": (train[:45], 60, 15),
        "refit drops a tail": (train, 60, 15),
        "never picks again": (SEPARATED, 30, 10),
    }[case]
    for seed in (1, 2, 3):
        calls.clear()
        cfg = HarnessConfig(labels=LABELS3, agent="uncertainty", budget=budget,
                            update_freq=update_freq, seeds=(seed,),
                            oracle=REFERENCE_ORACLES["sigmoid"])
        record = run_experiment(train, test, cfg)
        rows, completed = reference_single_run(train, test, cfg, None, frozenset(), 0, seed)
        assert record.rows == rows
        assert record.partial_runs == ([] if completed else [0])

        walked = _walk_recorded(calls, cfg, len(train))
        picks = walked[-1][-1]
        assert len(record.rows) == picks // update_freq
        cut = [scored - decided for _, scored, decided, _ in walked]  # rows dropped per call
        if case == "f = 1":  # a refit after every pick ends the block
            assert completed and any(cut)
        elif case == "budget mid-block":  # the last pick is not a refit's
            assert completed and picks % update_freq and cut[-1] > 0
        elif case == "short stream":  # the last block is cut by the stream's end
            block, scored, decided, _ = walked[-1]
            assert not completed and decided == scored < block
        elif case == "refit drops a tail":
            assert completed and sum(n > 0 for n in cut[:-1]) > 0
        else:  # the blocks double: t / b doubles at every call
            assert not completed and picks == update_freq and cut == [0] * len(cut)
            assert [len(s) for s in calls] == [10, 20, 40, 40]
