import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from helpers import ReferenceOracle
from oris.corpus import Document, LabelSpace
from oris.encoder import LastSeenTracker
from oris.oracle import DecayModel, OracleState, error_probability

LABELS5 = LabelSpace(["c0", "c1", "c2", "c3", "c4"])


def _doc(cls):
    return Document(id=0, true_class=cls, embedding=np.zeros(2))


def _oracle(model, seed, k=1):
    return OracleState(model, LastSeenTracker(len(LABELS5), k), seed=seed)


def test_sigmoid_midpoint_exact():
    model = DecayModel("sigmoid", alpha=0.3, beta=9.0)
    assert abs(error_probability(model, 30) - 0.5) < 1e-12


def test_sigmoid_at_zero():
    model = DecayModel("sigmoid", alpha=0.3, beta=9.0)
    assert abs(error_probability(model, 0) - 1.0 / (1.0 + math.exp(9.0))) < 1e-15


def test_exponential_values_and_clipping():
    model = DecayModel("exponential", alpha=0.6, beta=-19.0)
    assert abs(error_probability(model, 20) - math.exp(-7.0)) < 1e-15
    assert error_probability(model, 35) == 1.0


def test_perfect_model_is_zero():
    model = DecayModel("perfect")
    assert error_probability(model, 0) == 0.0
    assert error_probability(model, 1e9) == 0.0


def test_invalid_model_parameters():
    with pytest.raises(ValueError):
        DecayModel("sigmoid", alpha=-0.1)
    with pytest.raises(ValueError):
        DecayModel("gaussian")
    with pytest.raises(ValueError):
        error_probability(DecayModel("sigmoid"), -1)


@pytest.mark.parametrize("kind", ["sigmoid", "exponential"])
@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_decay_model_refuses_a_non_finite_field(kind, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DecayModel(kind, **{name: value})


@given(
    kind=st.sampled_from(["sigmoid", "exponential"]),
    alpha=st.floats(min_value=0.0, max_value=5.0),
    beta=st.floats(min_value=-30.0, max_value=30.0),
    dts=st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_error_probability_monotone_and_bounded(kind, alpha, beta, dts):
    model = DecayModel(kind, alpha=alpha, beta=beta)
    probs = [error_probability(model, dt) for dt in sorted(dts)]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))


def test_annotate_perfect_is_identity():
    state = _oracle(DecayModel("perfect"), seed=0)
    step = 0
    for cls in range(5):
        for _ in range(20):
            assert state.annotate(_doc(cls), step) == cls
            step += 1


def test_annotate_certain_slip_never_emits_truth():
    # exponential with beta=0 gives probability exp(alpha*dt) >= 1 -> always slip
    state = _oracle(DecayModel("exponential", alpha=0.0, beta=0.0), seed=3)
    for _ in range(200):
        assert state.annotate(_doc(2), 0) != 2


def test_annotate_error_rate_matches_formula():
    # all classes just seen (dt = 0): expected error rate 1/(1+e^9)
    model = DecayModel("sigmoid", alpha=0.3, beta=9.0)
    state = _oracle(model, seed=11)
    n = 100_000
    p = 1.0 / (1.0 + math.exp(9.0))
    errors = 0
    for i in range(n):
        # every read is at step 0: each class stays at dt == 0
        if state.annotate(_doc(i % 5), 0) != i % 5:
            errors += 1
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(errors - n * p) <= 3 * sigma


def test_slip_target_uniform_over_other_classes():
    state = _oracle(DecayModel("exponential", alpha=0.0, beta=0.0), seed=5)
    true = 2
    counts = {c: 0 for c in range(5) if c != true}
    n = 100_000
    for _ in range(n):
        emitted = state.annotate(_doc(true), 0)
        counts[emitted] += 1
    result = chisquare(list(counts.values()))
    assert result.pvalue > 0.01


@pytest.mark.parametrize("num_classes", [2, 3, 5, 9])
def test_slip_target_draws_as_the_list_of_other_classes(num_classes):
    # one integers(C - 1) draw shifted past the true class picks the same label
    # as indexing the list of the other classes with it, draw for draw
    model = DecayModel("exponential", alpha=0.0, beta=0.0)  # every label slips
    state = OracleState(model, LastSeenTracker(num_classes, 1), seed=17)
    reference = ReferenceOracle(model, num_classes, seed=17)
    for i in range(500):
        doc = _doc(i % num_classes)
        emitted = state.annotate(doc, 0)
        assert type(emitted) is int
        assert emitted == reference.annotate(doc)


def test_refresh_memory_on_emitted_label():
    state = _oracle(DecayModel("perfect"), seed=0)
    state.annotate(_doc(3), 7)
    assert state.tracker.since_last(3, 7) == 0
    assert state.tracker.since_last(0, 7) == 7


def test_unseen_class_dt_grows_per_stream_step():
    state = _oracle(DecayModel("perfect"), seed=0)
    for step in range(1, 101):
        state.annotate(_doc(step % 4), step)
        assert state.tracker.since_last(4, step) == step


def test_interleaved_emissions_bound_dt():
    # replay a scripted alternation of classes 0 and 1 every other step;
    # each class's dt can never exceed the two-step gap between its emissions
    state = _oracle(DecayModel("perfect"), seed=0)
    for step in range(40):
        cls = step % 2
        assert state.tracker.since_last(cls, step) <= 2
        state.annotate(_doc(cls), step)


def test_annotate_refuses_a_class_outside_the_tracker():
    state = _oracle(DecayModel("perfect"), seed=0)
    with pytest.raises(ValueError, match="document class 5 outside label space"):
        state.annotate(_doc(5), 0)


def test_oracle_reads_latest_emission_of_deep_tracker():
    # with k = 3 the slip clock is the most recent emission, not the k-average
    state = _oracle(DecayModel("perfect"), seed=0, k=3)
    state.annotate(_doc(1), 4)
    assert state.tracker.since_last(1, 6) == 2
    assert state.tracker.averages(6)[1] == (2 + 6 + 6) / 3
