import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oris.encoder import LastSeenTracker, encode_state


def test_averaged_last_seen_hand_case():
    # k=2, recorded steps [4, 6], queried at step 7 -> mean(3, 1) = 2
    tracker = LastSeenTracker(num_classes=1, k=2)
    for step in (4, 6):
        tracker.record_emission(0, step)
    assert tracker.averages(7)[0] == 2.0


def test_just_emitted_k_times_reads_zero():
    tracker = LastSeenTracker(num_classes=2, k=3)
    for _ in range(3):
        tracker.record_emission(1, 0)
    assert tracker.averages(0)[1] == 0.0


def test_fresh_tracker_padding_reads_the_step():
    tracker = LastSeenTracker(num_classes=4, k=3)
    assert all(tracker.averages(10)[c] == 10.0 for c in range(4))
    assert [tracker.since_last(c, 10) for c in range(4)] == [10] * 4


def test_emissions_at_steps_1_3_5_queried_at_6():
    tracker = LastSeenTracker(num_classes=1, k=3)
    for step in (1, 3, 5):
        tracker.record_emission(0, step)
    assert tracker.averages(6)[0] == 3.0  # mean(5, 3, 1)


def test_k1_keeps_only_latest():
    tracker = LastSeenTracker(num_classes=1, k=1)
    tracker.record_emission(0, 0)
    tracker.record_emission(0, 5)
    assert tracker.averages(5)[0] == 0.0


def test_no_pick_leaves_buffers_unchanged():
    # with no emission every recorded step stays put, so each recency grows by one per step
    tracker = LastSeenTracker(num_classes=2, k=3)
    tracker.record_emission(0, 0)
    before = tracker.averages(0)
    for step in range(1, 5):
        assert tracker.averages(step).tolist() == (before + step).tolist()
        assert [tracker.since_last(c, step) for c in range(2)] == [step, step]
    assert tracker.averages(4)[0] > 0


def test_encode_state_concatenates():
    tracker = LastSeenTracker(num_classes=2, k=1)
    tracker.record_emission(0, 0)
    tracker.record_emission(1, 5)  # dt at step 5: class0 = 5, class1 = 0
    state = encode_state(np.array([0.1, 0.2]), tracker, 5)
    assert np.allclose(state, [0.1, 0.2, 5.0, 0.0])
    assert len(state) == 2 + 2


def test_encode_state_zero_at_start():
    tracker = LastSeenTracker(num_classes=3, k=3)
    assert np.array_equal(encode_state(np.zeros(4), tracker, 0), np.zeros(7))


def test_encode_state_dt_scale():
    tracker = LastSeenTracker(num_classes=2, k=1)
    tracker.record_emission(1, 50)
    # dt at step 200: class0 = 200, class1 = 150
    state = encode_state(np.zeros(1), tracker, 200, dt_scale=100.0)
    assert np.allclose(state, [0.0, 2.0, 1.5])
    # a NaN scale would give NaN states, an infinite one a recency tail of zeros
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt_scale must be finite and > 0"):
            encode_state(np.zeros(1), tracker, 200, dt_scale=bad)


def test_dt_entries_nonnegative_and_bounded_by_step():
    rng = np.random.default_rng(0)
    tracker = LastSeenTracker(num_classes=3, k=3)
    for step in range(200):
        if rng.random() < 0.3:
            tracker.record_emission(int(rng.integers(3)), step)
        tail = encode_state(np.zeros(2), tracker, step + 1)[2:]
        assert np.all(tail >= 0.0)
        assert np.all(tail <= step + 1)


def test_freshness_monotonicity_on_scripted_trace():
    # every class emitted within the last k picks at the current step:
    # the dt tail must be elementwise <= the tail of any earlier state
    k, num_classes = 3, 2
    tracker = LastSeenTracker(num_classes, k)
    tails = []
    for step in range(12):
        tails.append(encode_state(np.zeros(1), tracker, step)[1:].copy())
        tracker.record_emission(step % num_classes, step)
    # refresh both classes k times each right before the final read
    for cls in (0, 1):
        for _ in range(k):
            tracker.record_emission(cls, 12)
    final_tail = encode_state(np.zeros(1), tracker, 12)[1:]
    for earlier in tails[1:]:  # step-0 tail is all zeros by the padding convention
        assert np.all(final_tail <= earlier)


def test_validation():
    with pytest.raises(ValueError):
        LastSeenTracker(num_classes=0, k=3)
    with pytest.raises(ValueError):
        LastSeenTracker(num_classes=2, k=0)


# at least 20,000 steps of a 28-class stream, about one op in three emitting a random class
LONG_SCRIPT = [(int(c),) if c < 28 else 1
               for c in np.random.default_rng(28).integers(0, 28 * 3, size=30_000)]
LONG_SCRIPT += [1] * (20_000 - LONG_SCRIPT.count(1))


@given(
    num_classes=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=1, max_value=4),
    script=st.lists(st.one_of(st.integers(min_value=0, max_value=30),
                              st.tuples(st.integers(min_value=0, max_value=4))),
                    max_size=60),
)
@settings(max_examples=200, deadline=None)
@example(num_classes=28, k=5, script=LONG_SCRIPT)  # running sums far past any small-case value
def test_since_last_and_averages_match_replay(num_classes, k, script):
    # script: an int moves the step that many positions forward (0 stays, more
    # skips positions), a 1-tuple emits its class (mod num_classes) at the step
    tracker = LastSeenTracker(num_classes, k)
    history = {c: [0] * k for c in range(num_classes)}  # every emission step, padded
    step = 0
    for op in script:
        if isinstance(op, tuple):
            tracker.record_emission(op[0] % num_classes, step)
            history[op[0] % num_classes].append(step)
        else:
            step += op
        for c in range(num_classes):
            assert tracker.since_last(c, step) == step - history[c][-1]
        expected = [sum(step - s for s in history[c][-k:]) / k for c in range(num_classes)]
        assert tracker.averages(step).tolist() == expected


@given(
    num_classes=st.integers(min_value=1, max_value=9),
    k=st.integers(min_value=1, max_value=4),
    emissions=st.lists(st.integers(min_value=0, max_value=8), max_size=12),
    gaps=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=12),
    dt_scale=st.sampled_from([1.0, 3.0, 0.7, 250.0]),
)
@settings(max_examples=200, deadline=None)
def test_encode_state_over_a_column_of_steps_equals_the_scalar_calls(
        num_classes, k, emissions, gaps, dt_scale):
    """A (rows, 1) column of steps, as the oris agent scores a stream chunk,
    gives row for row the bits of encode_state at each step."""
    tracker = LastSeenTracker(num_classes, k)
    for step, cls in enumerate(emissions):
        tracker.record_emission(cls % num_classes, 3 * step)
    steps = 3 * len(emissions) + np.cumsum(gaps)
    embeddings = np.random.default_rng(len(gaps)).standard_normal((len(steps), 4))
    states = encode_state(embeddings, tracker, steps[:, None], dt_scale)
    assert states.shape == (len(steps), 4 + num_classes)
    for state, emb, step in zip(states, embeddings, steps.tolist()):
        assert np.array_equal(state, encode_state(emb, tracker, step, dt_scale))
