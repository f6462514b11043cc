import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_f1_macro,
    max_relative_error,
    reference_cross_entropy_grads,
    reference_fit,
)
from oris.corpus import LabelSpace, generate_synthetic
from oris.learner import (
    SoftmaxClassifier,
    _class_sum,
    cross_entropy_and_grads,
    f1_macro,
    fit,
    fit_many,
    predict,
    predict_proba,
)

LABELS2 = LabelSpace(["a", "b"])
LABELS5 = LabelSpace(["c0", "c1", "c2", "c3", "c4"])


def test_fit_separable_data():
    docs = generate_synthetic(LABELS2, [100, 100], 2, 10.0, seed=0)
    pairs = [(d.embedding, d.true_class) for d in docs]
    clf = fit(pairs, LABELS2, seed=1)
    preds = predict(clf, np.stack([d.embedding for d in docs]))
    accuracy = np.mean(preds == [d.true_class for d in docs])
    assert accuracy >= 0.99


def test_fit_single_class_predicts_it_everywhere():
    rng = np.random.default_rng(2)
    pairs = [(rng.standard_normal(3), 1) for _ in range(50)]
    clf = fit(pairs, LABELS2, seed=0)
    preds = predict(clf, rng.standard_normal((100, 3)))
    assert np.all(preds == 1)


def test_fit_deterministic_under_seed():
    rng = np.random.default_rng(3)
    pairs = [(rng.standard_normal(4), int(rng.integers(2))) for _ in range(64)]
    a = fit(pairs, LABELS2, seed=9)
    b = fit(pairs, LABELS2, seed=9)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    c = fit(pairs, LABELS2, seed=10)
    assert not np.array_equal(a.weights, c.weights)


def _noisy_pairs(n, seed, num_classes=5, dim=8, absent=None):
    """Gaussian class clusters with 20% of labels replaced at random."""
    rng = np.random.default_rng(seed)
    classes = [c for c in range(num_classes) if c != absent]
    centers = 3.0 * rng.standard_normal((num_classes, dim))
    true = rng.choice(classes, size=n)
    noisy = np.where(rng.random(n) < 0.2, rng.choice(classes, size=n), true)
    X = centers[true] + rng.standard_normal((n, dim))
    return [(X[i], int(noisy[i])) for i in range(n)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("batch_size", [1, 7, 32, 600])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 500])
def test_fit_bit_identical_to_reference_loop(n, batch_size, seed):
    pairs = _noisy_pairs(n, seed=100 * n + seed)
    epochs = 2 if n * 50 // batch_size > 5000 else 50
    clf = fit(pairs, LABELS5, seed=seed, epochs=epochs, batch_size=batch_size, lr=0.1)
    W, b = reference_fit(pairs, 5, seed=seed, epochs=epochs, batch_size=batch_size, lr=0.1)
    assert np.array_equal(clf.weights, W)
    assert np.array_equal(clf.bias, b)


def test_fit_bit_identical_to_reference_loop_with_absent_class():
    pairs = _noisy_pairs(200, seed=11, absent=3)
    assert 3 not in {label for _, label in pairs}
    clf = fit(pairs, LABELS5, seed=4, epochs=20, batch_size=32, lr=0.1)
    W, b = reference_fit(pairs, 5, seed=4, epochs=20, batch_size=32, lr=0.1)
    assert np.array_equal(clf.weights, W)
    assert np.array_equal(clf.bias, b)


def test_cross_entropy_grads_bit_identical_to_reference():
    rng = np.random.default_rng(12)
    for n in (1, 5, 32):
        W = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        X = rng.standard_normal((n, 8))
        y = rng.integers(0, 5, size=n)
        _, dW, db = cross_entropy_and_grads(W, b, X, y)
        ref_dW, ref_db = reference_cross_entropy_grads(W, b, X, y)
        assert np.array_equal(dW, ref_dW)
        assert np.array_equal(db, ref_db)


def test_fit_rejects_empty():
    with pytest.raises(ValueError):
        fit([], LABELS2, seed=0)


def _store(blocks):
    """One (X, y) row store holding the pairs of every block in turn."""
    pairs = [pair for block in blocks for pair in block]
    return np.array([x for x, _ in pairs]), np.array([label for _, label in pairs])


def _span_pairs(X, y, start, n):
    return [(X[r], int(y[r])) for r in range(start, start + n)]


@pytest.mark.parametrize("batch_size", [1, 7, 32, 600])
@pytest.mark.parametrize("stacked", [1, 3, 5])
@pytest.mark.parametrize("n", [1, 25, 31, 32, 33, 250, 500])
def test_fit_many_bit_identical_to_per_run_fit_and_reference(n, stacked, batch_size):
    sets = [_noisy_pairs(n, seed=1000 * n + s) for s in range(stacked)]
    X, y = _store(sets)
    seeds = [7 * s + 1 for s in range(stacked)]
    epochs = 2 if n * 50 // batch_size > 5000 else 50
    clfs = fit_many(X, y, [(s * n, n) for s in range(stacked)], LABELS5, seeds,
                    epochs=epochs, batch_size=batch_size, lr=0.1)
    assert len(clfs) == stacked
    for pairs, seed, clf in zip(sets, seeds, clfs):
        alone = fit(pairs, LABELS5, seed=seed, epochs=epochs, batch_size=batch_size, lr=0.1)
        W, b = reference_fit(pairs, 5, seed=seed, epochs=epochs, batch_size=batch_size, lr=0.1)
        for got in (alone, clf):
            assert np.array_equal(got.weights, W)
            assert np.array_equal(got.bias, b)


MIXED_SIZES = {
    "harness refit sizes": [25 * i for i in range(1, 21)],
    "last batch of one row": [33, 225, 1, 64, 33, 40],
    "below the batch size": [5, 31, 7, 12, 31],
    "all equal": [40, 40, 40, 40],
    # at offset 32 with batch 32: groups of 3 spans at 32 rows, 1 at 13 and 2 at 8; numpy
    # would sum a lone span's rows pairwise in the class-major layout
    "a lone span of 13 rows among groups": [64, 64, 64, 45, 40, 40],
}


@pytest.mark.parametrize("batch_size", [7, 32])
@pytest.mark.parametrize("overlapping", [True, False], ids=["overlapping", "disjoint"])
@pytest.mark.parametrize("case", sorted(MIXED_SIZES))
def test_fit_many_mixed_sizes_bit_identical_to_fit_and_reference(case, overlapping, batch_size):
    """Spans of any sizes in one call, given in no particular order, either
    as overlapping leading spans of two blocks (as run_experiment passes a
    sweep's runs) or as disjoint spans; each result is that of its own
    span's pairs."""
    _check_mixed_sizes(case, overlapping, batch_size, num_classes=5)


@pytest.mark.parametrize("num_classes", [2, 8, 9, 28, 130])
@pytest.mark.parametrize("batch_size", [7, 32])
@pytest.mark.parametrize("overlapping", [True, False], ids=["overlapping", "disjoint"])
@pytest.mark.parametrize("case", sorted(MIXED_SIZES))
def test_fit_many_mixed_sizes_at_other_class_counts(case, overlapping, batch_size, num_classes):
    """The same at class counts on both sides of 8 and of 128, where numpy
    changes the order of its sums over the classes."""
    _check_mixed_sizes(case, overlapping, batch_size, num_classes)


@pytest.mark.parametrize("num_classes", [1, 2, 5, 7, 8, 9, 16, 17, 128, 129, 130, 300])
def test_class_sum_is_numpys_sum_over_a_contiguous_last_axis(num_classes):
    """fit_many sums the classes of a class-major array; the sum must round
    as numpy's over the last axis of the row-major array, whose order
    changes at 8 and above 128 classes."""
    rng = np.random.default_rng(num_classes)
    for shape in [(), (1,), (3,), (1, 1), (4, 3), (33, 7)]:
        x = np.exp(3.0 * rng.standard_normal(shape + (num_classes,)))
        got = _class_sum(np.ascontiguousarray(x.T)).T
        assert np.array_equal(got, np.add.reduce(x, axis=-1))


def _check_mixed_sizes(case, overlapping, batch_size, num_classes):
    sizes = MIXED_SIZES[case]
    labels = LabelSpace([f"c{i}" for i in range(num_classes)])
    if overlapping:
        X, y = _store([_noisy_pairs(max(sizes), seed=40 + r, num_classes=num_classes)
                       for r in range(2)])
        spans = [(i % 2 * max(sizes), n) for i, n in enumerate(sizes)]
    else:
        X, y = _store([_noisy_pairs(n, seed=50 + i, num_classes=num_classes)
                       for i, n in enumerate(sizes)])
        spans = [(sum(sizes[:i]), n) for i, n in enumerate(sizes)]
    seeds = [3 * i + 2 for i in range(len(spans))]
    clfs = fit_many(X, y, spans, labels, seeds, epochs=5, batch_size=batch_size, lr=0.1)
    assert len(clfs) == len(spans)
    for (start, n), seed, clf in zip(spans, seeds, clfs):
        pairs = _span_pairs(X, y, start, n)
        alone = fit(pairs, labels, seed=seed, epochs=5, batch_size=batch_size, lr=0.1)
        W, b = reference_fit(pairs, num_classes, seed=seed, epochs=5, batch_size=batch_size,
                             lr=0.1)
        for got in (alone, clf):
            assert np.array_equal(got.weights, W)
            assert np.array_equal(got.bias, b)


def _check_spans_against_reference(X, y, spans, num_classes, batch_size, epochs=2):
    labels = LabelSpace([f"c{i}" for i in range(num_classes)])
    seeds = [11 * i + 3 for i in range(len(spans))]
    clfs = fit_many(X, y, spans, labels, seeds, epochs=epochs, batch_size=batch_size, lr=0.1)
    for (start, n), seed, clf in zip(spans, seeds, clfs):
        W, b = reference_fit(_span_pairs(X, y, start, n), num_classes, seed=seed,
                             epochs=epochs, batch_size=batch_size, lr=0.1)
        assert np.array_equal(clf.weights, W)
        assert np.array_equal(clf.bias, b)


# span counts s against the class count C: a step takes its bias row sum over
# the class-major array only when s > C
SPAN_COUNTS = {
    "a lone span": lambda C: 1,
    "fewer spans than classes": lambda C: C - 1,
    "as many spans as classes": lambda C: C,
    "one span more than classes": lambda C: C + 1,
    "many more spans than classes": lambda C: 3 * C + 1,
}
# a case holds s (C, E + 1) parameter and gradient arrays; leave out those
# above about 80 MB (many more spans than 130 classes at E = 300)
STEP_CASES = [(C, E, kind) for C in (2, 5, 9, 130) for E in (1, 8, 13, 50, 300)
              for kind in SPAN_COUNTS if SPAN_COUNTS[kind](C) * C * (E + 1) <= 5_200_000]


@pytest.mark.parametrize("num_classes,dim,kind", STEP_CASES)
def test_fit_many_step_layouts_bit_identical_to_reference(num_classes, dim, kind):
    """Equal spans of 21 rows at batch 10 stack all s spans in every step,
    two of 10 rows (which numpy would sum pairwise over a contiguous axis)
    and a last one of one row, at embedding widths from 1 to 300."""
    s = SPAN_COUNTS[kind](num_classes)
    rng = np.random.default_rng(1000 * num_classes + dim)
    X = rng.standard_normal((28, dim))
    y = rng.integers(0, num_classes, size=len(X))
    _check_spans_against_reference(X, y, [(i % 8, 21) for i in range(s)], num_classes,
                                   batch_size=10)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_fit_many_bit_identical_to_reference_at_drawn_shapes(data):
    """Drawn class counts (on both sides of 8 and of 128), widths, batch
    sizes and span sizes, so that steps stack fewer, as many and more spans
    than classes, lone spans and batches of one row."""
    num_classes = data.draw(st.one_of(st.integers(2, 9), st.sampled_from([127, 128, 129])),
                            label="classes")
    dim = data.draw(st.sampled_from([1, 2, 8, 13, 50]), label="dim")
    batch_size = data.draw(st.integers(1, 16), label="batch")
    sizes = data.draw(st.lists(st.integers(1, 3 * batch_size), min_size=1, max_size=32),
                      label="sizes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    X = rng.standard_normal((max(sizes) + 3, dim))
    y = rng.integers(0, num_classes, size=len(X))
    spans = [(i % 4, n) for i, n in enumerate(sizes)]
    _check_spans_against_reference(X, y, spans, num_classes, batch_size)


def test_fit_many_never_reads_rows_outside_its_spans():
    """run_experiment's row store is np.empty and a partial run never writes
    its last rows, so rows outside every span (NaN here, with labels that
    differ from a written row's) must not reach any result."""
    rng = np.random.default_rng(70)
    X = np.full((300, 8), np.nan)
    y = rng.integers(0, 5, size=300)
    for lo, hi in [(10, 100), (150, 250), (299, 300)]:
        X[lo:hi], y[lo:hi] = _store([_noisy_pairs(hi - lo, seed=lo)])
    spans = [(10, 90), (150, 100), (10, 33), (160, 7), (299, 1), (40, 60)]
    seeds = [5, 6, 7, 8, 9, 10]
    clfs = fit_many(X, y, spans, LABELS5, seeds, epochs=5)
    for (start, n), seed, clf in zip(spans, seeds, clfs):
        alone = fit(_span_pairs(X, y, start, n), LABELS5, seed=seed, epochs=5)
        assert np.array_equal(clf.weights, alone.weights)
        assert np.array_equal(clf.bias, alone.bias)


def test_fit_many_rejects_bad_spans_seeds_and_labels():
    X, y = _store([_noisy_pairs(10, seed=1)])
    with pytest.raises(ValueError, match="at least one span"):
        fit_many(X, y, [], LABELS5, [])
    for span in [(0, 0), (4, -1), (5, 6), (10, 1), (-1, 2)]:
        with pytest.raises(ValueError, match="empty or not within the 10 rows"):
            fit_many(X, y, [(0, 10), span], LABELS5, [0, 1])
    with pytest.raises(ValueError, match="one seed per span"):
        fit_many(X, y, [(0, 10), (0, 5)], LABELS5, [0])
    for lr in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="lr > 0"):
            fit_many(X, y, [(0, 10)], LABELS5, [0], lr=lr)
    for label in (5, -1):
        y[4] = label
        with pytest.raises(ValueError, match="label outside"):
            fit_many(X, y, [(0, 10)], LABELS5, [0])


def test_predict_proba_uniform_for_zero_parameters():
    clf = SoftmaxClassifier(np.zeros((5, 3)), np.zeros(5))
    probs = predict_proba(clf, np.ones(3))
    assert np.allclose(probs, 0.2)


def test_predict_proba_sums_to_one():
    rng = np.random.default_rng(4)
    clf = SoftmaxClassifier(rng.standard_normal((5, 3)), rng.standard_normal(5))
    probs = predict_proba(clf, rng.standard_normal((20, 3)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("shape", [(9,), (1, 9), (1000, 9)], ids=["vector", "row", "batch"])
def test_predict_proba_equals_plain_softmax(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    weights = 4.0 * rng.standard_normal((9, 9))
    bias = rng.standard_normal(9)
    weights[3], bias[3] = weights[7], bias[7]  # tied logits: the row max is reached twice
    clf = SoftmaxClassifier(weights, bias)
    x = rng.standard_normal(shape)
    z = x @ clf.weights.T + clf.bias
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    assert np.array_equal(predict_proba(clf, x), e / e.sum(axis=-1, keepdims=True))


def test_predict_proba_analytic_logits():
    # logits [ln 3, 0] -> probabilities [0.75, 0.25]
    clf = SoftmaxClassifier(np.array([[math.log(3.0)], [0.0]]), np.zeros(2))
    probs = predict_proba(clf, np.array([1.0]))
    assert np.allclose(probs, [0.75, 0.25], atol=1e-12)


def test_cross_entropy_gradient_check():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
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
        worst = max(worst, max_relative_error([(dW, db)], [(fd_W, fd_b)]))
    assert worst < 1e-4


def test_f1_macro_perfect():
    assert f1_macro([0, 1, 0, 1], [0, 1, 0, 1], LABELS2) == 1.0


def test_f1_macro_hand_case():
    # true [A,A,B,B], pred [A,B,B,B] -> (2/3 + 4/5) / 2
    got = f1_macro([0, 0, 1, 1], [0, 1, 1, 1], LABELS2)
    assert got == pytest.approx((2 / 3 + 4 / 5) / 2, abs=1e-12)
    assert got == pytest.approx(0.733333, abs=1e-6)


def test_f1_macro_degenerate_single_prediction():
    # all predictions one class on balanced truth -> (2/3 + 0) / 2
    assert f1_macro([0, 0, 1, 1], [0, 0, 0, 0], LABELS2) == pytest.approx(1 / 3)


def test_f1_macro_absent_class_counts_zero():
    # class c4 never appears: contributes 0 to the macro average
    true = [0, 1, 2, 3]
    assert f1_macro(true, true, LABELS5) == pytest.approx(4 / 5)


def test_f1_macro_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        true = rng.integers(0, 5, size=n)
        pred = rng.integers(0, 5, size=n)
        expected = brute_force_f1_macro(list(true), list(pred), 5)
        assert f1_macro(true, pred, LABELS5) == expected


def test_f1_macro_invariant_under_class_permutation():
    rng = np.random.default_rng(7)
    true = rng.integers(0, 5, size=100)
    pred = rng.integers(0, 5, size=100)
    base = f1_macro(true, pred, LABELS5)
    for _ in range(10):
        relabel = rng.permutation(5)
        assert f1_macro(relabel[true], relabel[pred], LABELS5) == pytest.approx(base, abs=1e-12)


def test_f1_macro_validates_lengths():
    with pytest.raises(ValueError):
        f1_macro([0, 1], [0], LABELS2)
    with pytest.raises(ValueError):
        f1_macro([], [], LABELS2)
    for true, pred in (([0, 2], [0, 1]), ([0, 1], [0, -1])):
        with pytest.raises(ValueError, match="label outside label space"):
            f1_macro(true, pred, LABELS2)


def test_human_f1_delegates():
    # scripted 4-pick case: annotator slipped once on class b
    picked_true = [0, 1, 1, 0]
    picked_emitted = [0, 1, 0, 0]
    expected = brute_force_f1_macro(picked_true, picked_emitted, 2)
    assert f1_macro(picked_true, picked_emitted, LABELS2) == expected
    assert f1_macro([0, 1], [0, 1], LABELS2) == 1.0
    assert f1_macro([0, 1], [0, 0], LABELS2) < 1.0
