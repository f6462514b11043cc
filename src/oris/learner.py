"""Downstream classifier (softmax regression over embeddings) and f1-macro metrics.

The classifier is refit from scratch at every evaluation interval, so a run's
machine performance depends only on the accumulated training set, not on the
order in which it was collected. fit_many runs any number of such refits, each
a span of rows of one (X, y) store, as one stacked descent whose every result
is bit-identical to its own fit; fit is fit_many of one span, so there is one
SGD path.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .corpus import LabelSpace


class SoftmaxClassifier:
    """Linear softmax model: probabilities = softmax(W @ emb + b)."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights  # (C, E)
        self.bias = bias        # (C,)


def _probs(weights, bias, X) -> np.ndarray:
    """softmax(X @ W.T + b) over the last axis, computed in place in one
    fresh buffer that the caller may overwrite. Stacked (S, C, E) weights
    take (S, n, E) rows and an (S, 1, C) bias."""
    z = X @ weights.swapaxes(-1, -2)
    z += bias
    # max of a transposed copy: no per-row loop, exact in any order; sums round, keep numpy's order
    z -= np.maximum.reduce(np.ascontiguousarray(z.T), axis=0).T[..., None]
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _grads_inplace(probs, X, onehot):
    """Gradients of the mean cross-entropy w.r.t. (W, b) from the batch's
    probabilities, which are overwritten with (probs - onehot) / n; the
    rows are the second-to-last axis, so a stack of batches works too."""
    probs -= onehot
    probs /= X.shape[-2]
    return probs.swapaxes(-1, -2) @ X, np.add.reduce(probs, axis=-2)


def _onehot(y, num_classes) -> np.ndarray:
    """One-hot rows over a new last axis, for labels of any shape."""
    return np.eye(num_classes)[y]


def cross_entropy_and_grads(weights, bias, X, y):
    """Mean cross-entropy over the batch and its gradients w.r.t. (W, b)."""
    probs = _probs(weights, bias, X)
    loss = float(-np.log(probs[np.arange(len(y)), y]).mean())
    dW, db = _grads_inplace(probs, X, _onehot(y, len(bias)))
    return loss, dW, db


def fit(training_set, labels: LabelSpace, seed=0, epochs: int = 50,
        batch_size: int = 32, lr: float = 0.1) -> SoftmaxClassifier:
    """Train from scratch by seeded minibatch gradient descent on cross-entropy.

    training_set is a list of (embedding, emitted label) pairs. Zero init plus
    a seeded epoch shuffle makes the result a pure function of (set, seed).
    """
    X = np.array([emb for emb, _ in training_set], dtype=np.float64)
    y = np.array([label for _, label in training_set], dtype=np.intp)
    return fit_many(X, y, [(0, len(y))], labels, [seed], epochs, batch_size, lr)[0]


def fit_many(X, y, spans, labels: LabelSpace, seeds, epochs: int = 50,
             batch_size: int = 32, lr: float = 0.1) -> list[SoftmaxClassifier]:
    """fit() of each span of rows with its own seed, run as one stacked
    descent over spans of any sizes: span (start, n) is the training set of
    rows start .. start + n of (X, y), spans may overlap, rows of X outside
    every span are never read (every label of y must be a class), and the
    i-th result is bit-identical to fit() of span i's (X[r], y[r]) pairs with
    seeds[i].

    The spans are ordered longest first, so at each minibatch offset the
    spans with a full batch are a prefix of the stack and the spans ending on
    the same partial batch are a contiguous slice; each slice is one stacked
    step on its rows of (S, C, E) weights. Each epoch permutes every span's
    rows with its own seed's generator, and each step gathers its rows with
    `take`; the loss is never formed. Per span, the float64 arithmetic is op
    for op that of cross_entropy_and_grads applied to
    X[order[lo:lo + batch_size]] (see tests/helpers.py).

    A call holds S weight matrices and an (S, longest n) array of row ids, so
    its memory grows with the number of spans times the longest;
    run_experiment bounds what it queues per call.
    """
    if not spans:
        raise ValueError("need at least one span to fit")
    if len(seeds) != len(spans):
        raise ValueError(f"need one seed per span, got {len(seeds)} for {len(spans)}")
    for start, n in spans:
        if n < 1 or start < 0 or start + n > len(X):
            raise ValueError(f"span ({start}, {n}) is empty or not within the {len(X)} rows")
    if epochs < 1 or batch_size < 1 or lr <= 0:
        raise ValueError("epochs and batch_size must be >= 1 and lr > 0")
    num_classes = len(labels)
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError("label outside label space")
    longest_first = sorted(range(len(spans)), key=lambda i: -spans[i][1])
    starts, sizes = zip(*(spans[i] for i in longest_first))
    Y = _onehot(y, num_classes)
    S = len(spans)
    W = np.zeros((S, num_classes, X.shape[-1]))
    b = np.zeros((S, num_classes))
    b_rows = b[:, None]  # (S, 1, C) view: each span's bias over its batch rows
    order = np.zeros((S, sizes[0]), dtype=np.intp)  # this epoch's row ids, by span
    steps = []  # per minibatch: (row ids, W, b, bias rows) views of one slice
    for lo in range(0, sizes[0], batch_size):
        a = 0
        for width, group in groupby(min(n - lo, batch_size) for n in sizes if n > lo):
            z = a + len(list(group))
            steps.append((order[a:z, lo:lo + width], W[a:z], b[a:z], b_rows[a:z]))
            a = z
    rngs = [np.random.default_rng(seeds[i]) for i in longest_first]
    for _ in range(epochs):
        for rng, n, start, ids in zip(rngs, sizes, starts, order):
            np.add(rng.permutation(n), start, out=ids[:n])
        for ids, Wv, bv, bv_rows in steps:
            Xb = X.take(ids, axis=0)
            dW, db = _grads_inplace(_probs(Wv, bv_rows, Xb), Xb, Y.take(ids, axis=0))
            dW *= lr
            Wv -= dW
            db *= lr
            bv -= db
    return [SoftmaxClassifier(W[i], b[i]) for i in np.argsort(longest_first)]


def predict_proba(clf: SoftmaxClassifier, emb) -> np.ndarray:
    """Class probabilities for one embedding or a (n, E) batch."""
    return _probs(clf.weights, clf.bias, np.asarray(emb, dtype=np.float64))


def predict(clf: SoftmaxClassifier, emb) -> np.ndarray:
    return np.argmax(predict_proba(clf, emb), axis=-1)


def f1_macro(true, pred, labels: LabelSpace) -> float:
    """Macro-averaged one-vs-rest f1 over all classes in the label space.

    A class with precision + recall = 0 (including classes absent from both
    vectors) contributes f1 = 0.
    """
    true = np.asarray(true)
    pred = np.asarray(pred)
    if true.shape != pred.shape or true.ndim != 1:
        raise ValueError(f"label vectors must be equal-length 1-d, got {true.shape} vs {pred.shape}")
    if len(true) == 0:
        raise ValueError("empty label vectors")
    num_classes = len(labels)
    if min(true.min(), pred.min()) < 0 or max(true.max(), pred.max()) >= num_classes:
        raise ValueError("label outside label space")
    # confusion matrix: row = true class, column = predicted class
    counts = np.bincount(true * num_classes + pred, minlength=num_classes ** 2)
    counts = counts.reshape(num_classes, num_classes)
    tp = np.diagonal(counts)
    denom = counts.sum(axis=0) + counts.sum(axis=1)  # 2 tp + fp + fn
    f1 = np.divide(2 * tp, denom, out=np.zeros(num_classes), where=denom > 0)
    return float(np.cumsum(f1)[-1]) / num_classes  # summed in class order
