"""Downstream classifier (softmax regression over embeddings) and f1-macro metrics.

The classifier is refit from scratch at every evaluation interval, so a run's
machine performance depends only on the accumulated training set, not on the
order in which it was collected.
"""

from __future__ import annotations

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
    z = X @ np.swapaxes(weights, -1, -2)
    z += bias
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _grads_inplace(probs, X, onehot):
    """Gradients of the mean cross-entropy w.r.t. (W, b) from the batch's
    probabilities, which are overwritten with (probs - onehot) / n; the
    rows are the second-to-last axis, so a stack of batches works too."""
    probs -= onehot
    probs /= X.shape[-2]
    return np.swapaxes(probs, -1, -2) @ X, np.add.reduce(probs, axis=-2)


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
    return fit_many([training_set], labels, [seed], epochs, batch_size, lr)[0]


def fit_many(training_sets, labels: LabelSpace, seeds, epochs: int = 50,
             batch_size: int = 32, lr: float = 0.1) -> list[SoftmaxClassifier]:
    """fit() of each equal-size set with its own seed, run as one stacked
    (S, n, E) descent: the i-th result is bit-identical to
    fit(training_sets[i], labels, seeds[i], ...).

    Each epoch permutes every set's rows with its own seed's generator and
    walks contiguous minibatches, S at a time; the loss is never formed. Per
    set, the float64 arithmetic is op for op that of cross_entropy_and_grads
    applied to X[order[lo:lo + batch_size]] (see tests/helpers.py).
    """
    if not training_sets or not all(training_sets):
        raise ValueError("cannot fit on an empty training set")
    if len(seeds) != len(training_sets):
        raise ValueError(f"need one seed per training set, got {len(seeds)} "
                         f"for {len(training_sets)}")
    n = len(training_sets[0])
    if any(len(s) != n for s in training_sets):
        raise ValueError("training sets must have equal sizes")
    if epochs < 1 or batch_size < 1 or lr <= 0:
        raise ValueError("epochs and batch_size must be >= 1 and lr > 0")
    X = np.array([[emb for emb, _ in s] for s in training_sets], dtype=np.float64)
    y = np.array([[label for _, label in s] for s in training_sets])
    num_classes = len(labels)
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError("label outside label space")
    Y = _onehot(y, num_classes)
    S = len(training_sets)
    W = np.zeros((S, num_classes, X.shape[-1]))
    b = np.zeros((S, num_classes))
    b_rows = b[:, None]  # (S, 1, C) view: each set's bias over its batch rows
    rngs = [np.random.default_rng(seed) for seed in seeds]
    stack = np.arange(S)[:, None]
    for _ in range(epochs):
        order = np.array([rng.permutation(n) for rng in rngs])
        Xp = X[stack, order]
        Yp = Y[stack, order]
        for lo in range(0, n, batch_size):
            Xb = Xp[:, lo:lo + batch_size]
            dW, db = _grads_inplace(_probs(W, b_rows, Xb), Xb, Yp[:, lo:lo + batch_size])
            dW *= lr
            W -= dW
            db *= lr
            b -= db
    return [SoftmaxClassifier(W[i], b[i]) for i in range(S)]


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
