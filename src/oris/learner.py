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

    @property
    def num_classes(self):
        return self.weights.shape[0]


def _probs(weights, bias, X) -> np.ndarray:
    """softmax(X @ W.T + b) over the last axis, computed in place in one
    fresh buffer that the caller may overwrite."""
    z = X @ weights.T
    z += bias
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _grads_inplace(probs, X, onehot):
    """Gradients of the mean cross-entropy w.r.t. (W, b) from the batch's
    probabilities, which are overwritten with (probs - onehot) / n."""
    probs -= onehot
    probs /= len(X)
    return probs.T @ X, np.add.reduce(probs, axis=0)


def _onehot(y, num_classes) -> np.ndarray:
    Y = np.zeros((len(y), num_classes))
    Y[np.arange(len(y)), y] = 1.0
    return Y


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

    Each epoch permutes the rows once and walks contiguous minibatches; the
    loss is never formed. The float64 arithmetic is op for op that of
    cross_entropy_and_grads applied to X[order[lo:lo + batch_size]], so the
    weights are bit-identical to that plain loop (see tests/helpers.py).
    """
    if not training_set:
        raise ValueError("cannot fit on an empty training set")
    if epochs < 1 or batch_size < 1 or lr <= 0:
        raise ValueError("epochs and batch_size must be >= 1 and lr > 0")
    X = np.stack([np.asarray(emb, dtype=np.float64) for emb, _ in training_set])
    y = np.array([label for _, label in training_set])
    if y.min() < 0 or y.max() >= len(labels):
        raise ValueError("label outside label space")
    num_classes = len(labels)
    Y = _onehot(y, num_classes)
    W = np.zeros((num_classes, X.shape[1]))
    b = np.zeros(num_classes)
    rng = np.random.default_rng(seed)
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        Xp = X[order]
        Yp = Y[order]
        for lo in range(0, n, batch_size):
            Xb = Xp[lo:lo + batch_size]
            dW, db = _grads_inplace(_probs(W, b, Xb), Xb, Yp[lo:lo + batch_size])
            dW *= lr
            W -= dW
            db *= lr
            b -= db
    return SoftmaxClassifier(W, b)


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
    total = 0.0
    for c in range(len(labels)):
        tp = int(((pred == c) & (true == c)).sum())
        fp = int(((pred == c) & (true != c)).sum())
        fn = int(((pred != c) & (true == c)).sum())
        denom = 2 * tp + fp + fn
        if denom:
            total += 2 * tp / denom
    return total / len(labels)

