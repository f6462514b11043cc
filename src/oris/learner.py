"""Downstream classifier (softmax regression over embeddings) and f1-macro metrics.

The classifier is refit from scratch at every evaluation interval, so a run's
machine performance depends only on the accumulated training set, not on the
order in which it was collected. fit_many runs any number of such refits, each
a span of rows of one (X, y) store, as stacked descents of bounded size whose
every result is bit-identical to its own fit; fit is fit_many of one span, so
there is one SGD path.
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


# fit_many stacks spans while their count times the longest is within this
# many row ids (2 MB); a lone span fits at any length. It draws each span's
# row order for as many epochs as stay within it, and at least one. An 8 MB
# bound left a 5-seed sweep's process about 1 MB larger at its peak.
ORDER_IDS = 1 << 18


def _class_sum(x):
    """Sum over the first axis of a class-major array in the order numpy
    sums a contiguous last axis (pairwise_sum): in sequence below 8 classes,
    in 8 interleaved partial sums up to 128, halved at a multiple of 8 above.
    So it is bit for bit np.add.reduce over the classes of the row-major copy."""
    C = len(x)
    if C < 8:
        return np.add.reduce(x, axis=0)
    if C > 128:
        half = C // 2 - C // 2 % 8
        return _class_sum(x[:half]) + _class_sum(x[half:])
    tail = C - C % 8
    part = x[:8].copy()
    for lo in range(8, tail, 8):
        part += x[lo:lo + 8]
    total = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
    for c in range(tail, C):
        total += x[c]
    return total


def _softmax_classes(zT):
    """Softmax over the first axis of a contiguous class-major array, in
    place: every op runs over all rows at once in long inner loops."""
    zT -= np.maximum.reduce(zT, axis=0)  # a max does not round: any order is exact
    np.exp(zT, out=zT)
    zT /= _class_sum(zT)
    return zT


def _probs(weights, bias, X) -> np.ndarray:
    """softmax(X @ W.T + b) over the last axis: the (n, C) view of a fresh
    class-major buffer that the caller may overwrite."""
    z = X @ weights.T
    z += bias
    return _softmax_classes(np.ascontiguousarray(z.T)).T


def _grads(probs_T, onehot_T, X, out):
    """Gradients of the mean cross-entropy w.r.t. [W | b], written to out
    (..., C, E + 1), from class-major probabilities (C, n) or (C, n, s) of
    the rows of X (n, E) or (s, n, E) and their one-hot labels of the same
    shape; probs_T is overwritten. The matmul runs on a row-major copy, as
    the reference forms it. The row sum adds the n rows in sequence, as the
    reference does: over the class-major array, with s-long inner loops,
    when s spans outnumber the C classes, and over the row-major copy, with
    C-long ones, otherwise. A single span (or a (C, n) array) must take the
    row-major sum, since numpy adds the rows of a contiguous axis pairwise;
    s > C >= 1 excludes it."""
    probs_T -= onehot_T
    probs_T /= X.shape[-2]
    g = np.ascontiguousarray(probs_T.T)
    np.matmul(g.swapaxes(-1, -2), X, out=out[..., :-1])
    if X.ndim == 3 and len(X) > len(probs_T):
        # through a contiguous (C, s) temporary: a sum written to the
        # strided out[..., -1].T view ran slower
        out[..., -1] = np.add.reduce(probs_T, axis=-2).T
    else:
        np.add.reduce(g, axis=-2, out=out[..., -1])
    return out


def cross_entropy_and_grads(weights, bias, X, y):
    """Mean cross-entropy over the batch and its gradients w.r.t. (W, b)."""
    probs_T = _probs(weights, bias, X).T
    loss = float(-np.log(probs_T[y, np.arange(len(y))]).mean())
    onehot_T = y == np.arange(len(bias))[:, None]
    G = _grads(probs_T, onehot_T, X, np.empty((len(bias), X.shape[1] + 1)))
    return loss, G[:, :-1], G[:, -1]


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
    step on its rows of the (S, C, E + 1) [W | b] array. A step gathers its
    rows with `take`, runs the per-span forward matmul, then bias, softmax,
    one-hot subtraction and / n on one class-major (C, n, s) copy, and the
    per-span gradient matmul on its row-major copy; the bias row sum runs in
    the layout _grads picks by s against C, and the loss is never formed.
    Each span's generator draws its row order for up to
    ORDER_IDS / (S * longest n) epochs in one `permuted` call, whose rows are
    those of as many `permutation` calls. Per span, the float64 arithmetic is
    op for op that of cross_entropy_and_grads applied to
    X[order[lo:lo + batch_size]] (see tests/helpers.py).

    A call holds S weight matrices and at least one epoch of row ids, S times
    the longest n. A call of several spans beyond ORDER_IDS fits each half of
    its spans as a call of its own, in input order: bit for bit, since each
    span's descent is its own whatever it is stacked with.
    """
    if not spans:
        raise ValueError("need at least one span to fit")
    if len(seeds) != len(spans):
        raise ValueError(f"need one seed per span, got {len(seeds)} for {len(spans)}")
    for start, n in spans:
        if n < 1 or start < 0 or start + n > len(X):
            raise ValueError(f"span ({start}, {n}) is empty or not within the {len(X)} rows")
    if epochs < 1 or batch_size < 1 or not 0 < lr < np.inf:
        raise ValueError("epochs and batch_size must be >= 1 and lr > 0 and finite")
    num_classes = len(labels)
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError("label outside label space")
    if len(spans) > 1 and len(spans) * max(n for _, n in spans) > ORDER_IDS:
        half = len(spans) // 2
        return (fit_many(X, y, spans[:half], labels, seeds[:half], epochs, batch_size, lr)
                + fit_many(X, y, spans[half:], labels, seeds[half:], epochs, batch_size, lr))
    longest_first = sorted(range(len(spans)), key=lambda i: -spans[i][1])
    starts, sizes = zip(*(spans[i] for i in longest_first))
    S = len(spans)
    P = np.zeros((S, num_classes, X.shape[-1] + 1))  # each span's [W | b]
    G = np.empty_like(P)  # a step's lr * gradient, in its spans' rows
    classes = np.arange(num_classes)[:, None, None]
    ahead = max(1, min(epochs, ORDER_IDS // (S * sizes[0])))
    order = np.zeros((ahead, S, sizes[0]), dtype=np.intp)  # row ids by epoch and span
    steps = []  # per minibatch: its row ids in each epoch drawn ahead, and views of its spans
    for lo in range(0, sizes[0], batch_size):
        a = 0
        for width, group in groupby(min(n - lo, batch_size) for n in sizes if n > lo):
            z = a + len(list(group))
            Pv = P[a:z]
            steps.append((order[:, a:z, lo:lo + width], Pv, Pv[..., :-1].swapaxes(-1, -2),
                          Pv[..., -1].T[:, None], G[a:z]))
            a = z
    rngs = [np.random.default_rng(seeds[i]) for i in longest_first]
    for done in range(0, epochs, ahead):
        k = min(ahead, epochs - done)
        for rng, n, start, ids in zip(rngs, sizes, starts, order.swapaxes(0, 1)):
            rng.permuted(np.broadcast_to(np.arange(start, start + n), (k, n)), axis=1,
                         out=ids[:k, :n])
        for epoch in range(k):
            for ids, Pv, W_T, b_T, Gv in steps:
                ids = ids[epoch]
                Xb = X.take(ids, axis=0)
                z_T = np.ascontiguousarray((Xb @ W_T).T)  # class-major (C, n, s)
                z_T += b_T
                _grads(_softmax_classes(z_T), y.take(ids.T) == classes, Xb, Gv)
                Gv *= lr
                Pv -= Gv
    return [SoftmaxClassifier(P[i, :, :-1], P[i, :, -1]) for i in np.argsort(longest_first)]


def predict_proba(clf: SoftmaxClassifier, emb) -> np.ndarray:
    """Class probabilities for one embedding, a (n, E) batch, or a (n, 1, E)
    stack whose every row is a one-row product, bit for bit the 1-D call's."""
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
