"""Independent oracles used by the tests: finite differences, brute-force
confusion-matrix f1, and scalar entropy. Deliberately slow and simple."""

import math

import numpy as np


def finite_difference_net_grads(net, x, grad_out, h=1e-5):
    """Central-difference gradients of sum(forward(x) * grad_out) w.r.t. every
    parameter, matching the layout returned by net.backward."""
    def objective():
        return float((net.forward(x) * grad_out).sum())

    grads = []
    for li in range(net.num_layers):
        layer = []
        for arr in (net.weights[li], net.biases[li]):
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                fplus = objective()
                arr[idx] = orig - h
                fminus = objective()
                arr[idx] = orig
                fd[idx] = (fplus - fminus) / (2.0 * h)
            layer.append(fd)
        grads.append(tuple(layer))
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def brute_force_f1_macro(true, pred, num_classes):
    """Confusion-matrix based macro f1, written independently of the library."""
    confusion = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(true, pred):
        confusion[t][p] += 1
    scores = []
    for c in range(num_classes):
        tp = confusion[c][c]
        fp = sum(confusion[other][c] for other in range(num_classes) if other != c)
        fn = sum(confusion[c][other] for other in range(num_classes) if other != c)
        # f1 = 2PR/(P+R) reduces to the count ratio below; it is 0 whenever
        # precision + recall is 0 (tp == 0), matching the absent-class rule
        scores.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return sum(scores) / num_classes


def scalar_entropy_bits(labels_in_window):
    """Plain-python Shannon entropy (bits) of a label multiset."""
    n = len(labels_in_window)
    entropy = 0.0
    for c in set(labels_in_window):
        p = labels_in_window.count(c) / n
        entropy -= p * math.log2(p)
    return entropy


def reference_cross_entropy_grads(weights, bias, X, y):
    """The plain softmax cross-entropy gradient, written as a new array per
    step with fancy-indexed target updates."""
    n = len(y)
    z = X @ weights.T + bias
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g /= n
    return g.T @ X, g.sum(axis=0)


def reference_fit(training_set, num_classes, seed=0, epochs=50, batch_size=32, lr=0.1):
    """Plain minibatch SGD over X[order[lo:lo + batch_size]]: the reference
    that learner.fit must match bit for bit. Returns (weights, bias)."""
    X = np.stack([np.asarray(emb, dtype=np.float64) for emb, _ in training_set])
    y = np.array([label for _, label in training_set])
    W = np.zeros((num_classes, X.shape[1]))
    b = np.zeros(num_classes)
    rng = np.random.default_rng(seed)
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            dW, db = reference_cross_entropy_grads(W, b, X[idx], y[idx])
            W -= lr * dW
            b -= lr * db
    return W, b
