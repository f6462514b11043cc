"""Small dense networks with hand-rolled forward/backward passes.

ReLU on hidden layers, identity output, smooth-L1 loss, an adaptive-moment
optimizer, and forward_one() for per-document inference. All in float64;
checkpoints are plain text and round-trip bit-exactly.
"""

from __future__ import annotations

import numpy as np

CHECKPOINT_MAGIC = "densenet-v1"


class DenseNet:
    """Fully-connected net over float64 numpy arrays.

    weights[i] has shape (fan_out, fan_in); forward computes
    h = relu(W x + b) per hidden layer and an affine output layer.

    All parameters live in one flat vector, `params`, laid out as
    W0, b0, W1, b1, ...; `weights[i]` and `biases[i]` are reshaped views into
    it, so writing to either writes to the other. `grad` is a vector of the
    same layout that backward() fills.
    """

    def __init__(self, layer_sizes, seed=0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in layer_sizes):
            raise ValueError(f"layer sizes must be >= 1, got {layer_sizes}")
        self._bind([int(s) for s in layer_sizes])
        rng = np.random.default_rng(seed)
        for W, b in zip(self.weights, self.biases):
            fan_out, fan_in = W.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            b[...] = 0.0

    def _bind(self, layer_sizes):
        """Allocate the parameter and gradient vectors, their views and forward_one's rows."""
        self.layer_sizes = layer_sizes
        pairs = list(zip(layer_sizes, layer_sizes[1:]))
        size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in pairs)
        self.params = np.empty(size)
        self.grad = np.empty(size)
        self.weights, self.biases = _layer_views(self.params, pairs)
        self._grads = list(zip(*_layer_views(self.grad, pairs)))
        self._workspace = None
        self._cache = None
        rows = [np.empty((1, s)) for s in layer_sizes[1:]]
        *self._hidden_rows, self._out_row = zip([W.T for W in self.weights], self.biases, rows)

    @classmethod
    def from_parameters(cls, weights, biases):
        net = cls.__new__(cls)
        net._bind([np.shape(weights[0])[1]] + [np.shape(w)[0] for w in weights])
        for dst, src in zip(net.weights + net.biases, list(weights) + list(biases)):
            dst[...] = src
        return net

    def copy(self) -> "DenseNet":
        return DenseNet.from_parameters(self.weights, self.biases)

    @property
    def num_layers(self):
        return len(self.weights)

    def forward(self, x):
        """Run the net on a single vector or a (batch, in) matrix.

        Activations are cached for a subsequent backward() on the same input,
        in one workspace that is reallocated when the row count changes;
        per-document inference uses forward_one(). The result is a new array
        that later calls do not overwrite.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        a = np.atleast_2d(x)
        if a.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"input width {a.shape[1]} != expected {self.layer_sizes[0]}")
        ws = self._workspace
        if ws is None or ws.rows != a.shape[0]:
            ws = self._workspace = _Workspace(self.layer_sizes, a.shape[0])
        ws.acts[0] = a
        last = self.num_layers - 1
        for i in range(last):
            z = ws.pre[i]
            np.matmul(a, self.weights[i].T, out=z)
            z += self.biases[i]
            a = np.maximum(z, 0.0, out=ws.acts[i + 1])
        out = a @ self.weights[last].T
        out += self.biases[last]
        self._cache = (x, ws)
        return out[0] if single else out

    def forward_one(self, x):
        """forward(x) of one float64 vector, bit for bit: no cache, no check, reused buffers."""
        a = x[None]
        for Wt, b, h in self._hidden_rows:
            a = np.maximum(np.add(np.matmul(a, Wt, out=h), b, out=h), 0.0, out=h)
        Wt, b, out = self._out_row
        return np.add(np.matmul(a, Wt, out=out), b, out=out)[0]

    def backward(self, x, grad_out):
        """Gradients of sum(output * grad_out) w.r.t. every parameter.

        Requires the activation cache from the matching forward(); the ReLU
        subgradient at exactly 0 is taken to be 0. Returns one (dW, db) pair
        per layer: views into `grad`, overwritten by the next backward().
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cached_x, ws = self._cache
        if cached_x is not x and not np.array_equal(cached_x, np.asarray(x, dtype=np.float64)):
            raise RuntimeError("stale forward cache: backward input differs from cached input")
        g = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        out_shape = (ws.rows, self.layer_sizes[-1])
        if g.shape != out_shape:
            raise ValueError(f"grad_out shape {g.shape} != output shape {out_shape}")
        for i in reversed(range(self.num_layers)):
            dW, db = self._grads[i]
            np.matmul(g.T, ws.acts[i], out=dW)
            np.add.reduce(g, axis=0, out=db)
            if i > 0:
                delta, mask = ws.deltas[i - 1], ws.masks[i - 1]
                np.matmul(g, self.weights[i], out=delta)
                np.greater(ws.pre[i - 1], 0.0, out=mask)
                g = np.multiply(delta, mask, out=delta)
        return self._grads


def _layer_views(flat, pairs):
    """(weights, biases): views of each layer's (fan_out, fan_in) matrix and
    fan_out vector in a flat vector laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    lo = 0
    for fan_in, fan_out in pairs:
        hi = lo + fan_out * fan_in
        weights.append(flat[lo:hi].reshape(fan_out, fan_in))
        biases.append(flat[hi:hi + fan_out])
        lo = hi + fan_out
    return weights, biases


class _Workspace:
    """Hidden-layer buffers of one forward/backward pass over `rows` inputs.

    acts[i] is the input of layer i (acts[0] is the caller's input); pre[i]
    is hidden layer i's pre-activation, deltas[i] the gradient reaching its
    output and masks[i] its ReLU mask. A net that never runs backward never
    touches the pages of the last two. The output layer writes a new array
    per call, which forward() returns.
    """

    def __init__(self, layer_sizes, rows):
        hidden = layer_sizes[1:-1]
        self.rows = rows
        self.pre = [np.empty((rows, s)) for s in hidden]
        self.acts = [None] + [np.empty((rows, s)) for s in hidden]
        self.deltas = [np.empty((rows, s)) for s in hidden]
        self.masks = [np.empty((rows, s), dtype=bool) for s in hidden]


def smooth_l1(pred, target):
    """Elementwise smooth-L1 (Huber at threshold 1) and its d/dpred.

    |d| < 1 -> 0.5 d^2 with gradient d; otherwise |d| - 0.5 with gradient
    sign(d), where d = pred - target.
    """
    d = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    small = np.abs(d) < 1.0
    loss = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    grad = np.where(small, d, np.sign(d))
    return loss, grad


class AdamState:
    """First/second moment accumulators with bias correction, flat in the
    layout of the net's `params`, plus scratch for the update."""

    def __init__(self, net: DenseNet, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self._step = np.empty_like(net.params)
        self._denom = np.empty_like(net.params)


def optimizer_step(net: DenseNet, grads, opt: AdamState) -> None:
    """One in-place adaptive-moment update of every parameter.

    Gradients other than the (dW, db) views that net.backward() returns are
    first copied into net.grad. Per element this computes, in this order,
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    param -= lr*(m/bc1) / (sqrt(v/bc2) + eps).
    """
    if len(grads) != net.num_layers:
        raise ValueError("gradient structure does not match the net")
    if grads is not net._grads:
        for (dW, db), (gW, gb) in zip(grads, net._grads):
            for grad, dst in ((dW, gW), (db, gb)):
                if np.shape(grad) != dst.shape:
                    raise ValueError(
                        f"gradient shape {np.shape(grad)} != parameter shape {dst.shape}")
                dst[...] = grad
    opt.step_count += 1
    bc1 = 1.0 - opt.beta1 ** opt.step_count
    bc2 = 1.0 - opt.beta2 ** opt.step_count
    g, m, v, step, denom = net.grad, opt.m, opt.v, opt._step, opt._denom
    np.multiply(m, opt.beta1, out=m)
    np.multiply(g, 1.0 - opt.beta1, out=step)
    np.add(m, step, out=m)
    np.multiply(v, opt.beta2, out=v)
    np.multiply(g, 1.0 - opt.beta2, out=step)
    np.multiply(step, g, out=step)
    np.add(v, step, out=v)
    np.divide(m, bc1, out=step)
    np.multiply(step, opt.lr, out=step)
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, opt.eps, out=denom)
    np.divide(step, denom, out=step)
    np.subtract(net.params, step, out=net.params)


def save_checkpoint(net: DenseNet, path) -> None:
    """Versioned text checkpoint: layer sizes, then row-major weight matrices
    and bias vectors at 17 significant digits (bit-exact round-trip).
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        fh.write(" ".join(str(s) for s in net.layer_sizes) + "\n")
        for W, b in zip(net.weights, net.biases):
            for row in W:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
            fh.write(" ".join(f"{v:.17g}" for v in b) + "\n")


def load_checkpoint(path) -> DenseNet:
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().strip()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: unsupported checkpoint format {magic!r}")
        sizes = [int(s) for s in fh.readline().split()]
        if len(sizes) < 2:
            raise ValueError(f"{path}: bad layer-size line")
        weights = []
        biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            rows = []
            for _ in range(fan_out):
                row = [float(v) for v in fh.readline().split()]
                if len(row) != fan_in:
                    raise ValueError(f"{path}: truncated or malformed weight row")
                rows.append(row)
            weights.append(np.array(rows, dtype=np.float64))
            bias = [float(v) for v in fh.readline().split()]
            if len(bias) != fan_out:
                raise ValueError(f"{path}: truncated or malformed bias row")
            biases.append(np.array(bias, dtype=np.float64))
    return DenseNet.from_parameters(weights, biases)
