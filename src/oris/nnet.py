"""Small dense networks with hand-rolled forward/backward passes, in float64.

ReLU hidden layers, identity output, smooth-L1 loss, and Adam stepping from the
flat gradient that backward() writes. forward() takes (rows, in) matrices for
training; forward_each() runs each row of one on its own, for decisions.
Checkpoints are .npz files of the flat parameter vector, exact to the bit.
"""

from __future__ import annotations

import zipfile

import numpy as np

CHECKPOINT_MAGIC = "densenet-v2"

ADAM_BETA1 = 0.9  # Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DenseNet:
    """Fully-connected net over float64 numpy arrays.

    weights[i] has shape (fan_out, fan_in); forward computes
    h = relu(W x + b) per hidden layer and an affine output layer.

    All parameters live in one flat vector, `params`, laid out as
    W0, b0, W1, b1, ...; `weights[i]` and `biases[i]` are reshaped views into
    it, so writing to either writes to the other. `grad` is a vector of the
    same layout that backward() fills, zero until it first does.
    """

    def __init__(self, layer_sizes, seed=0):
        if len(layer_sizes) < 2 or min(layer_sizes) < 1:
            raise ValueError(f"need two or more layer sizes >= 1, got {list(layer_sizes)}")
        self._bind([int(s) for s in layer_sizes])
        rng = np.random.default_rng(seed)
        for W, b in zip(self.weights, self.biases):
            fan_out, fan_in = W.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            b[...] = 0.0

    def _bind(self, layer_sizes):
        """Allocate the parameter and gradient vectors and their views."""
        self.layer_sizes = layer_sizes
        pairs = list(zip(layer_sizes, layer_sizes[1:]))
        size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in pairs)
        self.params = np.empty(size)
        self.grad = np.zeros(size)
        self.weights, self.biases = _layer_views(self.params, pairs)
        self._grads = list(zip(*_layer_views(self.grad, pairs)))
        self._workspace = None

    def copy(self) -> "DenseNet":
        dup = DenseNet.__new__(DenseNet)
        dup._bind(list(self.layer_sizes))
        dup.params[...] = self.params
        return dup

    def forward(self, x):
        """Run the net on a (rows, in) matrix and return the (rows, out) result.

        Each hidden layer's activation is cached for backward(), in one
        workspace that is reallocated when the row count changes. The result
        is a new array that later calls do not overwrite. A row of a
        many-row result can differ in bits from forward() of that row alone;
        forward_each() gives the one-row bits for every row.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"forward takes a (rows, {self.layer_sizes[0]}) matrix, got shape "
                             f"{x.shape}; pass one vector as a (1, {self.layer_sizes[0]}) row")
        ws = self._workspace
        if ws is None or ws.rows != len(x):
            ws = self._workspace = _Workspace(self.layer_sizes, len(x))
        a = ws.acts[0] = x
        for h, W, b in zip(ws.acts[1:], self.weights, self.biases):  # hidden layers, in place
            a = np.maximum(np.add(np.matmul(a, W.T, out=h), b, out=h), 0.0, out=h)
        return a @ self.weights[-1].T + self.biases[-1]

    def forward_each(self, X):
        """The (rows, out) outputs of a float64 (rows, in) matrix, each row
        bit for bit that of forward() on that row alone: no cache, no check.

        A (rows, in) product rounds a row differently from a one-row product,
        and differently at each row count. Here each layer multiplies the
        (rows, 1, in) stack, one vector-matrix product per row, as forward()
        does for one row.
        """
        a = X[:, None, :]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            z = np.matmul(a, W.T)
            a = np.maximum(np.add(z, b, out=z), 0.0, out=z)
        z = np.matmul(a, self.weights[-1].T)
        return np.add(z, self.biases[-1], out=z)[:, 0]

    def backward(self, grad_out):
        """Gradients of sum(output * grad_out) w.r.t. every parameter, at the
        input of the last forward(), for the (rows, out) grad_out of its
        output; each ReLU mask is activation > 0, the same as z > 0, so the
        subgradient at exactly 0 is 0. Writes them into `grad`, for
        optimizer_step(), and returns one (dW, db) view of it per layer.
        """
        ws = self._workspace
        if ws is None:
            raise RuntimeError("backward called before forward")
        g = np.asarray(grad_out, dtype=np.float64)
        out_shape = (ws.rows, self.layer_sizes[-1])
        if g.shape != out_shape:
            raise ValueError(f"grad_out shape {g.shape} != output shape {out_shape}")
        for i in reversed(range(len(self.weights))):
            dW, db = self._grads[i]
            np.matmul(g.T, ws.acts[i], out=dW)
            np.add.reduce(g, axis=0, out=db)
            if i > 0:
                delta = ws.deltas[i - 1]
                np.matmul(g, self.weights[i], out=delta)
                g = np.multiply(delta, ws.acts[i] > 0.0, out=delta)
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

    acts[i] is the input of layer i (acts[0] is the caller's input), so
    acts[i + 1] is hidden layer i's activation; deltas[i] is the gradient
    reaching that layer's output. A net that never runs backward never
    touches the pages of the deltas. The output layer writes a new array per
    call, which forward() returns.
    """

    def __init__(self, layer_sizes, rows):
        hidden = layer_sizes[1:-1]
        self.rows = rows
        self.acts = [None] + [np.empty((rows, s)) for s in hidden]
        self.deltas = [np.empty((rows, s)) for s in hidden]


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
    """Adam's moment accumulators at learning rate lr, flat in the layout of the
    net's `params`, plus scratch; the rest of Adam's settings are ADAM_*."""

    def __init__(self, net: DenseNet, lr: float):
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {lr}")
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self._step = np.empty_like(net.params)
        self._denom = np.empty_like(net.params)


def optimizer_step(net: DenseNet, opt: AdamState) -> None:
    """One in-place Adam update of every parameter from net.grad, the
    gradient that the last net.backward() wrote.

    Per element this computes, in this order, m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g and param -= lr*(m/bc1) / (sqrt(v/bc2) + eps).
    """
    opt.step_count += 1
    bc1 = 1.0 - ADAM_BETA1 ** opt.step_count
    bc2 = 1.0 - ADAM_BETA2 ** opt.step_count
    g, m, v, step, denom = net.grad, opt.m, opt.v, opt._step, opt._denom
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    np.add(m, step, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    np.multiply(step, g, out=step)
    np.add(v, step, out=v)
    np.divide(m, bc1, out=step)
    np.multiply(step, opt.lr, out=step)
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, ADAM_EPS, out=denom)
    np.divide(step, denom, out=step)
    np.subtract(net.params, step, out=net.params)


def save_checkpoint(net: DenseNet, path) -> None:
    """Write net to path, as given, as an uncompressed .npz of `magic` ("densenet-v2"),
    `layer_sizes` and `params`; numpy dates each member 1980-01-01, so its bytes are fixed."""
    with open(path, "wb") as fh:  # np.savez would append .npz to a bare path
        np.savez(fh, magic=np.array(CHECKPOINT_MAGIC),
                 layer_sizes=np.array(net.layer_sizes, dtype=np.int64), params=net.params)


def load_checkpoint(path) -> DenseNet:
    """Read a save_checkpoint file into a new net, bit for bit. Any other file, a compressed
    member, layer sizes not two or more integers >= 1, or params not the finite float64 vector
    they imply raise ValueError("<path>: ..."); a densenet-v1 text checkpoint is named as one."""
    with open(path, "rb") as fh:
        if fh.read(11) == b"densenet-v1":
            raise ValueError(f"{path}: a densenet-v1 text checkpoint; this version reads "
                             f"{CHECKPOINT_MAGIC} only: retrain it with train-agent")
        try:  # NpzFile seeks the zip's directory itself; a non-.npy member reads as bytes
            with np.lib.npyio.NpzFile(fh) as npz:
                # save_checkpoint stores its members; a deflated one would reach zlib's errors
                packed = [i.filename for i in npz.zip.infolist()
                          if i.compress_type != zipfile.ZIP_STORED]
                if packed:
                    raise ValueError(f"compressed member {packed[0]!r}; "
                                     f"save_checkpoint writes uncompressed .npz files")
                magic, sizes, params = (np.asarray(npz[key])
                                        for key in ("magic", "layer_sizes", "params"))
        except (OSError, EOFError, KeyError, RuntimeError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint: {exc}") from None
    if magic.shape != () or magic.item() != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint: magic is {magic!r}")
    if sizes.dtype.kind not in "iu" or sizes.ndim != 1 or sizes.size < 2 or sizes.min() < 1:
        raise ValueError(f"{path}: need two or more integer layer sizes >= 1, got {sizes!r}")
    sizes = sizes.tolist()  # Python ints, so the size cannot overflow; checked before _bind
    size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes, sizes[1:]))
    if params.dtype.kind != "f" or params.dtype.itemsize != 8 or params.shape != (size,):
        raise ValueError(f"{path}: layer sizes {sizes} need {size} float64 params, got "
                         f"{params.dtype} of shape {params.shape}")
    bad = params[~np.isfinite(params)]
    if bad.size:
        raise ValueError(f"{path}: parameters must be finite, got {bad[0]}")
    net = DenseNet.__new__(DenseNet)
    net._bind(sizes)
    net.params[...] = params
    return net
