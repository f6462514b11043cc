import io
import os
import subprocess
import sys
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceAdam,
    ReferenceNet,
    finite_difference_net_grads,
    flatten_pairs,
    max_relative_error,
    reference_optimizer_step,
)
from oris.nnet import (
    AdamState,
    DenseNet,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    smooth_l1,
)


def test_importing_nnet_leaves_scipy_unloaded():
    # the package root imports no module, so a net needs only numpy
    done = subprocess.run(
        [sys.executable, "-c", "import sys, oris.nnet; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_forward_zero_weights_returns_bias():
    net = DenseNet([3, 4, 4, 2], seed=0)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = [1.5, -2.5]
    for x in (np.zeros((1, 3)), np.ones((1, 3)), np.full((1, 3), -7.0)):
        assert np.allclose(net.forward(x), [[1.5, -2.5]])


def test_forward_identity_chain():
    net = DenseNet([1, 1, 1, 1], seed=0)
    for w in net.weights:
        w[:] = 1.0
    for b in net.biases:
        b[:] = 0.0
    assert np.allclose(net.forward([[2.0]]), [[2.0]])
    assert np.allclose(net.forward([[-5.0]]), [[0.0]])  # ReLU clamps at the first hidden layer


def test_forward_batch_matches_single():
    net = DenseNet([4, 8, 8, 2], seed=3)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((5, 4))
    out = net.forward(batch)
    assert np.allclose(net.forward_each(batch), out)
    for i in range(5):
        assert np.allclose(net.forward(batch[i:i + 1])[0], out[i])


def test_forward_shape_mismatch():
    net = DenseNet([4, 8, 2], seed=0)
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 3)))


def test_forward_takes_only_a_matrix():
    net = DenseNet([4, 8, 2], seed=0)
    for x in (np.zeros(4), np.zeros((1, 1, 4))):
        with pytest.raises(ValueError, match=r"\(rows, 4\) matrix.*\(1, 4\) row"):
            net.forward(x)


def test_forward_deterministic():
    net = DenseNet([4, 8, 2], seed=1)
    x = np.ones((1, 4))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_backward_gradient_check_20_random_nets():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        net = DenseNet([4, 8, 8, 2], seed=seed)
        x = rng.standard_normal((3, 4))
        grad_out = rng.standard_normal((3, 2))
        net.forward(x)
        analytic = net.backward(grad_out)
        numeric = finite_difference_net_grads(net, x, grad_out, h=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-4


def test_backward_zero_grad_out():
    net = DenseNet([3, 5, 2], seed=2)
    x = np.ones((1, 3))
    net.forward(x)
    grads = net.backward(np.zeros((1, 2)))
    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)


def test_backward_dead_unit_contributes_nothing():
    net = DenseNet([1, 1, 1], seed=0)
    net.weights[0][:] = 1.0
    net.biases[0][:] = 0.0
    net.weights[1][:] = 1.0
    x = np.array([[-2.0]])  # pre-activation -2 -> dead hidden unit
    net.forward(x)
    grads = net.backward(np.ones((1, 1)))
    (gw1, gb1), (gw2, gb2) = grads
    assert np.all(gw1 == 0.0) and np.all(gb1 == 0.0)
    assert np.all(gw2 == 0.0)  # hidden activation is 0
    assert np.all(gb2 == 1.0)


def test_backward_requires_matching_cache():
    net = DenseNet([2, 3, 1], seed=0)
    with pytest.raises(RuntimeError):
        net.backward(np.zeros((1, 1)))
    net.forward(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="grad_out shape"):
        net.backward(np.zeros((2, 1)))  # not the row count of the cached forward


@pytest.mark.parametrize("pred,target,loss,grad", [
    (0.5, 0.0, 0.125, 0.5),
    (2.0, 0.0, 1.5, 1.0),
    (0.0, 2.0, 1.5, -1.0),
    (3.0, 3.0, 0.0, 0.0),
])
def test_smooth_l1_cases(pred, target, loss, grad):
    got_loss, got_grad = smooth_l1(pred, target)
    assert float(got_loss) == pytest.approx(loss)
    assert float(got_grad) == pytest.approx(grad)


def test_smooth_l1_elementwise():
    loss, grad = smooth_l1(np.array([0.5, 2.0]), np.array([0.0, 0.0]))
    assert np.allclose(loss, [0.125, 1.5])
    assert np.allclose(grad, [0.5, 1.0])


def test_optimizer_descends_on_quadratic():
    # minimize (w*1 + b)^2 seen through a 1-1 linear net
    net = DenseNet([1, 1], seed=0)
    net.weights[0][:] = 1.0
    opt = AdamState(net, lr=0.1)
    x = np.array([[1.0]])
    first = None
    for step in range(200):
        out = net.forward(x)
        loss = float(out[0, 0] ** 2)
        if first is None:
            first = loss
        net.backward(2.0 * out)
        optimizer_step(net, opt)
    assert loss < first
    assert loss < 1e-3


def test_optimizer_zero_gradients_leave_parameters():
    net = DenseNet([2, 3, 1], seed=4)
    snapshot = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    opt = AdamState(net, lr=0.5)
    x = np.ones((4, 2))
    net.forward(x)
    net.backward(np.zeros((4, 1)))
    optimizer_step(net, opt)
    for arr, kept in zip(net.weights + net.biases, snapshot):
        assert np.array_equal(arr, kept)


def test_optimizer_step_before_any_backward_leaves_parameters():
    # a fresh net's gradient is zero, not whatever its memory held
    net = DenseNet([5, 16, 16, 2], seed=6)
    before = net.params.copy()
    opt = AdamState(net, lr=0.5)
    for step in (1, 2, 3):
        optimizer_step(net, opt)
        assert opt.step_count == step
        assert np.array_equal(net.params, before)
        assert not opt.m.any() and not opt.v.any()


def test_training_decreases_loss_on_regression_batch():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((32, 4))
    y = rng.standard_normal((32, 1))
    net = DenseNet([4, 16, 1], seed=8)
    opt = AdamState(net, lr=1e-2)
    losses = []
    for _ in range(100):
        out = net.forward(X)
        loss, grad = smooth_l1(out, y)
        losses.append(float(loss.mean()))
        net.backward(grad / len(X))
        optimizer_step(net, opt)
    assert losses[-1] < losses[0]


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = DenseNet([5, 16, 16, 2], seed=123)
    # make the parameters non-trivial
    opt = AdamState(net, lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 5))
    net.forward(x)
    net.backward(rng.standard_normal((8, 2)))
    optimizer_step(net, opt)
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    again = load_checkpoint(path)
    assert again.layer_sizes == net.layer_sizes
    for a, b in zip(net.weights + net.biases, again.weights + again.biases):
        assert np.array_equal(a, b)


def test_checkpoint_is_the_path_as_given_with_fixed_bytes(tmp_path):
    net = DenseNet([5, 16, 16, 2], seed=123)
    first, second, again = (tmp_path / name for name in ("a.ckpt", "b.ckpt", "again.ckpt"))
    save_checkpoint(net, first)
    save_checkpoint(net, second)
    save_checkpoint(load_checkpoint(first), again)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt", "again.ckpt", "b.ckpt"]
    assert first.read_bytes() == second.read_bytes() == again.read_bytes()
    with zipfile.ZipFile(first) as archive:
        assert sorted(archive.namelist()) == ["layer_sizes.npy", "magic.npy", "params.npy"]
        assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
               np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny,
               -np.finfo(float).tiny]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_checkpoint_round_trips_sizes_and_params_bit_for_bit(tmp_path_factory, data):
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=5), label="layer sizes")
    net = DenseNet(sizes, seed=0)
    draws = data.draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                         st.floats(allow_nan=False, allow_infinity=False)),
                               min_size=net.params.size, max_size=net.params.size),
                      label="params")
    net.params[...] = draws
    path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
    save_checkpoint(net, path)
    again = load_checkpoint(path)
    assert again.layer_sizes == sizes and all(type(s) is int for s in again.layer_sizes)
    assert np.array_equal(again.params.view(np.uint64), net.params.view(np.uint64))
    for a, b in zip(net.weights + net.biases, again.weights + again.biases):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _npz_bytes(save=np.savez, **arrays):
    """The bytes save writes for these arrays: by default a valid [2, 1] net's."""
    buf = io.BytesIO()
    save(buf, **{"magic": np.array("densenet-v2"), "layer_sizes": np.array([2, 1]),
                 "params": np.array([0.5, -0.5, 0.0]), **arrays})
    return buf.getvalue()


def _without(name):
    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(_npz_bytes())) as src, zipfile.ZipFile(buf, "w") as dst:
        for info in src.infolist():
            if info.filename != name:
                dst.writestr(info, src.read(info))
    return buf.getvalue()


def _npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


def _flipped(at, mask=0xFF):
    """_npz_bytes() with the byte at offset at(data) xor-ed with mask."""
    data = _npz_bytes()
    i = at(data)
    return data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]


def _param_bytes(data):
    return data.index(np.array([0.5, -0.5, 0.0]).tobytes())


def _directory(data):  # the first member's central directory header
    return data.index(b"PK\x01\x02")


def _end_record(data):
    return data.rindex(b"PK\x05\x06")


@pytest.mark.parametrize("content,message", [
    pytest.param(b"densenet-v1\n2 1\n0.5 -0.5\n0\n",
                 "a densenet-v1 text checkpoint; this version reads densenet-v2 only: "
                 "retrain it with train-agent", id="v1-text"),
    pytest.param(b"something-else\n1 2\n", "not a zip file", id="not-an-archive"),
    pytest.param(_npy_bytes(), "not a zip file", id="npy"),
    pytest.param(b"", "not a zip file", id="empty"),
    pytest.param(_npz_bytes()[:-40], "not a zip file", id="truncated"),
    pytest.param(_flipped(_param_bytes), "Bad CRC-32", id="corrupted-member"),
    pytest.param(_flipped(lambda d: _directory(d) + 8, 0x01), "encrypted", id="encrypted-flag"),
    pytest.param(_flipped(lambda d: _directory(d) + 6), "zip file version", id="zip-version"),
    # byte 29 is the high byte of the first local header's extra-field length
    pytest.param(_flipped(lambda d: 29), "not a densenet-v2", id="local-extra-length"),
    pytest.param(_flipped(lambda d: _end_record(d) + 16, 0x01), "not a densenet-v2",
                 id="directory-offset"),
    pytest.param(_npz_bytes(np.savez_compressed), "compressed member 'magic.npy'",
                 id="deflated"),
    pytest.param(_without("params.npy"), "params", id="missing-params"),
    pytest.param(_without("magic.npy"), "magic", id="missing-magic"),
    pytest.param(_npz_bytes(params=np.array([0.5, None, 0.0], dtype=object)),
                 "Object arrays cannot be loaded", id="object-array"),
    pytest.param(_npz_bytes(magic=np.array("densenet-v3")), "densenet-v3", id="wrong-magic"),
    pytest.param(_npz_bytes(magic=np.array(["densenet-v2"])), "magic is", id="1d-magic"),
    pytest.param(_npz_bytes(layer_sizes=np.array([2, 0, 1]), params=np.zeros(1)),
                 "layer sizes >= 1", id="zero-size-layer"),
    pytest.param(_npz_bytes(layer_sizes=np.array([2, -3, 1])), "layer sizes >= 1",
                 id="negative-size"),
    pytest.param(_npz_bytes(layer_sizes=np.array([3])), "two or more", id="one-size"),
    pytest.param(_npz_bytes(layer_sizes=np.array([2.0, 1.0])), "integer", id="float-sizes"),
    pytest.param(_npz_bytes(layer_sizes=np.array([True, True])), "integer", id="bool-sizes"),
    pytest.param(_npz_bytes(layer_sizes=np.array([[2, 1]])), "layer sizes", id="2d-sizes"),
    pytest.param(_npz_bytes(layer_sizes=np.array([10**9, 10**9])),
                 "need 1000000001000000000 float64 params", id="oversized-sizes"),
    pytest.param(_npz_bytes(params=np.zeros(3, dtype=np.float32)), "got float32",
                 id="float32-params"),
    pytest.param(_npz_bytes(params=np.zeros(4)), "need 3 float64 params", id="params-size"),
    pytest.param(_npz_bytes(params=np.zeros((1, 3))), "shape (1, 3)", id="2d-params"),
    pytest.param(_npz_bytes(params=np.array([0.5, np.nan, 0.0])), "finite, got nan",
                 id="nan-param"),
    pytest.param(_npz_bytes(params=np.array([0.5, 0.0, -np.inf])), "finite, got -inf",
                 id="inf-param"),
])
def test_checkpoint_refusal_names_the_file(tmp_path, content, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_copy_is_independent():
    net = DenseNet([2, 3, 1], seed=0)
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


ARCHITECTURES = ([5, 16, 2], [9, 32, 24, 2])


@pytest.mark.parametrize("sizes", ARCHITECTURES)
@pytest.mark.parametrize("batch", [1, 7, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_backward_adam_bit_identical_to_reference(sizes, batch, seed):
    rng = np.random.default_rng(seed)
    net = DenseNet(sizes, seed=seed)
    ref = ReferenceNet(net)
    opt = AdamState(net, lr=1e-2)
    ref_opt = ReferenceAdam(net, lr=1e-2)
    for _ in range(6):
        x = rng.standard_normal((batch, sizes[0]))
        grad_out = rng.standard_normal((batch, 2))
        assert np.array_equal(net.forward(x[:1]), ref.forward(x[:1]))
        net.backward(grad_out[:1])
        assert np.array_equal(net.grad, flatten_pairs(ref.backward(grad_out[:1])))
        assert np.array_equal(net.forward(x), ref.forward(x))
        net.backward(grad_out)
        ref_grads = ref.backward(grad_out)
        assert np.array_equal(net.grad, flatten_pairs(ref_grads))
        optimizer_step(net, opt)
        reference_optimizer_step(ref, ref_grads, ref_opt)
        assert np.array_equal(net.params, flatten_pairs(zip(ref.weights, ref.biases)))
        assert np.array_equal(opt.m, flatten_pairs(ref_opt.m))
        assert np.array_equal(opt.v, flatten_pairs(ref_opt.v))


def _relu_boundary_net():
    """A [5, 3, 4, 2] net in small integers, so that every product and sum is
    exact: its hidden pre-activations include +0.0 (as 2 - 2, or -3 + 3) and
    negatives in both hidden layers. The last input row's products underflow:
    a one-row pass over it gives a -0.0 pre-activation where the matmul
    kernel keeps the sign of an underflowing product, +0.0 elsewhere."""
    W0 = [[1, -1, 0, 0, 0], [1, 1, 0, 0, 0], [-1, -1, -1e-200, -1e-200, -1e-200]]
    b0 = [0.0, -1.0, -0.0]
    W1 = [[1, -1, 5], [1, 0, 0], [0, 1, 0], [0, 1, 0]]
    b1 = [3.0, -1.0, -3.0, 1.0]
    W2 = [[1, -2, 1, 1], [-1, 1, 2, -1]]
    net = DenseNet([5, 3, 4, 2])
    for dst, src in zip(net.weights + net.biases, (W0, W1, W2, b0, b1, [0.5, -0.5])):
        dst[...] = src
    x = np.array([[2, 2, 0, 0, 0], [1, 1, 0, 0, 0], [3, -1, 0, 0, 0], [-2, 2, 0, 0, 0],
                  [0, 0, 1e-200, 1e-200, 1e-200]])
    return net, x


def test_relu_mask_at_signed_zero_pre_activations_matches_reference():
    """backward reads the ReLU mask off the activation; at a pre-activation of
    exactly +0.0 or -0.0 the mask is 0, as the reference's pre > 0 is."""
    net, x = _relu_boundary_net()
    ref = ReferenceNet(net)
    ref.forward(x)
    for z in ref._cache[1][:-1]:  # the hidden pre-activations
        assert ((z == 0.0) & ~np.signbit(z)).any()
        assert (z < 0.0).any()
        assert (z > 0.0).any()
    opt, ref_opt = AdamState(net, lr=1e-2), ReferenceAdam(net, lr=1e-2)
    grad_out = np.array([[1.0, -2.0], [0.5, 1.5], [-1.0, 1.0], [2.0, 0.25], [1.0, 1.0]])
    for rows in (slice(0, 5), slice(4, 5), slice(0, 1)):
        out = net.forward(x[rows])
        assert np.array_equal(out, ref.forward(x[rows]))
        net.backward(grad_out[rows])
        ref_grads = ref.backward(grad_out[rows])
        assert np.array_equal(net.grad, flatten_pairs(ref_grads))
        optimizer_step(net, opt)
        reference_optimizer_step(ref, ref_grads, ref_opt)
        assert np.array_equal(net.params, flatten_pairs(zip(ref.weights, ref.biases)))


@pytest.mark.parametrize("z", [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf, np.nan])
def test_relu_output_is_positive_exactly_where_its_input_is(z):
    # the identity behind reading the mask off the activation
    z = np.array([z])
    assert np.array_equal(np.maximum(z, 0.0) > 0.0, z > 0.0)


def test_forward_output_survives_later_forward():
    net = DenseNet([3, 8, 2], seed=0)
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal((2, 4, 3))
    out = net.forward(x1)
    kept = out.copy()
    single = net.forward(x1[:1])
    net.forward(x2)
    net.forward(x2[:1])
    assert np.array_equal(out, kept)
    assert np.array_equal(single, kept[:1])


def _states(rng, n, embedding_dim=8, num_classes=5):
    """Vectors shaped like encode_state's: an embedding, then per-class recencies."""
    return np.hstack([3.0 * rng.standard_normal((n, embedding_dim)),
                      rng.integers(0, 400, size=(n, num_classes)) / 3.0])


@pytest.mark.parametrize("sizes", [[13, 64, 64, 2], [13, 256, 256, 2], [13, 8, 2]])
def test_forward_each_bit_identical_to_one_row_forward_and_reference(sizes):
    net = DenseNet(sizes, seed=sum(sizes))
    ref = ReferenceNet(net)
    rng = np.random.default_rng(len(sizes))
    X = _states(rng, 500)
    got = net.forward_each(X)
    assert got.shape == (500, 2)
    for x, row in zip(X, got):
        assert np.array_equal(row, net.forward(x[None])[0])
        assert np.array_equal(row, ref.forward(x))


@pytest.mark.parametrize("sizes", [[13, 64, 64, 2], [13, 256, 256, 2], [6, 8, 2], [9, 32, 24, 2]])
def test_every_row_of_forward_each_is_the_reference_forward_of_that_row(sizes):
    """At every row count from 1 to 40, and on a misaligned row view, each
    row is ReferenceNet's one-vector forward of it: a (rows, in) matrix
    product would not give these bits."""
    net = DenseNet(sizes, seed=len(sizes))
    ref = ReferenceNet(net)
    rng = np.random.default_rng(sum(sizes))
    for rows in range(1, 41):
        X = _states(rng, rows + 1, embedding_dim=sizes[0] - 5)[1:]
        got = net.forward_each(X)
        assert got.shape == (rows, 2)
        for x, row in zip(X, got):
            assert np.array_equal(row, ref.forward(x))


def test_forward_each_between_forward_and_backward_leaves_the_gradients():
    net = DenseNet([13, 64, 64, 2], seed=3)
    twin = net.copy()
    rng = np.random.default_rng(3)
    opt, twin_opt = AdamState(net, lr=1e-2), AdamState(twin, lr=1e-2)
    for _ in range(4):
        X = _states(rng, 32)
        grad_out = rng.standard_normal((32, 2))
        assert np.array_equal(net.forward(X), twin.forward(X))
        net.forward_each(_states(rng, 10))
        net.backward(grad_out)
        optimizer_step(net, opt)
        twin.backward(grad_out)
        optimizer_step(twin, twin_opt)
        assert np.array_equal(net.grad, twin.grad)
        assert np.array_equal(net.params, twin.params)
        x = _states(rng, 1)  # it reads the updated parameters
        assert np.array_equal(net.forward_each(x), twin.forward(x))


def test_parameters_are_views_of_one_flat_vector():
    net = DenseNet([3, 4, 2], seed=0)
    assert net.params.size == 4 * 3 + 4 + 2 * 4 + 2
    net.params[:] = np.arange(net.params.size)
    assert net.weights[0][1, 0] == 3.0 and net.biases[0][0] == 12.0
    net.biases[1][1] = -1.0
    assert net.params[-1] == -1.0


def test_copy_owns_its_buffers():
    net = DenseNet([2, 3, 1], seed=0)
    dup = net.copy()
    assert np.array_equal(dup.params, net.params) and dup.layer_sizes == net.layer_sizes
    assert not np.shares_memory(dup.params, net.params)
    assert not np.shares_memory(dup.grad, net.grad)
    assert all(np.shares_memory(w, dup.params) for w in dup.weights + dup.biases)
    before = net.params.copy()
    dup.params += 1.0
    assert np.array_equal(net.params, before)


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_adam_state_refuses_learning_rate_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning rate must be finite and > 0"):
        AdamState(DenseNet([2, 2], seed=0), lr)
