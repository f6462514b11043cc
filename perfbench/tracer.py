"""Span tracing of the oris layers, installed from outside the program.

Each wrapper replaces a function at the name its callers look up. Because
the package uses `from .x import y`, a function such as `encode_state` is
looked up in `oris.dqn` and `oris.harness`, not only in `oris.encoder`, so
every lookup site is patched. Methods are patched on their class.

A span is (name, start, end, parent span index, op id). Spans stay in memory
until `write_spans`; self time is a span's duration minus that of its direct
children. Counters (flop, slips, minibatches) are recorded at the same
boundaries so that ratios are measured where the work happens.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import partial
from time import perf_counter

# Span name -> (module, attribute) lookup sites of a plain function.
FUNCTION_SITES = {
    "nnet.optimizer_step": [("oris.dqn", "optimizer_step"), ("oris.nnet", "optimizer_step")],
    "encoder.encode_state": [("oris.dqn", "encode_state"), ("oris.harness", "encode_state"),
                             ("oris.encoder", "encode_state")],
    "dqn.select_action": [("oris.dqn", "select_action")],
    "dqn.decide": [("oris.dqn", "decide"), ("oris.harness", "decide")],
    "dqn.train_step": [("oris.dqn", "train_step")],
    "dqn.soft_update": [("oris.dqn", "soft_update")],
    "reward.compute_reward": [("oris.dqn", "compute_reward"), ("oris.reward", "compute_reward")],
    "learner.fit": [("oris.harness", "fit"), ("oris.learner", "fit")],
    "learner.predict_proba": [("oris.harness", "predict_proba"),
                              ("oris.learner", "predict_proba")],
    "learner.f1_macro": [("oris.harness", "f1_macro"), ("oris.learner", "f1_macro")],
    "harness.diversity_select": [("oris.harness", "diversity_select")],
    "harness.single_run": [("oris.harness", "_single_run")],
}

# Span name -> (module, class, method) of a method.
METHOD_SITES = {
    "nnet.backward": ("oris.nnet", "DenseNet", "backward"),
    "dqn.replay_sample": ("oris.dqn", "ReplayBuffer", "sample"),
    "oracle.annotate": ("oris.oracle", "OracleState", "annotate"),
}

# Layers reported as <name>.{calls,busy_s,self_s,us_per_call}.
LAYERS = [
    "nnet.forward_batch", "nnet.backward", "nnet.optimizer_step", "nnet.forward_single",
    "encoder.encode_state", "dqn.select_action", "dqn.decide", "dqn.train_step",
    "dqn.replay_sample", "dqn.soft_update", "reward.compute_reward", "learner.fit",
    "learner.predict_proba", "learner.f1_macro", "oracle.annotate",
    "harness.diversity_select",
]

# Root spans the benchmark opens around each main call.
TRAIN_ROOT = "dqn.train_agent"
AL_ROOT = "harness.run_experiment"

# Spans whose self time is a loop's own work: the run-al stream loop, and the
# training episode loop, which is the body of train_agent itself.
LOOPS = ["harness.single_run", TRAIN_ROOT]


def _dense_work(sizes, batch, backward):
    """Computed (flop, bytes) of one batched pass over a float64 DenseNet.

    Forward: 2*B*fan_in*fan_out flop per layer; it reads the parameters and
    the input activations and writes pre-activations and activations.
    Backward: the weight gradient costs the same flop per layer, the input
    gradient too for every layer but the first; it reads the parameters,
    writes the gradients and reads activations and output gradients.
    """
    pairs = list(zip(sizes, sizes[1:]))
    macs = sum(i * o for i, o in pairs)
    params = sum(i * o + o for i, o in pairs)
    acts = batch * sum(i + 2 * o for i, o in pairs)
    if not backward:
        return 2.0 * batch * macs, 8.0 * (params + acts)
    input_grad_macs = sum(i * o for i, o in pairs[1:])
    return 2.0 * batch * (macs + input_grad_macs), 8.0 * (2 * params + acts)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.missing: set[str] = set()  # lookup sites the program no longer has

    # -- spans ---------------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, op):
        """A root span opened by the benchmark around one main call."""
        self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, after=None):
        open_, close, counters = self._open, self._close, self.counters

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_forward(self, fn):
        open_, close, counters = self._open, self._close, self.counters

        def forward(net, x):
            batched = getattr(x, "ndim", 1) == 2
            idx = open_("nnet.forward_batch" if batched else "nnet.forward_single")
            try:
                result = fn(net, x)
            finally:
                close(idx)
            if batched:
                flop, nbytes = _dense_work(net.layer_sizes, len(x), backward=False)
                counters["nnet.flop"] += flop
                counters["nnet.bytes"] += nbytes
            return result

        forward.__wrapped__ = fn
        return forward

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrap) -> None:
        """Replace owner.attr by wrap(owner.attr); a missing site is recorded
        and skipped, so a refactored program still runs traced."""
        if not hasattr(owner, attr):
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Patch every lookup site; `uninstall` restores them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        learner = importlib.import_module("oris.learner")
        afters = {
            "learner.fit": partial(_count_minibatches, inspect.signature(learner.fit)),
            "nnet.backward": _count_backward,
            "oracle.annotate": _count_slip,
        }
        for name, sites in FUNCTION_SITES.items():
            for module_name, attr in sites:
                self._patch(importlib.import_module(module_name), attr,
                            partial(self._wrap, name, after=afters.get(name)))
        for name, (module_name, cls_name, attr) in METHOD_SITES.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, partial(self._wrap, name, after=afters.get(name)))
        nnet = importlib.import_module("oris.nnet")
        self._patch(nnet.DenseNet, "forward", self._wrap_forward)
        oracle = importlib.import_module("oris.oracle")
        self._patch(oracle.OracleState, "advance_step",
                    partial(_counting, counters=self.counters, key="harness.stream_docs"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(out)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")


def _counting(fn, counters, key):
    def counted(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _count_minibatches(signature, counters, args, kwargs, result) -> None:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    n = len(bound.arguments["training_set"])
    counters["learner.fit.minibatches"] += (
        bound.arguments["epochs"] * math.ceil(n / bound.arguments["batch_size"]))


def _count_backward(counters, args, kwargs, result) -> None:
    net, x = args[0], args[1]
    flop, nbytes = _dense_work(net.layer_sizes, len(x), backward=True)
    counters["nnet.flop"] += flop
    counters["nnet.bytes"] += nbytes


def _count_slip(counters, args, kwargs, result) -> None:
    doc = args[1]
    counters["oracle.slips"] += int(result != doc.true_class)


@contextmanager
def count_calls(module, attr, counters, key):
    """Count calls through module.attr, without timing them."""
    original = getattr(module, attr)
    setattr(module, attr, _counting(original, counters, key))
    try:
        yield
    finally:
        setattr(module, attr, original)
