"""Independent oracles used by the tests: finite differences, brute-force
confusion-matrix f1, scalar entropy, and plain reference versions of the
optimized or refactored code. Deliberately slow and simple."""

import math
import string
from collections import deque

import numpy as np

from oris.corpus import open_text
from oris.dqn import (
    EpisodeLog,
    ReplayBuffer,
    select_action,
    soft_update,
    train_step,
)
from oris.encoder import LastSeenTracker, encode_state
from oris.harness import RecordRow
from oris.learner import f1_macro, fit, predict, predict_proba
from oris.nnet import AdamState, DenseNet, smooth_l1
from oris.oracle import error_probability
from oris.reward import DISCARD, PICK, RewardConfig, inclusivity


def finite_difference_net_grads(net, x, grad_out, h=1e-5):
    """Central-difference gradients of sum(forward(x) * grad_out) w.r.t. every
    parameter, matching the layout returned by net.backward."""
    def objective():
        return float((net.forward(x) * grad_out).sum())

    grads = []
    for li in range(len(net.weights)):
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


class ReferenceNet:
    """The plain DenseNet: one array per weight matrix and bias, and new
    arrays on every forward and backward pass. The reference that the flat,
    workspace-based oris.nnet.DenseNet must match bit for bit."""

    def __init__(self, net):
        self.weights = [np.array(w) for w in net.weights]
        self.biases = [np.array(b) for b in net.biases]
        self._cache = None

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        a = np.atleast_2d(x)
        acts = [a]
        pre = []
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W.T + b
            pre.append(z)
            a = np.maximum(z, 0.0) if i < len(self.weights) - 1 else z
            acts.append(a)
        self._cache = (acts, pre)
        return acts[-1][0] if single else acts[-1]

    def backward(self, grad_out):
        acts, pre = self._cache
        g = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        grads = [None] * len(self.weights)
        for i in reversed(range(len(self.weights))):
            grads[i] = (g.T @ acts[i], g.sum(axis=0))
            if i > 0:
                g = (g @ self.weights[i]) * (pre[i - 1] > 0.0)
        return grads


def reference_decide(ref_net, state):
    """Greedy action on one state vector through ReferenceNet; a tie goes to pick."""
    q = ref_net.forward(state)
    return PICK if q[PICK] >= q[DISCARD] else DISCARD


class ReferenceAdam:
    """Per-tensor first/second moments, as (mW, mb) pairs per layer."""

    def __init__(self, net, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in zip(net.weights, net.biases)]
        self.v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in zip(net.weights, net.biases)]


def reference_optimizer_step(net, grads, opt):
    """The per-tensor Adam loop, a new temporary per expression."""
    opt.step_count += 1
    bc1 = 1.0 - opt.beta1 ** opt.step_count
    bc2 = 1.0 - opt.beta2 ** opt.step_count
    for i, (dW, db) in enumerate(grads):
        for param, grad, m, v in (
            (net.weights[i], dW, opt.m[i][0], opt.v[i][0]),
            (net.biases[i], db, opt.m[i][1], opt.v[i][1]),
        ):
            m *= opt.beta1
            m += (1.0 - opt.beta1) * grad
            v *= opt.beta2
            v += (1.0 - opt.beta2) * grad * grad
            param -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)


def reference_soft_update(source, target, tau):
    for src, dst in zip(source.weights + source.biases, target.weights + target.biases):
        dst *= 1.0 - tau
        dst += tau * src


def reference_train_step(source, target, transitions, gamma, opt):
    """The list-based Q-update over (state, action, reward, next_state)
    tuples, stacked into arrays on every call. Returns mean loss."""
    n = len(transitions)
    states = np.stack([t[0] for t in transitions])
    actions = np.array([t[1] for t in transitions])
    rewards = np.array([t[2] for t in transitions])
    next_states = np.stack([t[3] for t in transitions])
    q_next = target.forward(next_states)
    targets = rewards + gamma * q_next.max(axis=1)
    q = source.forward(states)
    loss, dpred = smooth_l1(q[np.arange(n), actions], targets)
    grad_out = np.zeros_like(q)
    grad_out[np.arange(n), actions] = dpred / n
    reference_optimizer_step(source, source.backward(grad_out), opt)
    return float(loss.mean())


def flatten_pairs(pairs):
    """Concatenate per-layer (W, b) pairs in the flat W0, b0, W1, b1, ... layout."""
    return np.concatenate([np.ravel(a) for pair in pairs for a in pair])


class ReferenceOracle:
    """The annotator with its own dict of last-emitted steps and its own step
    counter, kept apart from the agent's tracker: the reference for
    oris.oracle.OracleState, which reads the shared LastSeenTracker."""

    def __init__(self, model, num_classes, seed=0):
        self.model = model
        self.num_classes = num_classes
        self.last_seen_step = {c: 0 for c in range(num_classes)}
        self.current_step = 0
        self.rng = np.random.default_rng(seed)

    def annotate(self, doc):
        true = doc.true_class
        p = error_probability(self.model, self.current_step - self.last_seen_step[true])
        emitted = true
        if p > 0.0 and self.rng.random() < p:
            others = [c for c in range(self.num_classes) if c != true]
            emitted = others[self.rng.integers(len(others))]
        self.last_seen_step[emitted] = self.current_step
        return emitted

    def advance_step(self):
        self.current_step += 1


def random_decide(rng, pick_prob: float) -> int:
    """Bernoulli(pick_prob) pick: the random agent's per-document coin. A
    run-al random run draws the same doubles, one per stream document, in a
    single call (see harness._single_run)."""
    if not 0.0 <= pick_prob <= 1.0:
        raise ValueError(f"pick probability must be in [0, 1], got {pick_prob}")
    return PICK if rng.random() < pick_prob else DISCARD


def shuffle_stream(docs, seed) -> list:
    """The documents in stream order: the seeded permutation that
    `harness._single_run` applies to its stream."""
    return [docs[i] for i in np.random.default_rng(seed).permutation(len(docs))]


def reference_tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip leading/trailing punctuation."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def reference_load_dataset(path, table, labels, start_id=0):
    """`corpus.load_dataset` as a plain loop over the file's lines, with a
    `reference_tokenize` call per line and each document's `np.mean`: its
    documents as (id, class, embedding) triples, and the messages it warns.
    Raises the ValueError the loader raises."""
    classes, doc_rows, bad = [], [], []
    rows = table.rows
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            text, sep, label = line.rpartition("\t")
            if not sep:
                bad.append(f"line {lineno}: missing tab separator")
                continue
            label = label.strip()
            try:
                true_class = labels.index(label)
            except KeyError:
                bad.append(f"line {lineno}: unknown label {label!r}")
                continue
            classes.append(true_class)
            doc_rows.append([rows[t] for t in reference_tokenize(text) if t in rows])
    if bad:
        raise ValueError(f"{path}: " + "; ".join(bad))
    if not classes:
        raise ValueError(f"{path}: no records")
    unseen = sum(not ids for ids in doc_rows)
    if unseen == len(classes):
        raise ValueError(f"{path}: none of its {len(classes)} documents has a word in the "
                         f"vector table")
    warned = [f"{path}: {unseen} of {len(classes)} documents have no word in the vector "
              f"table and embed as zeros"] if unseen else []
    dim = table.matrix.shape[1]
    docs = [(start_id + i, c, np.mean([table.matrix[r] for r in ids], axis=0) if ids
             else np.zeros(dim)) for i, (c, ids) in enumerate(zip(classes, doc_rows))]
    return docs, warned


def reference_uncertainty_entropy(clf, emb):
    """Normalized entropy in bits of the classifier's prediction for one
    embedding, over its nonzero probabilities."""
    probs = predict_proba(clf, emb)
    nonzero = probs[probs > 0]
    return float(-(nonzero * np.log2(nonzero)).sum()) / math.log2(len(probs))


def reference_uncertainty_decide(clf, emb, b, budget, theta0):
    if clf is None:
        return PICK
    entropy = reference_uncertainty_entropy(clf, emb)
    return PICK if entropy >= theta0 * (1.0 - b / budget) else DISCARD


def reference_single_run(train_docs, test_docs, cfg, net, diversity_ids, run_id, seed,
                         picks=None):
    """One run of the online loop as first written, with two recency states
    (ReferenceOracle and a LastSeenTracker) updated side by side. Returns
    (rows, completed): the reference that harness._single_run must match.
    It decides every document on its own, the oris agent through
    ReferenceNet. A `picks` list receives (true class, emitted label) of
    every pick."""
    labels = cfg.labels
    oracle_ss, agent_ss, fit_ss = np.random.SeedSequence(seed).spawn(3)
    oracle_state = ReferenceOracle(cfg.oracle, len(labels), seed=oracle_ss)
    tracker = LastSeenTracker(len(labels), cfg.k)
    agent_rng = np.random.default_rng(agent_ss)
    fit_rng = np.random.default_rng(fit_ss)
    pick_prob = cfg.pick_prob
    if pick_prob is None:
        pick_prob = min(1.0, cfg.budget / len(train_docs))
    test_X = np.stack([d.embedding for d in test_docs])
    test_y = np.array([d.true_class for d in test_docs])
    order = np.random.default_rng(seed).permutation(len(train_docs))
    ref_net = ReferenceNet(net) if cfg.agent == "oris" else None

    training_set, picked_true, picked_emitted, rows = [], [], [], []
    clf = None
    b = errors = 0
    for t, doc in enumerate(train_docs[i] for i in order):
        if cfg.agent == "random":
            action = random_decide(agent_rng, pick_prob)
        elif cfg.agent == "uncertainty":
            action = reference_uncertainty_decide(clf, doc.embedding, b, cfg.budget, cfg.theta0)
        elif cfg.agent == "diversity":
            action = PICK if doc.id in diversity_ids else DISCARD
        else:
            action = reference_decide(ref_net, encode_state(doc.embedding, tracker, t,
                                                            cfg.dt_scale))
        if action == PICK:
            emitted = oracle_state.annotate(doc)
            b += 1
            if emitted != doc.true_class:
                errors += 1
            training_set.append((doc.embedding, emitted))
            picked_true.append(doc.true_class)
            picked_emitted.append(emitted)
            if picks is not None:
                picks.append((doc.true_class, emitted))
            tracker.record_emission(emitted, t)
            if b % cfg.update_freq == 0:
                clf = fit(training_set, labels, seed=int(fit_rng.integers(2 ** 31)),
                          epochs=cfg.learner_epochs, batch_size=cfg.learner_batch,
                          lr=cfg.learner_lr)
                machine = f1_macro(test_y, predict(clf, test_X), labels)
                human = f1_macro(picked_true, picked_emitted, labels)
                rows.append(RecordRow(run_id, b, machine, human, b, errors))
        oracle_state.advance_step()
        if b >= cfg.budget:
            break
    return rows, b >= cfg.budget


def reference_reward(action, window, num_classes, cfg):
    """The reward as first written: it recomputes the inclusivity of the
    window's label list."""
    if action == PICK:
        return cfg.rho * math.exp(cfg.delta * (inclusivity(list(window), num_classes) - 1.0))
    return cfg.lam


def reference_train_agent(docs, labels, cfg, reward_cfg=RewardConfig(), k=3, dt_scale=1.0,
                          seed=0):
    """The training loop as first written, with its own pick window and the
    inclusivity computed twice per pick and its own count of decisions for
    the exploration rate: the reference that train_agent must match bit for
    bit. Returns (net, logs)."""
    num_classes = len(labels)
    emb_dim = len(docs[0].embedding)
    net_ss, shuffle_ss, action_ss, buffer_ss = np.random.SeedSequence(seed).spawn(4)
    net = DenseNet([emb_dim + num_classes, *cfg.hidden, 2], seed=net_ss)
    target = net.copy()
    opt = AdamState(net, lr=cfg.lr)
    buf = ReplayBuffer(cfg.replay_capacity, emb_dim + num_classes, seed=buffer_ss)
    decisions = 0

    def eps_now():
        return cfg.eps_end + (cfg.eps_start - cfg.eps_end) * math.exp(-cfg.eps_decay * decisions)

    action_rng = np.random.default_rng(action_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    n = len(docs)
    logs = []
    for episode in range(1, cfg.episodes + 1):
        order = shuffle_rng.permutation(n)
        tracker = LastSeenTracker(num_classes, k)
        window = deque(maxlen=reward_cfg.m)
        picks = 0
        total_reward = 0.0
        incl_sum = 0.0
        losses = []
        state = encode_state(docs[order[0]].embedding, tracker, 0, dt_scale)
        for t in range(n):
            doc = docs[order[t]]
            action = select_action(net, state, eps_now(), action_rng)
            decisions += 1
            if action == PICK:
                picks += 1
                emitted = doc.true_class
                window.append(emitted)
                tracker.record_emission(emitted, t)
                incl_sum += inclusivity(list(window), num_classes)
            r = reference_reward(action, window, num_classes, reward_cfg)
            total_reward += r
            if t + 1 < n:
                next_state = encode_state(docs[order[t + 1]].embedding, tracker, t + 1, dt_scale)
            else:
                next_state = state
            buf.push(state, action, r, next_state)
            if len(buf) >= cfg.minibatch:
                losses.append(train_step(net, target, buf.sample(cfg.minibatch), cfg, opt))
            soft_update(net, target, cfg.tau)
            state = next_state
            if picks >= cfg.budget:
                break
        logs.append(EpisodeLog(
            episode=episode,
            total_reward=total_reward,
            mean_inclusivity=incl_sum / picks if picks else 0.0,
            epsilon=eps_now(),
            loss=float(np.mean(losses)) if losses else 0.0,
            truncated=picks < cfg.budget,
        ))
    return net, logs


def reference_evaluate_policy(docs, labels, cfg, reward_cfg=RewardConfig(), k=3, dt_scale=1.0,
                              seed=0, episodes=50, net=None):
    """Per-episode total reward of the training episode without learning, on
    a fresh shuffle per episode: greedy decisions through ReferenceNet when a
    net is given (a state is encoded only then), uniform random actions
    otherwise. Criterion 6 scores its policies with it; the package has no
    evaluator of its own. Returns the list of episode totals."""
    num_classes = len(labels)
    ref_net = None if net is None else ReferenceNet(net)
    shuffle_ss, action_ss = np.random.SeedSequence(seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    action_rng = np.random.default_rng(action_ss)
    n = len(docs)
    totals = []
    for _ in range(episodes):
        order = shuffle_rng.permutation(n)
        tracker = LastSeenTracker(num_classes, k)
        window = deque(maxlen=reward_cfg.m)
        picks = 0
        total = 0.0
        for t in range(n):
            doc = docs[order[t]]
            if net is None:
                action = int(action_rng.integers(2))
            else:
                action = reference_decide(ref_net, encode_state(doc.embedding, tracker, t,
                                                                dt_scale))
            if action == PICK:
                picks += 1
                window.append(doc.true_class)
                tracker.record_emission(doc.true_class, t)
            total += reference_reward(action, window, num_classes, reward_cfg)
            if picks >= cfg.budget:
                break
        totals.append(total)
    return totals
