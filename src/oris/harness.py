"""The online active-learning loop with pluggable sampling agents.

Per arriving document the configured agent picks or discards; picks are
labeled by the (possibly error-prone) simulated annotator and written to the
run's rows of the sweep's one row store. Every update_freq picks the
classifier is refit from scratch and both machine f1 (held-out test set) and
human f1 (all picks so far) are recorded. The oris and uncertainty agents
score blocks of stream positions per call (_block_picks), each row bit for
bit as it would be scored alone. Seeded runs are fully independent; only
their refits are stacked, in learner.fit_many calls over spans of the store,
bit-identical to separate fits and bounded by fit_many (see run_experiment).
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from .checks import check
from .corpus import LabelSpace, open_text, write_csv
from .dqn import decide
from .encoder import LastSeenTracker, encode_state
from .learner import _class_sum, f1_macro, fit_many, predict, predict_proba
from .oracle import DecayModel, OracleState
from .reward import PICK, normalized_entropy

AGENT_KINDS = ("random", "uncertainty", "diversity", "oris")

# The oris agent scores this many stream positions per call, all from one
# tracker reading: a walk to the first pick keeps the states up to it.
SCORE_AHEAD = 8


@dataclass(frozen=True)
class HarnessConfig:
    labels: LabelSpace
    agent: str = "random"
    budget: int = 500
    update_freq: int = 25
    seeds: tuple = (1, 2, 3, 4, 5)
    oracle: DecayModel = field(default_factory=DecayModel)
    k: int = 3
    dt_scale: float = 1.0
    pick_prob: float | None = None  # None -> budget / stream length
    theta0: float = 0.5
    diversity_cap: int = 5000
    learner_epochs: int = 50
    learner_batch: int = 32
    learner_lr: float = 0.1

    def __post_init__(self):
        check(
            (self.agent not in AGENT_KINDS,
             f"unknown agent {self.agent!r}, expected one of {AGENT_KINDS}"),
            (self.budget < 1, f"budget must be >= 1, got {self.budget}"),
            (not 0 < self.update_freq <= self.budget, "update frequency must be in (0, budget]; "
             f"got f={self.update_freq}, B={self.budget}"),
            (not self.seeds, "need at least one seed"),
            # a repeated seed repeats its run, which aggregate would count twice
            (min(self.seeds, default=0) < 0 or len(set(self.seeds)) < len(self.seeds),
             f"seeds must be distinct and >= 0, got {self.seeds}"),
            (self.pick_prob is not None and not 0.0 <= self.pick_prob <= 1.0,
             f"pick_prob must be in [0, 1], got {self.pick_prob}"),
            (self.k < 1, f"history depth k must be >= 1, got {self.k}"),
            (not 0 < self.dt_scale < math.inf,
             f"dt_scale must be finite and > 0, got {self.dt_scale}"),
            (not 0.0 < self.theta0 <= 1.0, f"theta0 must be in (0, 1], got {self.theta0}"),
            # the thinned pool could not hold `budget` clusters
            (self.diversity_cap < self.budget, "diversity_cap must be >= budget; "
             f"got cap={self.diversity_cap}, B={self.budget}"),
            (self.learner_epochs < 1, f"learner.epochs must be >= 1, got {self.learner_epochs}"),
            (self.learner_batch < 1, f"learner.batch must be >= 1, got {self.learner_batch}"),
            (not 0 < self.learner_lr < math.inf,
             f"learner.lr must be finite and > 0, got {self.learner_lr}"),
        )


@dataclass
class RecordRow:
    run_id: int
    budget_exhausted: int
    machine_f1_macro: float
    human_f1_macro: float
    picks: int
    oracle_errors: int


CSV_HEADER = [f.name for f in fields(RecordRow)]
_CELL_PARSERS = (int, int, float, float, int, int)  # RecordRow's, in column order


@dataclass
class ExperimentRecord:
    rows: list[RecordRow]
    partial_runs: list[int]  # run ids whose stream ended before the budget


def uncertainty_scores(clf, X) -> np.ndarray:
    """normalized_entropy(predict_proba(clf, x)) of every row x of the
    (rows, E) matrix X, bit for bit. Each row takes the one-row product of
    the 1-D call, from the (rows, 1, E) stack, and the class-major softmax;
    the entropy terms are summed over the classes in numpy's order
    (_class_sum). normalized_entropy sums only the nonzero terms, so a row
    with an exactly-zero probability is scored by it on its own: at C >= 8
    the masked full-row sum groups the terms differently."""
    probs_T = predict_proba(clf, X[:, None]).T[:, 0]  # class-major (C, rows)
    positive = probs_T > 0
    terms = np.log2(probs_T, out=np.zeros_like(probs_T), where=positive)
    terms *= probs_T
    scores = -_class_sum(terms) / math.log2(len(probs_T))
    for row in np.flatnonzero(~positive.all(axis=0)):
        scores[row] = normalized_entropy(probs_T[:, row])
    return scores


def diversity_select(X, budget: int, cap: int) -> list[int]:
    """Offline selection: average-linkage agglomerative clustering of the
    rows of the (n, E) matrix X into `budget` clusters, keeping the row
    nearest each cluster mean (ties broken toward the lower row). Returns
    the sorted row positions. Deterministic.

    Matrices of more than `cap` rows are thinned to evenly spaced rows
    first, so `cap` must be at least `budget`.
    """
    if len(X) < budget:
        raise ValueError(f"need at least {budget} documents, got {len(X)}")
    if cap < budget:  # the thinned pool could not hold `budget` clusters
        raise ValueError(f"cap must be >= budget; got cap={cap}, B={budget}")
    rows = np.arange(len(X))
    if len(X) > cap:
        rows = np.unique(np.linspace(0, len(X) - 1, cap).round().astype(int))
    pool = X[rows]
    assignment = fcluster(linkage(pool, method="average", metric="euclidean"),
                          t=budget, criterion="maxclust")
    selected = []
    for cluster in np.unique(assignment):
        members = np.flatnonzero(assignment == cluster)
        points = pool[members]
        dists = np.linalg.norm(points - points.mean(axis=0), axis=1)
        selected.append(int(rows[members[np.argmin(dists)]]))  # the lowest row of a tie
    return sorted(selected)


def _block_picks(stream_len: int, every: int, score, picked):
    """The positions that an agent picks, in order, from a stream of
    stream_len. At position t with b picks, score(t, b, left) returns the
    values of a block from t on, never past the stream's end, that hold for
    the next left = every - b % every picks. A position is picked when
    picked(value, b) holds; after `left` picks the rest of the block is
    dropped and scoring resumes at the next position. b is exact because
    the caller records each pick before it asks for the next."""
    b = t = 0
    while t < stream_len:
        for t, value in enumerate(score(t, b, every - b % every), t):
            if picked(value, b):
                yield t
                b += 1
                if not b % every:  # `left` picks made: the block's scores are stale
                    break
        t += 1


def _single_run(train_docs, train_X, cfg: HarnessConfig, net, diversity_rows, seed, X, y, true):
    """Stream one seeded run over train_docs, document i embedded as row i
    of train_X. Its b-th pick's embedding, emitted label and true class go
    to row b of X, y and true, the run's block of the sweep's row store. At
    each refit it yields (picks b, fit seed) and receives the classifier fit
    on rows :b, or None when the agent does not read it; it returns whether
    the budget was spent.

    Stream position t holds row order[t]. Every agent is an iterator of the
    positions it picks, and the loop visits only those: oris and
    uncertainty score train_X's rows in stream order in blocks
    (_block_picks), diversity picks the positions holding its selected
    rows, and random those where the agent generator's double for the
    document, all drawn in one call, falls below pick_prob. The states and
    the annotator read the tracker at the picked position, so they see the
    recency that a walk over every document would give."""
    oracle_ss, agent_ss, fit_ss = np.random.SeedSequence(seed).spawn(3)
    tracker = LastSeenTracker(len(cfg.labels), cfg.k)
    oracle_state = OracleState(cfg.oracle, tracker, seed=oracle_ss)
    fit_rng = np.random.default_rng(fit_ss)
    order = np.random.default_rng(seed).permutation(len(train_X))
    clf = None
    b = 0
    if cfg.agent == "random":
        pick_prob = cfg.pick_prob
        if pick_prob is None:
            pick_prob = min(1.0, cfg.budget / len(order))
        draws = np.random.default_rng(agent_ss).random(len(order))
        positions = np.flatnonzero(draws < pick_prob).tolist()
    elif cfg.agent == "diversity":
        positions = np.flatnonzero(np.isin(order, diversity_rows)).tolist()
    elif cfg.agent == "oris":
        stream_X, steps = train_X[order], np.arange(len(order))[:, None]

        def score(t, b, left):  # a pick changes the tracker that every state reads
            ahead = slice(t, t + SCORE_AHEAD)
            return decide(net, encode_state(stream_X[ahead], tracker, steps[ahead], cfg.dt_scale))

        positions = _block_picks(len(order), 1, score, lambda action, b: action == PICK)
    else:
        stream_X = train_X[order]

        def score(t, b, left):  # a refit replaces the classifier
            if clf is None:  # before the first refit every position is picked
                return [math.inf] * min(left, len(order) - t)
            # ceil(left * t / b) rows: the picks still needed times the positions per pick
            return uncertainty_scores(clf, stream_X[t:t - (-left * t // b)]).tolist()

        def picked(entropy, b):
            return entropy >= cfg.theta0 * (1.0 - b / cfg.budget)

        positions = _block_picks(len(order), cfg.update_freq, score, picked)

    for t in positions:
        row = order[t]
        doc = train_docs[row]
        X[b] = train_X[row]
        y[b] = oracle_state.annotate(doc, t)  # also recorded in tracker
        true[b] = doc.true_class
        b += 1
        if b % cfg.update_freq == 0:
            clf = yield b, int(fit_rng.integers(2 ** 31))
        if b >= cfg.budget:
            break
    return b >= cfg.budget


def run_experiment(train_docs, test_docs, cfg: HarnessConfig, net=None) -> ExperimentRecord:
    """Run one seeded experiment per cfg.seeds entry and merge the records.

    The training documents' embedding vectors are stacked once, into the
    (n, E) matrix that every run streams rows of and that diversity_select
    clusters. Run i writes its picks to rows i * budget onward of the
    sweep's row store, and each of its refits fits the span of its first b
    rows. Each live run streams until it yields a refit whose classifier it
    reads, or until it ends, and the refits yielded are fit in one fit_many
    call, which bounds its own arrays. Only the uncertainty agent reads its
    classifier while it streams, so its runs advance in lockstep, one call
    of S spans of f * i rows per refit level. Every other agent's runs
    stream to their ends, and every refit of the sweep is fit in a single
    call over spans of unequal size.

    The test set must be disjoint from the stream. Runs whose stream ends
    before the budget is exhausted are flagged in partial_runs.
    """
    if not train_docs:
        raise ValueError("empty training stream")
    if not test_docs:
        raise ValueError("empty test set")
    if cfg.agent == "oris" and net is None:
        raise ValueError("the oris agent requires a trained network")
    train_X = np.stack([d.embedding for d in train_docs])
    E, C = train_X.shape[1], len(cfg.labels)
    if cfg.agent == "oris" and (net.layer_sizes[0], net.layer_sizes[-1]) != (E + C, 2):
        raise ValueError(f"the oris net has layer sizes {net.layer_sizes}; a run with E = {E} "
                         f"embedding dims and C = {C} classes needs {E + C} inputs and 2 outputs")
    train_ids = {d.id for d in train_docs}
    if any(d.id in train_ids for d in test_docs):
        raise ValueError("test set overlaps the training stream")

    diversity_rows = (diversity_select(train_X, cfg.budget, cap=cfg.diversity_cap)
                      if cfg.agent == "diversity" else [])
    test_X = np.stack([d.embedding for d in test_docs])
    test_y = np.array([d.true_class for d in test_docs])
    reads_clf = cfg.agent == "uncertainty"

    B = cfg.budget
    X = np.empty((len(cfg.seeds) * B, E))
    y = np.zeros(len(X), dtype=np.intp)  # emitted labels
    true = np.zeros(len(X), dtype=np.intp)
    runs = [_single_run(train_docs, train_X, cfg, net, diversity_rows, seed,
                        X[lo:lo + B], y[lo:lo + B], true[lo:lo + B])
            for lo, seed in zip(range(0, len(X), B), cfg.seeds)]
    rows: list[list[RecordRow]] = [[] for _ in runs]
    partial = []
    sends = dict.fromkeys(range(len(runs)))  # live run id -> the classifier it is sent next
    while sends:
        refits = []  # (run id, b, fit seed)
        for run_id, clf in sends.items():
            try:
                refits.append((run_id, *runs[run_id].send(clf)))
                while not reads_clf:  # it streams to its end without its classifier
                    refits.append((run_id, *runs[run_id].send(None)))
            except StopIteration as done:
                if not done.value:
                    partial.append(run_id)
        if not refits:
            break
        run_ids, picks, fit_seeds = zip(*refits)
        clfs = fit_many(X, y, [(run_id * B, b) for run_id, b in zip(run_ids, picks)],
                        cfg.labels, fit_seeds, epochs=cfg.learner_epochs,
                        batch_size=cfg.learner_batch, lr=cfg.learner_lr)
        for run_id, b, clf in zip(run_ids, picks, clfs):
            lo = run_id * B
            emitted, truth = y[lo:lo + b], true[lo:lo + b]
            machine = f1_macro(test_y, predict(clf, test_X), cfg.labels)
            human = f1_macro(truth, emitted, cfg.labels)
            rows[run_id].append(RecordRow(run_id, b, machine, human, b,
                                          int(np.count_nonzero(emitted != truth))))
        sends = dict(zip(run_ids, clfs)) if reads_clf else {}
    return ExperimentRecord(rows=[row for run_rows in rows for row in run_rows],
                            partial_runs=sorted(partial))


def write_record(record: ExperimentRecord, path) -> None:
    """Deterministic CSV: sorted by (run_id, budget_exhausted), floats at 6 decimals."""
    write_csv(path, CSV_HEADER, map(astuple, sorted(
        record.rows, key=lambda r: (r.run_id, r.budget_exhausted))))


def read_record(path) -> ExperimentRecord:
    rows = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for rec in reader:
            if len(rec) != len(CSV_HEADER):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(CSV_HEADER)} "
                                 f"fields, got {len(rec)}")
            try:
                rows.append(RecordRow(*(parse(cell) for parse, cell in zip(_CELL_PARSERS, rec))))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return ExperimentRecord(rows=rows, partial_runs=[])


AGGREGATE_HEADER = ["budget_exhausted", "n_runs",
                    "machine_f1_macro_mean", "machine_f1_macro_std",
                    "human_f1_macro_mean", "human_f1_macro_std"]


def aggregate_records(records) -> list[dict]:
    """Mean and (population) standard deviation per evaluation interval,
    pooled over every row of every record."""
    by_interval: dict[int, list[RecordRow]] = {}
    for record in records:
        for row in record.rows:
            by_interval.setdefault(row.budget_exhausted, []).append(row)
    out = []
    for b in sorted(by_interval):
        machine = np.array([r.machine_f1_macro for r in by_interval[b]])
        human = np.array([r.human_f1_macro for r in by_interval[b]])
        out.append({
            "budget_exhausted": b,
            "n_runs": len(by_interval[b]),
            "machine_f1_macro_mean": float(machine.mean()),
            "machine_f1_macro_std": float(machine.std()),
            "human_f1_macro_mean": float(human.mean()),
            "human_f1_macro_std": float(human.std()),
        })
    return out


def write_aggregate(rows, path) -> None:
    write_csv(path, AGGREGATE_HEADER, ([r[k] for k in AGGREGATE_HEADER] for r in rows))
