"""The online active-learning loop with pluggable sampling agents.

Per arriving document the configured agent picks or discards; picks are
labeled by the (possibly error-prone) simulated annotator and written to the
run's rows of the sweep's one row store. Every update_freq picks the
classifier is refit from scratch and both machine f1 (held-out test set) and
human f1 (all picks so far) are recorded. Seeded runs are fully independent;
only their refits are stacked, in learner.fit_many calls over spans of the
store that are bit-identical to separate fits (see run_experiment).
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import astuple, dataclass, field, fields

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from .checks import check
from .corpus import LabelSpace, stream_order, write_csv
from .dqn import decide
from .encoder import LastSeenTracker, encode_state
from .learner import f1_macro, fit_many, predict, predict_proba
from .oracle import DecayModel, OracleState
from .reward import DISCARD, PICK, normalized_entropy

AGENT_KINDS = ("random", "uncertainty", "diversity", "oris")

# The oris agent scores this many stream positions per call, all from one
# tracker reading: a walk to the first pick keeps the states up to it.
SCORE_AHEAD = 8

# A fit_many call holds an id per pick of every queued span and a weight
# matrix per span, so the queue is fit once it holds this many picks: a sweep
# at any f then needs bounded memory beyond its row store.
FIT_QUEUE_PICKS = 1 << 20


@dataclass
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
            (self.pick_prob is not None and not 0.0 <= self.pick_prob <= 1.0,
             f"pick_prob must be in [0, 1], got {self.pick_prob}"),
            (self.k < 1, f"history depth k must be >= 1, got {self.k}"),
            (self.dt_scale <= 0, f"dt_scale must be > 0, got {self.dt_scale}"),
            (not 0.0 < self.theta0 <= 1.0, f"theta0 must be in (0, 1], got {self.theta0}"),
            # the thinned pool could not hold `budget` clusters
            (self.diversity_cap < self.budget, "diversity_cap must be >= budget; "
             f"got cap={self.diversity_cap}, B={self.budget}"),
            (self.learner_epochs < 1, f"learner.epochs must be >= 1, got {self.learner_epochs}"),
            (self.learner_batch < 1, f"learner.batch must be >= 1, got {self.learner_batch}"),
            (not self.learner_lr > 0, f"learner.lr must be > 0, got {self.learner_lr}"),
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


def uncertainty_decide(clf, emb, b: int, budget: int, theta0: float) -> int:
    """Pick when the classifier's normalized prediction entropy reaches a
    threshold that decays linearly from theta0 to 0 as the budget is spent.
    Before the first fit, always pick.
    """
    if clf is None:
        return PICK
    entropy = normalized_entropy(predict_proba(clf, emb))
    return PICK if entropy >= theta0 * (1.0 - b / budget) else DISCARD


def diversity_select(docs, budget: int, cap: int = 5000) -> list[int]:
    """Offline selection: average-linkage agglomerative clustering of the
    embeddings into `budget` clusters, keeping the document nearest each
    cluster mean (ties broken toward the lowest id). Deterministic.

    Corpora larger than `cap` are thinned to evenly spaced positions first.
    """
    if len(docs) < budget:
        raise ValueError(f"need at least {budget} documents, got {len(docs)}")
    pool = docs
    if cap and len(docs) > cap:
        keep = np.unique(np.linspace(0, len(docs) - 1, cap).round().astype(int))
        pool = [docs[i] for i in keep]
    X = np.stack([d.embedding for d in pool])
    assignment = fcluster(linkage(X, method="average", metric="euclidean"),
                          t=budget, criterion="maxclust")
    ids = np.array([d.id for d in pool])
    selected = []
    for cluster in np.unique(assignment):
        members = np.where(assignment == cluster)[0]
        center = X[members].mean(axis=0)
        dists = np.linalg.norm(X[members] - center, axis=1)
        order = np.lexsort((ids[members], dists))
        selected.append(int(ids[members][order[0]]))
    return sorted(selected)


def _oris_picks(net, embeddings, tracker: LastSeenTracker, dt_scale: float):
    """The stream positions that the oris agent picks, in order, for the
    (stream length, E) matrix of the stream's embeddings.

    Each call of decide scores the next SCORE_AHEAD positions from one
    tracker reading. Their states hold up to the first pick, whose emission
    the caller records before it asks for the next position; scoring then
    resumes after the pick, and the later states are dropped. So every
    position is decided on the state that a walk over every document gives.
    """
    steps = np.arange(len(embeddings))[:, None]
    t = 0
    while t < len(embeddings):
        ahead = slice(t, t + SCORE_AHEAD)
        actions = decide(net, encode_state(embeddings[ahead], tracker, steps[ahead], dt_scale))
        if PICK in actions:
            t += actions.index(PICK)
            yield t
            t += 1
        else:
            t += SCORE_AHEAD


def _single_run(train_docs, cfg: HarnessConfig, net, diversity_ids, seed, X, y, true,
                embeddings):
    """Stream one seeded run. Its b-th pick's embedding, emitted label and
    true class go to row b of X, y and true, the run's block of the sweep's
    row store. At each refit it yields (picks b, fit seed) and receives the
    classifier fit on rows :b, or None when the agent does not read it; it
    returns whether the budget was spent.

    Only the stream positions the agent has to decide are visited: every
    one for uncertainty, and only the picks of the other agents. For oris
    those are the positions _oris_picks finds in `embeddings`, the matrix of
    train_docs' embeddings, taken in stream order; for diversity those of
    its selected ids; for random those where the agent generator's double
    for the document, all drawn in one call, falls below pick_prob. The
    states and the annotator read the tracker at the visited position, so
    they see the recency that a walk over every document would give."""
    oracle_ss, agent_ss, fit_ss = np.random.SeedSequence(seed).spawn(3)
    tracker = LastSeenTracker(len(cfg.labels), cfg.k)
    oracle_state = OracleState(cfg.oracle, cfg.labels, tracker, seed=oracle_ss)
    fit_rng = np.random.default_rng(fit_ss)
    order = stream_order(len(train_docs), seed)
    stream = [train_docs[i] for i in order]
    if cfg.agent == "random":
        pick_prob = cfg.pick_prob
        if pick_prob is None:
            pick_prob = min(1.0, cfg.budget / len(train_docs))
        draws = np.random.default_rng(agent_ss).random(len(stream))
        positions = np.flatnonzero(draws < pick_prob).tolist()
    elif cfg.agent == "diversity":
        positions = [t for t, doc in enumerate(stream) if doc.id in diversity_ids]
    elif cfg.agent == "oris":
        positions = _oris_picks(net, embeddings[order], tracker, cfg.dt_scale)
    else:
        positions = range(len(stream))

    clf = None
    b = 0
    for t in positions:
        doc = stream[t]
        if cfg.agent == "uncertainty":
            action = uncertainty_decide(clf, doc.embedding, b, cfg.budget, cfg.theta0)
        else:
            action = PICK  # every other agent visits only its picks
        if action == PICK:
            X[b] = doc.embedding
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

    Run i writes its picks to rows i * budget onward of the sweep's row
    store, and each of its refits fits the span of its first b rows. Only the
    uncertainty agent reads its classifier while it streams. Its runs advance
    in lockstep: each streams to its next refit, and the S spans of that
    refit, all of f * i rows, are fit in one fit_many call. Every other
    agent's runs stream to their ends and every refit of the sweep is fit in
    a single fit_many call over spans of unequal size; a queue that reaches
    FIT_QUEUE_PICKS picks is fit at once and its runs stream on.

    The test set must be disjoint from the stream. Runs whose stream ends
    before the budget is exhausted are flagged in partial_runs.
    """
    if not train_docs:
        raise ValueError("empty training stream")
    if not test_docs:
        raise ValueError("empty test set")
    if cfg.agent == "oris" and net is None:
        raise ValueError("the oris agent requires a trained network")
    E, C = len(train_docs[0].embedding), len(cfg.labels)
    if cfg.agent == "oris" and (net.layer_sizes[0], net.layer_sizes[-1]) != (E + C, 2):
        raise ValueError(f"the oris net has layer sizes {net.layer_sizes}; a run with E = {E} "
                         f"embedding dims and C = {C} classes needs {E + C} inputs and 2 outputs")
    train_ids = {d.id for d in train_docs}
    if any(d.id in train_ids for d in test_docs):
        raise ValueError("test set overlaps the training stream")

    diversity_ids = frozenset(
        diversity_select(train_docs, cfg.budget, cap=cfg.diversity_cap)
    ) if cfg.agent == "diversity" else frozenset()
    test_X = np.stack([d.embedding for d in test_docs])
    test_y = np.array([d.true_class for d in test_docs])
    reads_clf = cfg.agent == "uncertainty"

    B = cfg.budget
    X = np.empty((len(cfg.seeds) * B, E))
    y = np.zeros(len(X), dtype=np.intp)  # emitted labels
    true = np.zeros(len(X), dtype=np.intp)
    embeddings = (np.stack([d.embedding for d in train_docs]) if cfg.agent == "oris"
                  else None)
    runs = [_single_run(train_docs, cfg, net, diversity_ids, seed,
                        X[lo:lo + B], y[lo:lo + B], true[lo:lo + B], embeddings)
            for lo, seed in zip(range(0, len(X), B), cfg.seeds)]
    rows: list[list[RecordRow]] = [[] for _ in runs]
    partial = []
    waiting = deque((run_id, None) for run_id in range(len(runs)))  # (run, classifier to send)
    while waiting:
        refits, queued = [], 0  # (run id, b, fit seed)
        while waiting and queued < FIT_QUEUE_PICKS:
            run_id, clf = waiting.popleft()
            try:
                refits.append((run_id, *runs[run_id].send(clf)))
            except StopIteration as done:
                if not done.value:
                    partial.append(run_id)
                continue
            queued += refits[-1][1]
            if not reads_clf:  # it streams on without its classifier
                waiting.appendleft((run_id, None))
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
        if reads_clf:
            waiting.extend(zip(run_ids, clfs))
    return ExperimentRecord(rows=[row for run_rows in rows for row in run_rows],
                            partial_runs=sorted(partial))


def write_record(record: ExperimentRecord, path) -> None:
    """Deterministic CSV: sorted by (run_id, budget_exhausted), floats at 6 decimals."""
    write_csv(path, CSV_HEADER, map(astuple, sorted(
        record.rows, key=lambda r: (r.run_id, r.budget_exhausted))))


def read_record(path) -> ExperimentRecord:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
