"""Workloads, inputs, operations and output checks of the oris benchmark.

One run of a workload: generate every input file from the workload seed
(corpus, word vectors, config, the oris agent's checkpoint), set up several
times (config parse, corpus load, checkpoint load), then repeat rounds until
the measuring time is spent. A round does one `run_experiment` call over all
of the workload's seeds per sampling agent, as `run-al` does, with
`train_agent` calls between them; each op does the checkpoint or CSV writes
the CLI does after its main call. Every round does the same work on the
same inputs, so outputs must repeat byte for byte across rounds.

The benchmark calls the public functions the CLI calls, through their
modules, so that the tracer's patched names are the ones used.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import math
import os
import resource
import statistics
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from oris import config as oris_config
from oris import corpus, dqn, harness, nnet
from oris.reward import DISCARD, PICK

from gauge import REFERENCE_S, Gauge
from tracer import AL_ROOT, LAYERS, LOOPS, TRAIN_ROOT, Tracer, count_calls

CLASSES = ("c0", "c1", "c2", "c3", "c4")
AGENTS = ("random", "uncertainty", "diversity", "oris")

# README desk run: hidden 64x64, minibatch 64, lr 3e-3.
DESK = {"agent.hidden": "64, 64", "agent.minibatch": 64, "agent.lr": 3e-3,
        "agent.budget": 150}
# Paper-default network: hidden 256x256, minibatch 512, replay 50,000, lr 1e-4.
PAPER = {"agent.hidden": "256, 256", "agent.minibatch": 512, "agent.lr": 1e-4,
         "agent.replay_capacity": 50000, "agent.budget": 150}
# README experiment settings for run-al.
EXPERIMENT = {"oracle.kind": "sigmoid", "oracle.alpha": 0.3, "oracle.beta": 9,
              "harness.budget": 500, "harness.update_freq": 25,
              "harness.diversity_cap": 5000}

# Share of the stream the oris agent's checkpoint picks (see oris_net): the
# median pick rate of README desk-trained checkpoints (100 episodes) in
# run-al on the corpora of seeds 701-705 (0.54, 0.33, 0.22, 0.14, 0.20).
PICK_SHARE = 0.22
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    """Everything that differs between workloads; the rest is fixed above."""

    name: str
    why: str
    train: dict                 # agent.* keys of the measured train_agent call
    al_seeds: tuple             # run-al seeds of each run_experiment call
    train_every: int            # a round trains before every train_every-th agent
    experiment: dict = field(default_factory=lambda: dict(EXPERIMENT))  # run-al keys
    train_per_class: tuple = (1280, 1440, 160, 600, 520)
    test_per_class: tuple = (320, 360, 40, 150, 130)
    dim: int = 8
    sep: float = 4.0


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-paper",
            why="paper-size DQN training between run-al sweeps: batched DenseNet matmuls",
            train={**PAPER, "agent.episodes": 2},
            al_seeds=(1, 2),  # short rounds, so a run holds seven or more
            train_every=len(AGENTS),
        ),
        Workload(
            name="al-sweep",
            why="run-al sweeps with desk-size training between them: learner.fit, "
                "per-document inference and per-step Python overhead",
            train={**DESK, "agent.episodes": 2},
            al_seeds=(1, 2, 3, 4, 5),
            train_every=1,
        ),
    )
}


# -- inputs --------------------------------------------------------------------


def make_inputs(workload: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write the corpus, word vectors, config and oris checkpoint for `seed`."""
    labels = corpus.LabelSpace(CLASSES)
    seed_train, seed_test, seed_net = np.random.SeedSequence(seed).spawn(3)
    train = corpus.generate_synthetic(labels, workload.train_per_class, workload.dim,
                                      workload.sep, seed_train)
    test = corpus.generate_synthetic(labels, workload.test_per_class, workload.dim,
                                     workload.sep, seed_test, start_id=len(train))
    paths = {name: workdir / name for name in
             ("train.tsv", "test.tsv", "vectors.vec", "bench.cfg", "agent.ckpt")}
    corpus.write_synthetic_corpus(train, labels, paths["train.tsv"])
    corpus.write_synthetic_corpus(test, labels, paths["test.tsv"])
    corpus.write_word_vectors(corpus.surrogate_table(train + test), paths["vectors.vec"])

    keys = {"data.classes": ", ".join(CLASSES),
            "data.train": paths["train.tsv"], "data.test": paths["test.tsv"],
            "data.vectors": paths["vectors.vec"],
            "seeds": ", ".join(str(s) for s in workload.al_seeds),
            **workload.experiment, **workload.train}
    paths["bench.cfg"].write_text("".join(f"{k} = {v}\n" for k, v in keys.items()),
                                  encoding="utf-8")

    nnet.save_checkpoint(oris_net(train, seed_net), paths["agent.ckpt"])
    return paths


def oris_net(docs, seed):
    """A seeded 64x64 DenseNet whose greedy decision picks a document when the
    projection of its embedding on the all-ones direction is in the corpus's
    top PICK_SHARE.

    The net is built, not trained: the pick rate of a trained agent depends
    on the corpus (0.14 to 0.54 after the README's 100 episodes; nothing or
    everything after a few), so the work of an oris run would depend on the
    seed. This net picks the median measured share of every seed's stream,
    and its inference costs what any 64x64 net costs. Unit 0
    of each hidden layer carries the projection; the other units keep their
    random weights and feed nothing.
    """
    dim = len(docs[0].embedding)
    net = nnet.DenseNet([dim + len(CLASSES), 64, 64, 2], seed=seed)
    direction = np.full(dim, 1.0 / math.sqrt(dim))
    threshold = np.quantile(np.stack([d.embedding for d in docs]) @ direction, 1 - PICK_SHARE)
    (w1, w2, w3), (b1, b2, b3) = net.weights, net.biases
    w1[0] = 0.0
    w1[0, :dim] = direction
    b1[0] = -threshold
    w2[0] = 0.0
    w2[0, 0] = 1.0
    b2[0] = 0.0
    w3[:] = 0.0
    w3[PICK, 0] = 1.0
    b3[:] = 0.0
    b3[DISCARD] = 1e-9  # Q(pick) = relu(projection - threshold) must exceed it
    return net


@dataclass
class Setup:
    cfg: object
    train_docs: list
    test_docs: list
    net: object
    times: dict  # phase -> seconds


def set_up(paths: dict[str, Path]) -> Setup:
    """What `run-al` does before its main call: parse, load corpus, load net."""
    t0 = perf_counter()
    cfg = oris_config.parse_config(paths["bench.cfg"])
    t1 = perf_counter()
    table = corpus.load_word_vectors(cfg["data.vectors"])
    train_docs = corpus.load_dataset(cfg["data.train"], table, cfg.label_space())
    test_docs = corpus.load_dataset(cfg["data.test"], table, cfg.label_space())
    t2 = perf_counter()
    net = nnet.load_checkpoint(paths["agent.ckpt"])
    t3 = perf_counter()
    # as in run-al: test ids restart at 0, so shift them past the training ids
    offset = max(d.id for d in train_docs) + 1
    for doc in test_docs:
        doc.id += offset
    return Setup(cfg, train_docs, test_docs, net,
                 {"config.parse_s": t1 - t0, "corpus.load_s": t2 - t1,
                  "nnet.load_checkpoint_s": t3 - t2, "setup_s": t3 - t0})


# -- operations and checks ------------------------------------------------------


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class OpResult:
    kind: str                   # "train", or the agent for run-al
    wall_s: float               # main call plus its writes
    main_s: float               # the main call alone
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)    # output -> sha256
    updates: int = 0            # Q-updates (train)
    save_s: float = 0.0         # save_checkpoint time (train)
    finals: list = field(default_factory=list)     # (machine_f1, human_f1) of each run's last row
    partial_runs: int = 0


def _root(tracer, name, op):
    return tracer.span(name, op) if tracer is not None else nullcontext()


def train_op(state: Setup, workdir: Path, tracer=None, op="") -> OpResult:
    """`train-agent`: train, save the checkpoint, write the training log."""
    cfg = state.cfg
    agent_cfg = cfg.agent_config()
    counts: Counter = Counter()
    ckpt, log = workdir / "trained.ckpt", workdir / "trained.log.csv"
    t0 = perf_counter()
    with count_calls(dqn, "train_step", counts, "updates"), _root(tracer, TRAIN_ROOT, op):
        net, logs = dqn.train_agent(state.train_docs, cfg.label_space(), agent_cfg,
                                    reward_cfg=cfg.reward_config(), k=cfg["encoder.k"],
                                    dt_scale=cfg["encoder.dt_scale"], seed=cfg.seeds[0])
    main = perf_counter() - t0
    t1 = perf_counter()
    nnet.save_checkpoint(net, ckpt)
    save_s = perf_counter() - t1
    dqn.write_training_log(logs, log)
    wall = perf_counter() - t0

    problems = check_training(net, logs, ckpt, log, agent_cfg.episodes)
    if counts["updates"] < 1:
        problems.append("no Q-update was made")
    return OpResult("train", wall, main, problems=problems,
                    digests={"train.ckpt": sha256(ckpt), "train.log": sha256(log)},
                    updates=counts["updates"], save_s=save_s)


def check_training(net, logs, ckpt, log, episodes) -> list[str]:
    problems = []
    if len(logs) != episodes:
        problems.append(f"{len(logs)} episode logs for {episodes} episodes")
    with open(log, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [dqn.TRAINING_LOG_HEADER] or len(rows) != episodes + 1:
        problems.append(f"training log has {len(rows) - 1} rows for {episodes} episodes")
    params = net.weights + net.biases
    if not all(np.isfinite(p).all() for p in params):
        problems.append("non-finite weights")
    loaded = nnet.load_checkpoint(ckpt)
    if loaded.layer_sizes != net.layer_sizes or not all(
            np.array_equal(a, b) for a, b in zip(loaded.weights + loaded.biases, params)):
        problems.append("checkpoint does not round-trip through load_checkpoint")
    return problems


def al_op(state: Setup, agent: str, workdir: Path, tracer=None, op="") -> OpResult:
    """`run-al --agent <agent>` over the config's seeds: run it, write the CSV."""
    cfg = state.cfg.harness_config(agent=agent)
    out = workdir / f"al-{agent}.csv"
    t0 = perf_counter()
    with _root(tracer, AL_ROOT, op):
        record = harness.run_experiment(state.train_docs, state.test_docs, cfg,
                                        net=state.net if agent == "oris" else None)
    main = perf_counter() - t0
    harness.write_record(record, out)
    wall = perf_counter() - t0

    res = OpResult(agent, wall, main, digests={agent: sha256(out)},
                   partial_runs=len(record.partial_runs))
    with open(out, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [",".join(harness.CSV_HEADER)]:
        res.problems.append("bad CSV header")
    runs: dict[str, list] = {str(run_id): [] for run_id in range(len(cfg.seeds))}
    for line in lines[1:]:
        run_id = line.split(",", 1)[0]
        if run_id not in runs:
            res.problems.append(f"row of unknown run id {run_id}")
            continue
        runs[run_id].append(line)
    for run_id, rows in runs.items():
        completed = int(run_id) not in record.partial_runs
        res.problems += [f"run {run_id}: {p}" for p in check_run(rows, cfg, completed)]
        if rows:
            last = rows[-1].split(",")
            res.finals.append((float(last[2]), float(last[3])))
    return res


def check_run(lines, cfg, completed) -> list[str]:
    """Invariants of one run's rows: evaluation every update_freq picks, picks
    within budget, oracle errors non-decreasing and at most picks, f1 in [0, 1]."""
    problems = []
    prev_errors = 0
    for i, line in enumerate(lines, start=1):
        _, exhausted, machine, human, picks, errors = line.split(",")
        exhausted, picks, errors = int(exhausted), int(picks), int(errors)
        if exhausted != i * cfg.update_freq or picks != exhausted:
            problems.append(f"row {i}: picks {picks} / budget_exhausted {exhausted} "
                            f"not at {i} x update_freq")
        if picks > cfg.budget:
            problems.append(f"row {i}: {picks} picks exceed budget {cfg.budget}")
        if not prev_errors <= errors <= picks:
            problems.append(f"row {i}: oracle_errors {errors} decreased or exceed picks")
        prev_errors = errors
        for value in (float(machine), float(human)):
            if not 0.0 <= value <= 1.0:
                problems.append(f"row {i}: f1 {value} outside [0, 1]")
    expected_rows = cfg.budget // cfg.update_freq
    if completed and len(lines) != expected_rows:
        problems.append(f"completed run has {len(lines)} rows, expected {expected_rows}")
    if not completed and lines and int(lines[-1].split(",")[4]) >= cfg.budget:
        problems.append("run flagged partial but reached the budget")
    return problems


def run_op(fn, *args, **kwargs) -> OpResult | None:
    """Run one operation; an exception is reported and counted by the caller."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # the benchmark must keep going and count the failure
        traceback.print_exc()
        return None


# -- a run ----------------------------------------------------------------------


def _median(values):
    if not values:
        raise RuntimeError("no successful sample for a metric")
    return statistics.median(values)


def _mean(values):
    if not values:
        raise RuntimeError("no successful sample for a metric")
    return statistics.fmean(values)


@dataclass
class Ledger:
    """Ops attempted and failed, and the first digest of every op kind."""

    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def account(self, op: str, res: OpResult | None) -> None:
        self.attempted += 1
        if res is None:
            self.failed += 1
            self.failures[op] = ["raised an exception"]
            return
        for output, digest in res.digests.items():
            if self.digests.setdefault(output, digest) != digest:
                res.problems.append(f"{output} differs from the first round")
        if res.problems:
            self.failed += 1
            self.failures[op] = res.problems


def round_jobs(workload: Workload) -> list[str]:
    """The ops of one round in order: each agent's sweep, and a training
    before every `train_every`-th agent."""
    jobs = []
    for i, agent in enumerate(AGENTS):
        if i % workload.train_every == 0:
            jobs.append("train")
        jobs.append(agent)
    return jobs


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """One benchmark run; returns the metrics and the run's record."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = make_inputs(workload, seed, workdir)
    inputs = {name: sha256(path) for name, path in paths.items() if name != "bench.cfg"}
    state = set_up(paths)
    setups: list[dict] = []  # phase times of every set-up
    ledger = Ledger()
    # At paper size the first train_agent call of a process ran slower than
    # the later ones; it is checked like any other op but not timed.
    ledger.account("warmup.train", run_op(train_op, state, workdir))

    tracer = Tracer() if trace else None
    with Gauge() as host:
        rounds = run_rounds(workload, seconds, trace, paths, state, workdir, ledger, setups,
                            tracer, host)

    ops = [(traced, res) for traced, results in rounds for res in results]
    samples: dict[str, list[OpResult]] = {}
    for traced, res in ops:
        if not traced:
            samples.setdefault(res.kind, []).append(res)
    out = {"attempted": ledger.attempted, "failed": ledger.failed,
           "failures": ledger.failures, "digests": ledger.digests, "inputs": inputs,
           "rounds": len(rounds), "gauge_s": host.readings,
           "samples": {kind: [round(r.wall_s, 6) for r in rs] for kind, rs in samples.items()}}
    if trace:
        out["metrics"] = layer_metrics(tracer, rounds, setups, ops)
        out["trace_missing"] = sorted(tracer.missing)
        out["spans"] = tracer
    else:
        out["metrics"] = end_to_end_metrics(setups, samples, rounds[0][1], host.readings)
    return out


def run_rounds(workload, seconds, trace, paths, state, workdir, ledger, setups,
               tracer, host) -> list[tuple[bool, list[OpResult]]]:
    """Rounds of the workload's ops until `seconds` are spent.

    A set-up and a gauge reading precede every op, and a last reading ends
    the run. Only the times of a set-up are kept, not what it loaded: every
    set-up holds a corpus, and a heap that grew with the run would make the
    collector's full passes slower and slower.
    """
    rounds: list[tuple[bool, list[OpResult]]] = []
    start = perf_counter()
    round_s = 0.0
    # Another round starts while it is expected to end nearer the deadline
    # than stopping now would: a run measures `seconds` give or take half a round.
    while len(rounds) < MIN_ROUNDS or perf_counter() - start + round_s / 2 < seconds:
        begun = perf_counter()
        traced = trace and len(rounds) % 2 == 1
        active = tracer if traced else None
        results = []
        with tracer.installed() if traced else nullcontext():
            # Set-ups and op kinds interleave, so that each is sampled all
            # over the run: the host's speed drifts over seconds.
            for i, job in enumerate(round_jobs(workload)):
                # Every set-up and op starts on a collected heap, as in a
                # fresh CLI process, so that no op pays for the garbage of
                # the one before.
                gc.collect()
                setups.append(set_up(paths).times)
                gc.collect()
                host.read()
                op = f"r{len(rounds)}.{i}.{job}"
                if job == "train":
                    res = run_op(train_op, state, workdir, active, op)
                else:
                    res = run_op(al_op, state, job, workdir, active, op)
                ledger.account(op, res)
                if res is not None:
                    results.append(res)
        rounds.append((traced, results))
        round_s = perf_counter() - begun
    host.read()
    return rounds


def end_to_end_metrics(setups, samples, first_round, gauge_s) -> dict:
    """The end-to-end metrics: the run's mean set-up and untraced op times
    of each kind, at the reference host speed; f1 of the first round's
    runs; and the process's peak RSS.

    A time is taken to the reference speed by REFERENCE_S over the mean of
    the run's gauge readings (see gauge.py). Set-ups, ops and readings
    interleave over the whole run, so the means of each see the host's
    slow and fast phases in the same mix.
    """
    slowdown = _mean(gauge_s) / REFERENCE_S
    train = samples.get("train", [])
    metrics = {
        "setup_s": (_mean([t["setup_s"] for t in setups]) / slowdown, "s"),
        "train_steps_per_s": (
            _mean([r.updates for r in train]) / _mean([r.main_s for r in train]) * slowdown,
            "1/s"),
    }
    for agent in AGENTS:
        metrics[f"al_wall_s.{agent}"] = (
            _mean([r.wall_s for r in samples.get(agent, [])]) / slowdown, "s")
    finals = [final for res in first_round for final in res.finals]
    if not finals:
        raise RuntimeError("no evaluation row in any run")
    metrics["machine_f1_final"] = (statistics.fmean(m for m, _ in finals), "f1")
    metrics["human_f1_final"] = (statistics.fmean(h for _, h in finals), "f1")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, rounds, setups, ops) -> dict:
    """Per-layer figures per traced round, setup phases, and tracing overhead."""
    n_traced = sum(traced for traced, _ in rounds)
    times = tracer.layer_times()
    metrics = {}

    def per_round(value):
        return value / n_traced

    for name in LAYERS + [TRAIN_ROOT, AL_ROOT]:
        row = times.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (per_round(row["calls"]), "count")
        metrics[f"{name}.busy_s"] = (per_round(row["busy_s"]), "s")
        metrics[f"{name}.self_s"] = (per_round(row["self_s"]), "s")
        metrics[f"{name}.us_per_call"] = (
            1e6 * row["busy_s"] / row["calls"] if row["calls"] else 0.0, "us")

    def busy(name):
        return times.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    c = tracer.counters
    batched_s = busy("nnet.forward_batch") + busy("nnet.backward")
    metrics["nnet.gflop_computed"] = (per_round(c["nnet.flop"]) / 1e9, "GFLOP")
    metrics["nnet.gbyte_computed"] = (per_round(c["nnet.bytes"]) / 1e9, "GB")
    metrics["nnet.gflops_achieved"] = (c["nnet.flop"] / 1e9 / batched_s if batched_s else 0.0,
                                       "GFLOP/s")
    env_steps = calls("dqn.select_action")
    metrics["dqn.updates_per_env_step"] = (
        calls("dqn.train_step") / env_steps if env_steps else 0.0, "ratio")
    minibatches = c["learner.fit.minibatches"]
    metrics["learner.fit.minibatches"] = (per_round(minibatches), "count")
    metrics["learner.fit.us_per_minibatch"] = (
        1e6 * busy("learner.fit") / minibatches if minibatches else 0.0, "us")
    annotations = calls("oracle.annotate")
    metrics["oracle.slip_rate"] = (c["oracle.slips"] / annotations if annotations else 0.0,
                                   "ratio")
    metrics["harness.stream_docs"] = (per_round(c["harness.stream_docs"]), "count")
    metrics["harness.picks"] = (per_round(annotations), "count")
    metrics["harness.partial_runs"] = (
        per_round(sum(res.partial_runs for traced, res in ops if traced)), "count")
    metrics["harness.loop_self_s"] = (per_round(times.get("harness.single_run", {})
                                                .get("self_s", 0.0)), "s")

    for phase in ("config.parse_s", "corpus.load_s", "nnet.load_checkpoint_s"):
        metrics[phase] = (_median([t[phase] for t in setups]), "s")
    metrics["nnet.save_checkpoint_s"] = (
        _median([res.save_s for _, res in ops if res.kind == "train"]), "s")

    def median_main(traced):
        kinds = sorted({res.kind for _, res in ops})
        return sum(_median([res.main_s for t, res in ops if t == traced and res.kind == kind])
                   for kind in kinds)

    metrics["trace.overhead"] = (median_main(True) / median_main(False), "ratio")
    # The layers' self times plus the loops' (the run-al stream loop, and the
    # episode loop, which is train_agent's own body), over the traced wall of
    # the main calls. Left out is run_experiment's own time outside the stream
    # loop and diversity_select: work that moves out of the wrapped functions
    # into run_experiment, or a loop wrapper that no longer applies, lowers it.
    accounted = sum(times.get(name, {}).get("self_s", 0.0) for name in LAYERS + LOOPS)
    main_traced = sum(res.main_s for traced, res in ops if traced)
    metrics["trace.accounted_share"] = (accounted / main_traced, "ratio")
    return metrics


# -- environment ------------------------------------------------------------------


def blas_record() -> dict:
    """The BLAS numpy was built against and the thread count it runs with."""
    import ctypes

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError):
        pass
    threads = None
    try:  # the loaded OpenBLAS, from this process's memory map (Linux)
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is not None:
            break
    info["threads_in_effect"] = threads
    return info


def git_rev(root: Path) -> str | None:
    """HEAD of a git checkout, read from the files; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, oris_threads_at_launch) -> dict:
    import platform

    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(root),
        "workload_seed": seed,
        "ORIS_THREADS": os.environ.get("ORIS_THREADS"),
        "ORIS_THREADS_at_launch": oris_threads_at_launch,
    }


def clear_inputs(workdir: Path, keep=("result.json", "spans.csv.gz")) -> None:
    """Delete the files of a run directory, except those in `keep`."""
    for path in workdir.iterdir():
        if path.name not in keep:
            path.unlink()
