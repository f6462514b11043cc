"""oris benchmark: one workload run, end-to-end metrics or a traced layer breakdown.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The oris package is imported from `src/`.
Inputs are generated from the seed under `.perfbench_runs/`; the last line
of standard output is the JSON result, the lines above it the environment,
every metric with its unit, and the output digests. The full record (and,
with --trace 1, the spans) is kept in the run's directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"

# BLAS threads of every run; at most nproc on any host. With one, a run uses
# one core and its timings depend less on what runs on the others.
BLAS_THREADS = 1


def fix_threads():
    """Fix the BLAS thread count (before numpy is imported) and unset
    ORIS_THREADS, so seeded runs go one at a time. Returns ORIS_THREADS as
    it was at launch, for the record."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return os.environ.pop("ORIS_THREADS", None)


def pin_cpu():
    """Run on one CPU, the last one allowed. The program runs one thread,
    and the host-speed gauge's process inherits the CPU, so the gauge times
    the CPU the program runs on: on a shared host one CPU can be in a slow
    phase while another is not."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "oris" / "__init__.py").is_file():
        print(f"error: no oris sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    oris_threads_at_launch = fix_threads()
    pin_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    args = parse_args(argv, bench.WORKLOADS)
    workload = bench.WORKLOADS[args.workload]
    workdir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if workdir.exists():
        bench.clear_inputs(workdir, keep=())
    env = bench.environment(ROOT, args.seed, oris_threads_at_launch)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    try:
        out = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as exc:  # a metric without a single successful sample
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tracer = out.pop("spans", None)
    if tracer is not None:
        tracer.write_spans(workdir / "spans.csv.gz")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in out.pop("metrics").items()}
    record = {"workload": workload.name, "why": workload.why, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, **out}
    (workdir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                         encoding="utf-8")
    bench.clear_inputs(workdir)

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print("digests " + json.dumps(out["digests"], sort_keys=True))
    for op, problems in out["failures"].items():
        print(f"FAILED {op}: {'; '.join(problems)}")
    print(f"{out['failed']} of {out['attempted']} ops failed over {out['rounds']} rounds; "
          f"record in {workdir / 'result.json'}")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
