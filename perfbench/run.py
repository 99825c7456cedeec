"""Benchmark of the nssgate solver: one workload per run, every output checked.

    python3 perfbench/run.py --workload minimal-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
run sets up (the median of three fresh interpreters that import, make the
inputs and run one warm-up operation), warms up itself, then runs whole
rounds of the workload's operations, one at a time (closed loop, one client),
until --seconds have passed.  The last line of stdout is one JSON object:
correct, attempted, failed and the metrics, the end-to-end ones with
--trace 0 and the per-layer ones with --trace 1.  A copy with the raw
operation times goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3

# Public functions wrapped in the traced run: the statistics each reports per
# round, and a hook that counts from its results.
TRACED = {
    "cli.main": (("self_s",), None),
    "optimizer.sweep": (("time_s",), None),
    "optimizer.scan_nodes": (
        ("calls", "time_s"),
        lambda tr, rep: (tr.count("entries", len(rep.entries)), tr.count("skipped", len(rep.skipped))),
    ),
    "gate_solver.find_transmission": (("calls", "self_s"), lambda tr, roots: tr.count("roots", len(roots))),
    "gate_solver.build_coefficient_matrix": (("calls", "time_s"), None),
    "gate_solver.bs_diagonal_element": (("calls", "time_s"), None),
    "gate_solver.success_probability": (("calls", "time_s"), None),
    "gate_solver.cofactors": (("calls", "time_s"), None),
    "determinants.dense_det": (("calls", "time_s"), None),
    "determinants.exact_det": (("calls", "time_s"), None),
    "polynomials.spoly_eval_exact": (("calls", "time_s"), None),
    "fock_oracle.apply_gate": (("calls", "time_s"), None),
    "fock_oracle.bs_sector_unitary": (("calls", "time_s"), None),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["minimal-sweep", "general-gates", "identities"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help="import, make the inputs, run one operation, exit")
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that set the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(workload, op, durations: list):
    t0 = time.perf_counter()
    out = workload.run(op)
    durations.append(time.perf_counter() - t0)
    return workload.check(op, out)


def timed_rounds(workload, seconds: float, drain=None):
    """Whole rounds until `seconds` have passed.  Returns (op durations,
    failed, problems, round wall times); `drain` runs between rounds, off the
    clock."""
    durations, problems, rounds = [], [], []
    failed = 0
    while not rounds or sum(rounds) < seconds:
        t0 = time.perf_counter()
        for op in workload.ops:
            op_failed, op_problems = run_op(workload, op, durations)
            failed += op_failed
            problems += op_problems
        rounds.append(time.perf_counter() - t0)
        if drain is not None:
            drain()
    return durations, failed, problems, rounds


def layer_metrics(totals: dict, counters, rounds: list) -> dict:
    n = len(rounds)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value / n, "unit": unit}

    for span, (stats, _) in TRACED.items():
        for stat in stats:
            put(f"{span}.{stat}", totals.get(span, {}).get(stat, 0), "count" if stat == "calls" else "s")
    put("gate_solver.find_transmission.det_evals", counters["det_evals"], "count")
    metrics["gate_solver.find_transmission.roots_per_det_eval"] = {
        "value": counters["roots"] / counters["det_evals"] if counters["det_evals"] else 0.0,
        "unit": "roots/det_eval",
    }
    put("optimizer.scan_nodes.entries", counters["entries"], "count")
    put("optimizer.scan_nodes.skipped", counters["skipped"], "count")
    put("cli.output_bytes", counters["cli.output_bytes"], "bytes")
    put("trace.wall_s", sum(rounds), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "nssgate" / "__init__.py").is_file():
        print(f"error: no nssgate package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import tracing
    from workloads import WORKLOADS

    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed)
        workload.run(workload.ops[0])
        return 0

    setup_s = None if args.trace else measure_setup(args)
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    _, warm_problems = workload.check(workload.ops[0], workload.run(workload.ops[0]))

    if args.trace:
        tracer.counters.clear()  # the warm-up ran untraced

        def drain():
            nested = tracer.drain(inside="gate_solver.find_transmission", counted="determinants.dense_det")
            tracer.count("det_evals", nested)

        with tracing.installed(tracer, "nssgate", {name: hook for name, (_, hook) in TRACED.items()}):
            durations, failed, problems, rounds = timed_rounds(workload, args.seconds, drain)
        metrics = layer_metrics(tracer.totals, tracer.counters, rounds)
    else:
        durations, failed, problems, rounds = timed_rounds(workload, args.seconds)
        p50 = statistics.median(durations)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(rounds) / len(rounds), "unit": "s"},
            "op_p50_s": {"value": p50, "unit": "s"},
            "op_p90_s": {"value": statistics.quantiles(durations, n=10)[-1] if workload.tail else p50, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    problems = warm_problems + problems + workload.final_problems()
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(durations), "failed": failed, "metrics": metrics}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=rounds, op_s=durations)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
