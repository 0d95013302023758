"""fiberext benchmark: seeded workloads through the in-process CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It writes the workload's
scenario files under ``.bench_work/``, times set-up in several fresh
interpreters, then runs the workload in one more interpreter: one client,
no threads, each ``fiberext.cli.main`` call starting after the previous one
ends.  Every output is checked against an answer known by construction.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines above it are a readable report.  Without ``src/fiberext`` in the
working directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads
from tracer import ROOT_SPAN, TARGETS, per_layer_metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# Fresh interpreters started to time set-up, before and again after the
# workload so that a slow spell of a shared machine meets only some of them;
# setup_s is the median of all of them.
SETUP_STARTS = 8

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(root: str, argv: list[str]) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    fiberext, built the parser and run one op."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, WORKER, "probe", root, "--", *argv],
                              cwd=root, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            rest = proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line}{rest}")
    return times


def run_worker(root: str, manifest_path: str, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, "run", manifest_path], cwd=root, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    with open(os.path.join(os.path.dirname(manifest_path), "result.json")) as fh:
        return json.load(fh)


def failure_report(ops, failures):
    """Human-readable failure lines, and whether any valid op failed."""
    lines = []
    valid = [f for f in failures if f["kind"] != "malformed"]
    malformed = Counter((f["mutation"], f["reason"]) for f in failures if f["kind"] == "malformed")
    share = Counter(op.get("mutation") for op in ops if op["kind"] == "malformed")
    for (mutation, reason), count in sorted(malformed.items()):
        lines.append(f"  malformed {mutation} ({share[mutation]}/pass): {reason}: {count} ops")
    for f in valid[:10]:
        lines.append(f"  WRONG {f['kind']} {f['file']}: {f['reason']}")
    return lines, not valid


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fiberext", "cli.py")):
        print("bench: run from the root of a fiberext checkout (src/fiberext is missing)",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, work, root)
        setup = [] if args.trace else time_setup(root, ops[0]["argv"])
        manifest = {"root": root, "ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
                    "tail_percentile": workloads.TAIL_PERCENTILE[args.workload],
                    "result": os.path.join(work, "result.json"),
                    "spans": os.path.join(work_root, f"spans-{args.workload}-{args.seed}.jsonl")}
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        budget = 160 - (time.perf_counter() - started)
        result = run_worker(root, manifest_path, timeout=budget)
        if not args.trace:
            setup += time_setup(root, ops[0]["argv"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stats = result["stats"]
    lines, valid_ok = failure_report(ops, result["failures"])
    attempted, failed = result["attempted"], len(result["failures"])
    correct = valid_ok
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    if args.trace:
        correct = correct and result["outputs_identical"] and result["restored"]
        traced = result["traced_stats"]
        print(f"untraced {stats['ops']} ops in {stats['passes']} passes, "
              f"traced {traced['ops']} ops in {traced['passes']} passes; "
              f"traced output identical: {result['outputs_identical']}; "
              f"originals restored: {result['restored']}")
        layer = result["per_layer"]
        print(f"{'function':40s} {'calls/op':>10s} {'self ms/op':>11s}")
        for module, func in TARGETS + (ROOT_SPAN,):
            name = f"{module}.{func}"
            calls = layer.get(f"{name}.calls_per_op", 1.0)
            print(f"{name:40s} {calls:10.3f} {layer[f'{name}.self_ms_per_op']:11.3f}")
        for name, unit, _ in per_layer_metric_names():
            if not name.endswith(("calls_per_op", "self_ms_per_op")):
                print(f"{name:40s} {layer[name]:.6g} {unit}")
        print("calls per op, by kind of op:")
        for kind, calls in result["by_kind"].items():
            shown = ", ".join(f"{n} {c:g}" for n, c in calls.items() if n != "cli.main")
            print(f"  {kind}: {shown}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in per_layer_metric_names()}
    else:
        values = {
            "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_tail_ms": stats["op_tail_ms"],
            "ok_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"{stats['ops']} ops in {stats['passes']} passes")
        for name, unit in END_TO_END:
            print(f"{name:12s} {values[name]:12.6g} {unit}")
        pct = workloads.TAIL_PERCENTILE[args.workload]
        print(f"  times are each input's fastest call over {stats['passes']} passes; "
              f"over all calls ops_per_s is {stats['raw_ops_per_s']:.6g} "
              f"and op_p50_ms {stats['raw_op_p50_ms']:.6g}")
        print(f"  op_tail_ms is p{pct:g} of the {len(ops)} inputs, "
              f"{stats['tail_calls_beyond']} calls beyond it"
              + ("" if stats["tail_calls_beyond"] >= 10 else " (fewer than 10: not a steady tail)"))
        print(f"  setup_s is the median of {len(setup)} fresh interpreters: "
              + ", ".join(f"{t:.3f}" for t in setup))
    print(f"fail_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
