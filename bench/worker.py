"""Runs benchmark operations through ``fiberext.cli.main`` in one process.

    python3 bench/worker.py probe ROOT -- ARGV...   set-up probe: import,
                                                    parser, one op, "ready"
    python3 bench/worker.py run MANIFEST            timed closed loop

The package is imported from ``ROOT/src`` and nowhere else.  ``run``
repeats whole passes over the manifest's ops, one op at a time, and starts
no pass that would end after the time budget (but always runs one).  Every
output is checked against its expectation; an exception escaping
``cli.main`` is a failed op.  The reported times are each input's fastest
call over the passes (see ``Phase.best_times``).  With tracing, the first half of the budget
runs untraced and the second half traced, and the first pass of each half
must print the same bytes.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import workloads
from tracer import Tracer



def import_cli(root: str):
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    from fiberext import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"fiberext was imported from {cli.__file__}, not from {src}")
    return cli


def run_op(cli, argv):
    """One call of cli.main: (seconds, exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as e:  # noqa: BLE001 - an escaping exception is a failed op
            exc = e
        t1 = time.perf_counter()
    return t1 - t0, code, out.getvalue(), err.getvalue(), exc


class Phase:
    """Latencies, failures and first-pass outputs of one timed phase."""

    def __init__(self, n_inputs: int, tail_percentile: float):
        self.n_inputs = n_inputs
        self.tail_percentile = tail_percentile
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.first_outputs: list[tuple] = []

    @property
    def passes(self) -> int:
        return len(self.latencies) // self.n_inputs

    def best_times(self) -> list[float]:
        """Each input's fastest call over the passes.  Contention on a shared
        machine only ever adds time, so the fastest call is the steadiest
        estimate of what the program itself costs."""
        n = self.n_inputs
        return [min(self.latencies[i::n]) for i in range(n)]

    def stats(self) -> dict:
        best = sorted(self.best_times())
        rank = max(1, math.ceil(self.tail_percentile / 100 * len(best)))
        return {
            "ops": len(self.latencies),
            "passes": self.passes,
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_tail_ms": best[rank - 1] * 1e3,
            "tail_calls_beyond": (len(best) - rank) * self.passes,
            "raw_ops_per_s": len(self.latencies) / sum(self.latencies),
            "raw_op_p50_ms": statistics.median(self.latencies) * 1e3,
        }


def measure(cli, ops, seconds: float, tail_percentile: float) -> Phase:
    phase = Phase(len(ops), tail_percentile)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            dt, code, out, err, exc = run_op(cli, op["argv"])
            phase.latencies.append(dt)
            if exc is not None:
                reason = f"escaped {type(exc).__name__}"
            else:
                reason = workloads.check(op, code, out)
            if reason:
                phase.failures.append({"kind": op["kind"], "mutation": op.get("mutation"),
                                       "reason": reason, "file": op["argv"][1]})
            if len(phase.first_outputs) < len(ops):
                phase.first_outputs.append((code, out, err, repr(exc)))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return phase


def run(manifest_path: str) -> None:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    cli = import_cli(manifest["root"])
    ops = manifest["ops"]
    seconds = manifest["seconds"]
    pct = manifest["tail_percentile"]
    run_op(cli, ops[0]["argv"])  # warm-up, untimed

    result = {}
    if not manifest["trace"]:
        phase = measure(cli, ops, seconds, pct)
        phases = [phase]
        result["stats"] = phase.stats()
    else:
        plain = measure(cli, ops, seconds / 2, pct)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, ops, seconds / 2, pct)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        kinds = [op["kind"] for op in ops] * traced.passes
        summary = tracer.summary(len(traced.latencies), kinds)
        summary["metrics"]["trace.overhead_ratio"] = (
            plain.stats()["ops_per_s"] / traced.stats()["ops_per_s"])
        result["stats"] = plain.stats()
        result["traced_stats"] = traced.stats()
        result["per_layer"] = summary["metrics"]
        result["by_kind"] = summary["by_kind"]
        result["outputs_identical"] = plain.first_outputs == traced.first_outputs
        result["restored"] = tracer.restored()
        tracer.write(manifest["spans"])
    result["attempted"] = sum(len(p.latencies) for p in phases)
    result["failures"] = [f for p in phases for f in p.failures]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(manifest["result"], "w") as fh:
        json.dump(result, fh)


def probe(root: str, argv: list[str]) -> None:
    cli = import_cli(root)
    cli.build_parser()
    run_op(cli, argv)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:2] == ["probe"] and sys.argv[3:4] == ["--"]:
        probe(sys.argv[2], sys.argv[4:])
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 3:
        run(sys.argv[2])
    else:
        raise SystemExit(__doc__)
