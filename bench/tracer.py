"""Span tracer that wraps fiberext's public functions from outside the package.

``Tracer.install()`` replaces every binding of each listed function, in every
loaded ``fiberext`` module, with a wrapper that records a span; names
imported with ``from .x import f`` are bindings too.  ``uninstall()`` puts
the originals back.  Spans stay in memory until ``write()``.

A span is ``[id, parent_id, name, t0, t1, t2, error]``: the call runs from
``t0`` to ``t1``, and ``t1..t2`` is the tracer's own bookkeeping after it.
A span's self time is ``t1 - t0`` minus ``t2 - t0`` of each child, so the
bookkeeping of a child is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run.  ``cli.main`` is the root
# span of every operation.
TARGETS = (
    ("scenario", "load_scenario_file"),
    ("lattice", "validate_lattice"), ("lattice", "extend_trivial"), ("lattice", "extend_nef"),
    ("lattice", "denominator_bound"), ("lattice", "component_group"),
    ("linalg", "smith_normal_form"), ("linalg", "solve_rational"), ("linalg", "rational_kernel"),
    ("linalg", "lattice_quotient"), ("linalg", "solve_integer"), ("linalg", "solve_mod"),
    ("linalg", "kernel_basis"),
    ("dual_complex", "build_dual_complex"), ("dual_complex", "homology"),
    ("dual_complex", "torus_rank"),
    ("cochain", "is_exact"), ("cochain", "cohomology_group"), ("cochain", "hom_from_h1"),
    ("cochain", "h1_class"), ("cochain", "invariant_factor_chain"),
    ("pic0", "classify_curve_fiber"), ("pic0", "classify_snc_fiber"),
    ("pic0", "extension_obstruction"),
    ("corpus", "run_scenario"),
)
ROOT_SPAN = ("cli", "main")
MODULES = ("scenario", "lattice", "linalg", "dual_complex", "cochain", "pic0", "corpus", "cli")
SNF = "linalg.smith_normal_form"
PACKAGE = "fiberext"


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, func in TARGETS:
        out.append((f"{module}.{func}.calls_per_op", "count", "lower"))
        out.append((f"{module}.{func}.self_ms_per_op", "ms", "lower"))
    out.append(("cli.main.self_ms_per_op", "ms", "lower"))
    out += [(f"{m}.errors_per_op", "count", "lower") for m in MODULES]
    out += [(f"{SNF}.cells_per_op", "count", "lower"), (f"{SNF}.max_entry_bits", "bits", "lower"),
            (f"{SNF}.distinct_ratio", "ratio", "higher"), ("trace.overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.snf_cells = 0
        self.snf_max_bits = 0
        self.snf_inputs: set[int] = set()

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        for module, func in TARGETS + (ROOT_SPAN,):
            owner = sys.modules[f"{PACKAGE}.{module}"]
            original = getattr(owner, func)
            wrapper = self._wrap(f"{module}.{func}", module, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def restored(self) -> bool:
        """True when no wrapper is left in any fiberext module."""
        return not any(getattr(v, "__bench_wrapped__", False)
                       for mod in self._modules() for v in vars(mod).values())

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, module, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_snf = name == SNF

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = clock()
                parent = span[1]
                if parent < 0 or spans[parent][2].split(".")[0] != module:
                    span[6] = 1  # the exception leaves the module here
                raise
            else:
                span[4] = clock()
                if is_snf:
                    self._snf_stats(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[5] = clock()

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _snf_stats(self, args, kwargs, result):
        mat = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        m = len(mat)
        n = len(mat[0]) if mat else (ncols or 0)
        self.snf_cells += m * n
        self.snf_inputs.add(hash((tuple(tuple(r) for r in mat), n)))
        bits = max((abs(x).bit_length() for part in result for row in part for x in row), default=0)
        self.snf_max_bits = max(self.snf_max_bits, bits)

    # -- reporting ----------------------------------------------------------

    def summary(self, ops: int, op_kinds: list[str]) -> dict:
        """Per-layer metrics for ``ops`` traced operations, and ``by_kind``:
        calls per op of each function for each kind of op.  ``op_kinds``
        lists the kind of each root span in order."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1, t2, err in self.spans:
            if parent >= 0:
                child_time[parent] += t2 - t0
        by_kind = defaultdict(lambda: defaultdict(int))
        kind_ops = defaultdict(int)
        root_index = -1
        root_kind = None
        for sid, parent, name, t0, t1, t2, err in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[sid]
            if err:
                errors[name.split(".")[0]] += 1
            if parent < 0:
                root_index += 1
                root_kind = op_kinds[root_index]
                kind_ops[root_kind] += 1
            by_kind[root_kind][name] += 1
        metrics = {}
        for module, func in TARGETS:
            name = f"{module}.{func}"
            metrics[f"{name}.calls_per_op"] = calls[name] / ops
            metrics[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 / ops
        metrics["cli.main.self_ms_per_op"] = self_s["cli.main"] * 1e3 / ops
        for m in MODULES:
            metrics[f"{m}.errors_per_op"] = errors[m] / ops
        snf_calls = calls[SNF]
        metrics[f"{SNF}.cells_per_op"] = self.snf_cells / ops
        metrics[f"{SNF}.max_entry_bits"] = self.snf_max_bits
        metrics[f"{SNF}.distinct_ratio"] = len(self.snf_inputs) / snf_calls if snf_calls else 0.0
        per_kind = {kind: {name: count / kind_ops[kind] for name, count in sorted(by_kind[kind].items())}
                    for kind in sorted(kind_ops)}
        return {"metrics": metrics, "by_kind": per_kind}

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: id, parent, name, start and end (s)."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, t2, err in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "error": bool(err)}) + "\n")
