"""Golden ``--format machine`` and ``--format human`` output of every
bundled scenario.

Each scenario runs under every subcommand that applies to it (chosen from
the sections of its JSON file), plus ``corpus list`` and ``corpus run``.
Stdout and the exit code must match ``tests/golden/<format>_output.json``
byte for byte.  Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("machine", "human")
SCENARIOS = Path(__file__).parent.parent / "src" / "fiberext" / "scenarios"


def golden_cases():
    """(case id, argv) for every scenario x applicable subcommand."""
    cases = [("corpus-list", ["corpus", "list"]), ("corpus-run-all", ["corpus", "run"])]
    for path in sorted(SCENARIOS.glob("*.json")):
        name = path.stem
        data = json.loads(path.read_text())
        argvs = [("corpus-run", ["corpus", "run", name])]
        if "lattice" in data and "trace" in data:
            argvs += [("extend-trivial", ["extend", str(path), "--mode", "trivial"]),
                      ("extend-nef", ["extend", str(path), "--mode", "nef"])]
        if "strata" in data:
            argvs += [("dual-complex", ["dual-complex", str(path)]),
                      ("dual-complex-matrices", ["dual-complex", str(path), "--matrices"])]
            if "cochain" in data:
                argvs.append(("cochain", ["cochain", str(path)]))
        if "strata" in data or "curve_fiber" in data or "curve_fibers" in data:
            argvs.append(("pic0", ["pic0", str(path)]))
        if "obstruction" in data:
            argvs.append(("obstruction", ["obstruction", str(path)]))
        cases += [(f"{name}:{tag}", argv) for tag, argv in argvs]
    return cases


def run_case(argv, fmt):
    from fiberext.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    return {"exit_code": code, "stdout": out.getvalue()}


def capture(fmt):
    return {case: run_case(argv, fmt) for case, argv in golden_cases()}


def golden_path(fmt):
    return GOLDEN / f"{fmt}_output.json"


@pytest.mark.parametrize("fmt", FORMATS)
def test_output_matches_golden(fmt):
    golden = json.loads(golden_path(fmt).read_text())
    actual = capture(fmt)
    assert sorted(actual) == sorted(golden)
    for case in sorted(golden):
        assert actual[case] == golden[case], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for fmt in FORMATS:
        golden_path(fmt).write_text(json.dumps(capture(fmt), indent=1, sort_keys=True) + "\n")
