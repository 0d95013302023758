"""Result guards are real exceptions, so they still run under ``python -O``."""

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fiberext import linalg
from fiberext.cli import main
from fiberext.cochain import CoefficientGroup, cohomology_group
from fiberext.dual_complex import build_dual_complex, simplex_strata, strata_from_multigraph
from fiberext.lattice import DivisorTrace, extend_nef, extend_trivial, kodaira_cycle

SOURCE = Path(__file__).parent.parent / "src" / "fiberext"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


@pytest.fixture
def wrong_solver(monkeypatch):
    def solve(pivots, rhs):
        return 1, [1] * len(rhs)

    monkeypatch.setattr(linalg, "solve_eliminated", solve)


def test_extend_trivial_rejects_a_wrong_solution(wrong_solver):
    with pytest.raises(ArithmeticError, match="certificate failure"):
        extend_trivial(kodaira_cycle(4), DivisorTrace((1, -1, 0, 0)))


def test_extend_nef_rejects_a_wrong_solution(wrong_solver):
    with pytest.raises(ArithmeticError, match="certificate failure"):
        extend_nef(kodaira_cycle(4), DivisorTrace((1, 0, 0, 0)))


def test_singular_reduced_system_is_a_certificate_failure(monkeypatch):
    monkeypatch.setattr(linalg, "solve_eliminated", lambda pivots, rhs: None)
    with pytest.raises(ArithmeticError, match="certificate failure"):
        extend_trivial(kodaira_cycle(3), DivisorTrace((1, -1, 0)))


@pytest.mark.parametrize("strata", [strata_from_multigraph(3, [(0, 1), (1, 2), (2, 0)]),
                                    simplex_strata((0, 1, 2, 3), full=False)])
def test_cohomology_group_rejects_a_wrong_quotient(monkeypatch, strata):
    """A mapping cone whose quotient is not of free rank T (the triangle
    count) is a certificate failure, with and without 2-simplices."""
    monkeypatch.setattr(linalg, "lattice_quotient", lambda rels, n: (n, []))
    cx = build_dual_complex(strata)
    with pytest.raises(ArithmeticError, match="certificate failure"):
        cohomology_group(cx, CoefficientGroup(rank=1, torsion=(6,)))


def test_corpus_passes_under_python_dash_o():
    argv = ["corpus", "run", "--format", "machine"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    run = subprocess.run([sys.executable, "-O", "-m", "fiberext.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == out.getvalue()
