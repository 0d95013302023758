"""Result guards are real exceptions, so they still run under ``python -O``."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from fiberext import linalg
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
    def solve(mat, rhs):
        return [Fraction(1)] * len(mat[0])

    monkeypatch.setattr(linalg, "solve_rational", solve)


def test_extend_trivial_rejects_a_wrong_solution(wrong_solver):
    with pytest.raises(ArithmeticError, match="certificate failure"):
        extend_trivial(kodaira_cycle(4), DivisorTrace((1, -1, 0, 0)))


def test_extend_nef_rejects_a_wrong_solution(wrong_solver):
    with pytest.raises(ArithmeticError, match="certificate failure"):
        extend_nef(kodaira_cycle(4), DivisorTrace((1, 0, 0, 0)))


def test_singular_reduced_system_is_a_certificate_failure(monkeypatch):
    monkeypatch.setattr(linalg, "solve_rational", lambda mat, rhs: None)
    with pytest.raises(ArithmeticError, match="certificate failure"):
        extend_trivial(kodaira_cycle(3), DivisorTrace((1, -1, 0)))
