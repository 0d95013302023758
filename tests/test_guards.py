"""Result guards are real exceptions, so they still run under ``python -O``."""

import ast
import builtins
import contextlib
import dataclasses
import decimal
import fractions
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fiberext import cochain, corpus, errors, linalg
from fiberext.cli import main
from fiberext.cochain import Cochain, CoefficientGroup, GroupInvariants
from fiberext.dual_complex import build_dual_complex, strata_from_multigraph
from fiberext.errors import EXIT_CERTIFICATE, EXIT_INPUT, EXIT_OK, CertificateError
from fiberext.lattice import DivisorTrace, extend_nef, extend_trivial, kodaira_cycle

SOURCE = Path(__file__).parent.parent / "src" / "fiberext"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_has_no_unused_imports():
    """Every module-level import is read somewhere in its module.
    ``__init__`` is skipped: its imports are the package's public names."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                found += [f"{path.name}:{node.lineno} {alias.asname or alias.name}" for alias in node.names
                          if (alias.asname or alias.name).split(".")[0] not in used]
    assert found == []


# Package code that the oracles check, so they must not run it: the module
# ``fiberext.linalg`` and the order merge ``cochain.invariant_factor_chain``.
CHECKED_MODULE = "fiberext.linalg"
CHECKED_NAMES = ("linalg", "invariant_factor_chain")


def checked_code_references(path) -> list[str]:
    """Where a module imports the checked module or a checked name, or
    reads a checked name as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno} {a.name}" for a in node.names if a.name.startswith(CHECKED_MODULE)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(CHECKED_MODULE):
                found.append(f"{node.lineno} {node.module}")
            elif node.module.startswith("fiberext"):
                found += [f"{node.lineno} {node.module}.{a.name}" for a in node.names if a.name in CHECKED_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in CHECKED_NAMES:
            found.append(f"{node.lineno} .{node.attr}")
    return found


def test_oracles_share_no_code_with_linalg():
    """The oracles check ``fiberext.linalg`` and the invariant-factor merge,
    so they must not run them."""
    assert checked_code_references(Path(__file__).parent / "oracles.py") == []


@pytest.mark.parametrize("source, found", [
    ("from fiberext.cochain import GroupInvariants, invariant_factor_chain", ["1 fiberext.cochain.invariant_factor_chain"]),
    ("from fiberext import cochain\ncochain.invariant_factor_chain([2])", ["2 .invariant_factor_chain"]),
    ("import fiberext.linalg", ["1 fiberext.linalg"]),
    ("from fiberext import linalg", ["1 fiberext.linalg"]),
    ("from fiberext.cochain import GroupInvariants", []),
])
def test_the_guard_finds_checked_code(tmp_path, source, found):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert checked_code_references(path) == found


# Names a class may derive from to be an exception: the built-in
# exceptions and the classes of ``fiberext.errors``.
EXCEPTION_BASES = {name for name, value in {**vars(builtins), **vars(errors)}.items()
                   if isinstance(value, type) and issubclass(value, BaseException)}


def error_definitions(path) -> list[str]:
    """Where a module defines an exception class or assigns an ``EXIT_*``
    name; only ``fiberext.errors`` may."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
            if bases & EXCEPTION_BASES:
                found.append(f"{node.lineno} class {node.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            found += [f"{node.lineno} {name}" for name in names if name.startswith("EXIT_")]
    return found


def test_only_errors_defines_exceptions_and_exit_codes():
    found = [f"{path.name}:{where}" for path in sorted(SOURCE.glob("*.py")) if path.name != "errors.py"
             for where in error_definitions(path)]
    assert found == []


@pytest.mark.parametrize("source, found", [
    ("class Oops(ValueError):\n    pass", ["1 class Oops"]),
    ("from . import errors\nclass Worse(errors.NotSemistable):\n    pass", ["2 class Worse"]),
    ("class Refused(PreconditionError, object):\n    pass", ["1 class Refused"]),
    ("EXIT_OK = 0", ["1 EXIT_OK"]),
    ("EXIT_A, (x, EXIT_B) = 1, (2, 3)", ["1 EXIT_A", "1 EXIT_B"]),
    ("EXIT_C: int = 3", ["1 EXIT_C"]),
    ("class Plain:\n    pass\nfrom .errors import EXIT_OK, StrataError\ncode = EXIT_OK", []),
])
def test_the_guard_finds_error_definitions(tmp_path, source, found):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert error_definitions(path) == found


@pytest.mark.parametrize("module, name", [
    ("fiberext.dual_complex", "StrataError"), ("fiberext.pic0", "NotSemistable"), ("fiberext", "NotSemistable"),
    ("fiberext.lattice", "PreconditionError"), ("fiberext.cochain", "PreconditionError"),
    ("fiberext.cli", "EXIT_OK"), ("fiberext.cli", "EXIT_INPUT"), ("fiberext.cli", "EXIT_OBSTRUCTED"),
])
def test_old_import_paths_are_the_errors_objects(module, name):
    assert getattr(importlib.import_module(module), name) is getattr(errors, name)


@pytest.fixture
def wrong_solver(monkeypatch):
    def solve(pivots, rhs):
        return 1, [1] * len(rhs)

    monkeypatch.setattr(linalg, "solve_eliminated", solve)


def test_extend_trivial_rejects_a_wrong_solution(wrong_solver):
    with pytest.raises(CertificateError, match="certificate failure"):
        extend_trivial(kodaira_cycle(4), DivisorTrace((1, -1, 0, 0)))


def test_extend_nef_rejects_a_wrong_solution(wrong_solver):
    with pytest.raises(CertificateError, match="certificate failure"):
        extend_nef(kodaira_cycle(4), DivisorTrace((1, 0, 0, 0)))


def test_singular_reduced_system_is_a_certificate_failure(monkeypatch):
    monkeypatch.setattr(linalg, "solve_eliminated", lambda pivots, rhs: None)
    with pytest.raises(CertificateError, match="certificate failure"):
        extend_trivial(kodaira_cycle(3), DivisorTrace((1, -1, 0)))


def test_h1_class_rejects_a_disagreeing_hom_profile(monkeypatch):
    """``H^1`` is cross-checked against ``Hom(H_1, A)``; a mismatch is refused."""
    monkeypatch.setattr(cochain, "hom_from_h1", lambda complex, group: GroupInvariants(7, ()))
    cx = build_dual_complex(strata_from_multigraph(2, [(0, 1), (0, 1)]))
    with pytest.raises(CertificateError, match="disagrees with Hom"):
        cochain.h1_class(Cochain(cx, CoefficientGroup(rank=1), 1, ((1,), (0,))))


def test_h1_class_refuses_profiles_that_are_no_divisibility_chain(monkeypatch):
    """Both profiles go through the same order merge.  A merge that returns
    no chain once gave two equal, unchecked profiles, which passed the
    cross-check; a profile is now a ``CoefficientGroup`` and checked."""
    monkeypatch.setattr(cochain, "invariant_factor_chain", lambda orders: (4, 6))
    cx = build_dual_complex(strata_from_multigraph(2, [(0, 1), (0, 1)]))
    with pytest.raises(CertificateError, match="divisibility chain"):
        cochain.h1_class(Cochain(cx, CoefficientGroup(torsion=(6,)), 1, ((1,), (0,))))


def test_h1_profile_is_a_coefficient_group_with_its_old_repr():
    """The corpus output prints the profile's repr, so it keeps its name."""
    assert issubclass(GroupInvariants, CoefficientGroup)
    assert inspect.get_annotations(GroupInvariants) == {}
    assert dataclasses.fields(GroupInvariants) == dataclasses.fields(CoefficientGroup)
    assert repr(GroupInvariants(1, (2,))) == "GroupInvariants(rank=1, torsion=(2,))"


@pytest.mark.parametrize("rank, torsion, error", [
    (-1, (), ValueError), (0, (1,), ValueError), (0, (4, 6), ValueError), (True, (), TypeError),
    (0, (0, 2), ValueError), (0, (-2,), ValueError), (0, (2.5, 4.9), TypeError), (0, (True, 2), TypeError),
    (0, (2, "4"), TypeError), (0, (fractions.Fraction(2), 4), TypeError)])
def test_h1_profile_is_checked(rank, torsion, error):
    with pytest.raises(error):
        GroupInvariants(rank, torsion)


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


I4 = {"labels": ["C1", "C2", "C3", "C4"], "multiplicities": [1, 1, 1, 1],
      "matrix": [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, -2]]}
CIRCLE = {"levels": [[{"id": "W0", "indices": [0]}, {"id": "W1", "indices": [1]}],
                     [{"id": f"E{k}", "indices": [0, 1], "facets": ["W1", "W0"]} for k in (0, 1)]]}
# The scenario of each certificate site: the subcommand that reaches it
# and the one corpus check that does.
CERTIFIED = {
    "extend": {"lattice": I4, "trace": {"values": [1, -1, 0, 0]}, "expect": [{"op": "extend_trivial"}]},
    "cochain": {"strata": CIRCLE, "cochain": {"group": {"rank": 1, "torsion": [6]}, "edge_values": [[1, 0], [0, 0]]},
                "expect": [{"op": "h1_class", "trivial": False}]},
}


@pytest.mark.parametrize("module, name, patch, command", [
    (linalg, "solve_eliminated", lambda pivots, rhs: None, "extend"),
    (linalg, "solve_eliminated", lambda pivots, rhs: (1, [1] * len(rhs)), "extend"),
    (linalg, "lattice_quotient", lambda rels, n: (n, []), "cochain"),
    (cochain, "hom_from_h1", lambda complex, group: GroupInvariants(7, ()), "cochain"),
    (cochain, "invariant_factor_chain", lambda orders: (4, 6), "cochain"),
], ids=["singular system", "achieved trace", "mapping cone", "Hom cross-check", "order merge"])
def test_failed_certificate_has_its_own_exit(tmp_path, monkeypatch, capsys, module, name, patch, command):
    """A failed certificate is the package's fault, not the input's: the
    subcommand exits 3 with one ``internal error:`` line, and the corpus
    check that reaches it fails."""
    (tmp_path / "certified.json").write_text(json.dumps({"name": "certified", **CERTIFIED[command]}))
    monkeypatch.setattr(corpus, "_scenario_dir", lambda: tmp_path)
    assert main([command, str(tmp_path / "certified.json")]) == EXIT_OK
    assert main(["corpus", "run", "certified"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(module, name, patch)
    for fmt in ("human", "machine"):
        assert main([command, str(tmp_path / "certified.json"), "--format", fmt]) == EXIT_CERTIFICATE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: ") and err.count("\n") == 1
    assert main(["corpus", "run", "certified"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out.startswith("FAIL certified\n") and "expected no exception; got CertificateError: " in out
    assert err == ""


# A backticked CamelCase name in README.md, such as `H1Class` in
# `H1Class.potential`; one capital alone (`Fraction`, `Z/n`) is no camel.
CAMEL_CASE = re.compile(r"\b[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b")
# Every name the package re-exports is defined in one of its modules.
MODULES = [builtins, fractions, decimal, *(importlib.import_module(f"fiberext.{path.stem}")
                                          for path in SOURCE.glob("*.py") if path.stem != "__init__")]
DEFINED = {name for module in MODULES for name in vars(module)}


def undefined_readme_names(text: str) -> list[str]:
    return [name for span in re.findall(r"`([^`\n]+)`", text) for name in CAMEL_CASE.findall(span)
            if name not in DEFINED]


def test_readme_names_only_defined_classes():
    assert undefined_readme_names((SOURCE.parent.parent / "README.md").read_text()) == []


@pytest.mark.parametrize("text, found", [
    ("`glue_check` returns `OpenCover` or a `GluedBundle`", ["OpenCover", "GluedBundle"]),
    ("`component_group(lattice)` is a `CyclicGroup((2,))`", ["CyclicGroup"]),
    ("`GroupInvariants(rank=0, torsion=(2,))`, `H1Class.potential`, `ValueError`, `Fraction`", []),
    ("GroupInvariants outside backticks, `Z/n`, `I_n`, `SNF`", []),
])
def test_the_guard_finds_undefined_readme_names(text, found):
    assert undefined_readme_names(text) == found


def test_every_traced_function_exists():
    """Each function the benchmark's tracer wraps by name (``TARGETS`` and
    ``ROOT_SPAN`` in ``bench/tracer.py``, read from its source without
    importing it) is still a function of its package module, so deleting
    one fails here instead of in a traced benchmark run."""
    tree = ast.parse((SOURCE.parent.parent / "bench" / "tracer.py").read_text())
    values = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    package = ast.literal_eval(values["PACKAGE"])
    targets = ast.literal_eval(values["TARGETS"]) + (ast.literal_eval(values["ROOT_SPAN"]),)
    missing = [f"{module}.{name}" for module, name in targets
               if not inspect.isfunction(getattr(importlib.import_module(f"{package}.{module}"), name, None))]
    assert len(targets) >= 20 and missing == []
