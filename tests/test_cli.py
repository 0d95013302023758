import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argv_cases
from conftest import random_multigraph, random_strata
from fiberext import cochain as cochain_mod
from fiberext import lattice as lattice_mod
from fiberext.cli import EXIT_INPUT, EXIT_OBSTRUCTED, EXIT_OK, build_parser, main, to_json
from fiberext.dual_complex import build_dual_complex
from fiberext.scenario import load_scenario_file
from test_exactness import GROUPS
from test_golden import golden_cases


ROOT = Path(__file__).parent.parent
SCENARIOS = ROOT / "src" / "fiberext" / "scenarios"


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def lattice_file(tmp_path):
    return write(tmp_path, "lattice.json", {
        "name": "two-component",
        "lattice": {
            "labels": ["C1", "C2"],
            "matrix": [[-2, 2], [2, -2]],
            "multiplicities": [1, 1],
        },
        "trace": {"values": [-1, 1]},
    })


@pytest.fixture
def circle_file(tmp_path):
    return write(tmp_path, "circle.json", {
        "name": "circle",
        "strata": {"levels": [
            [{"id": "W0", "indices": [0]}, {"id": "W1", "indices": [1]}],
            [{"id": "E0", "indices": [0, 1], "facets": ["W1", "W0"]},
             {"id": "E1", "indices": [0, 1], "facets": ["W1", "W0"]}],
        ]},
        "cochain": {"group": {"rank": 1}, "edge_values": [[1], [0]]},
    })


class TestExtend:
    def test_trivial_mode_success(self, lattice_file, capsys):
        assert main(["extend", lattice_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "a = (0, 1/2); m = 2" in out
        assert "denominator bound = 2" in out

    def test_machine_format_roundtrip(self, lattice_file, capsys):
        assert main(["extend", lattice_file, "--format", "machine"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficients"] == ["0", "1/2"]
        assert payload["denominator"] == 2
        assert payload["component_group"] == [2]
        assert payload["exit_code"] == EXIT_OK

    def test_obstructed_trace_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {
            "name": "bad",
            "lattice": {"labels": ["C1", "C2"],
                        "matrix": [[-2, 2], [2, -2]],
                        "multiplicities": [1, 1]},
            "trace": {"values": [1, 1]},
        })
        assert main(["extend", path]) == EXIT_OBSTRUCTED
        assert "obstructed" in capsys.readouterr().out

    def test_nef_mode_with_targets(self, tmp_path, capsys):
        path = write(tmp_path, "nef.json", {
            "name": "nef",
            "lattice": {"labels": ["C1", "C2"],
                        "matrix": [[-2, 2], [2, -2]],
                        "multiplicities": [1, 1]},
            "trace": {"values": [0, 2]},
        })
        assert main(["extend", path, "--mode", "nef", "--targets", "2,0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "b = (0, 1)" in out
        assert "achieved trace = (2, 0)" in out

    def test_invalid_lattice_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "asym.json", {
            "name": "asym",
            "lattice": {"labels": ["C1", "C2"],
                        "matrix": [[-2, 2], [1, -2]],
                        "multiplicities": [1, 1]},
            "trace": {"values": [0, 0]},
        })
        assert main(["extend", path]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["trivial", "nef"])
    def test_invalid_lattice_is_named_by_the_extension(self, tmp_path, capsys, monkeypatch, mode):
        """The lattice is validated once, by the extension's own precondition."""
        path = write(tmp_path, "asym.json", {
            "name": "asym",
            "lattice": {"labels": ["C1", "C2"],
                        "matrix": [[-2, 2], [1, -2]],
                        "multiplicities": [1, 1]},
            "trace": {"values": [0, 0]},
        })
        calls, validate = [], lattice_mod.validate_lattice
        for name, module in list(sys.modules.items()):
            if name.startswith("fiberext"):
                for attr, value in list(vars(module).items()):
                    if value is validate:
                        monkeypatch.setattr(module, attr, lambda lat: calls.append(lat) or validate(lat))
        assert main(["extend", path, "--mode", mode]) == EXIT_INPUT
        captured = capsys.readouterr()
        failed = "['symmetric', 'fiber_class_trivial', 'negative_semidefinite', 'kernel_is_multiplicity_span']"
        assert (captured.out, captured.err) == ("", f"error: extend_{mode} requires a valid lattice; failed: {failed}\n")
        assert len(calls) == 1

    def test_missing_file_exits_one(self, capsys):
        assert main(["extend", "/nonexistent/file.json"]) == EXIT_INPUT

    def test_float_in_scenario_rejected(self, tmp_path, capsys):
        path = tmp_path / "float.json"
        path.write_text('{"name": "f", "trace": {"values": [0.5]}}')
        assert main(["extend", str(path)]) == EXIT_INPUT
        assert "floating point" in capsys.readouterr().err

    def test_missing_section_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "empty.json", {"name": "empty"})
        assert main(["extend", path]) == EXIT_INPUT

    def test_zero_denominator_in_trace_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "zero.json", {
            "name": "zero",
            "lattice": {"labels": ["C1", "C2"],
                        "matrix": [[-2, 2], [2, -2]],
                        "multiplicities": [1, 1]},
            "trace": {"values": ["1/0", 0]},
        })
        assert main(["extend", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] \
            == captured.err.splitlines() == ["error: trace.values[0]: zero denominator in rational '1/0'"]

    @pytest.mark.parametrize("form", ["human", "machine"])
    def test_rational_lattice_extends_without_integer_invariants(self, tmp_path, capsys, form):
        """A valid rational lattice was solved, then refused with exit 1 for
        ``denominator_bound``, which needs an integer matrix."""
        path = write(tmp_path, "rational.json", {
            "name": "rational",
            "lattice": {"labels": ["C1", "C2"],
                        "matrix": [["-1/2", "1/2"], ["1/2", "-1/2"]],
                        "multiplicities": [1, 1]},
            "trace": {"values": [1, -1]},
        })
        assert main(["extend", path, "--format", form]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if form == "human":
            assert captured.out.splitlines() == ["a = (0, -2); m = 1", "achieved trace = (0, 0)",
                                                 "normalization: a[0] = 0"]
        else:
            assert json.loads(captured.out) == {"coefficients": ["0", "-2"], "denominator": 1,
                                                "normalization": "a[0] = 0", "achieved_trace": ["0", "0"],
                                                "exit_code": EXIT_OK}

    def test_zero_denominator_in_targets_exits_one(self, lattice_file, capsys):
        assert main(["extend", lattice_file, "--mode", "nef", "--targets", "1/0,0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: zero denominator in rational '1/0'"]


class TestDualComplexAndCochain:
    def test_dual_complex_summary(self, circle_file, capsys):
        assert main(["dual-complex", circle_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "H0 = Z; H1 = Z" in out
        assert "torus rank 1" in out

    def test_matrices_flag(self, circle_file, capsys):
        assert main(["dual-complex", circle_file, "--matrices",
                     "--format", "machine"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["boundary_matrices"]["1"] == [[-1, -1], [1, 1]]
        assert payload["betti"] == [1, 1]

    def test_cochain_nontrivial_class(self, circle_file, capsys):
        assert main(["cochain", circle_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "not exact" in out
        assert "class nontrivial" in out

    @pytest.mark.parametrize("edge_values, exact", [([[1], [0]], False), ([[1], [1]], True)])
    def test_cochain_solves_exactness_once(self, tmp_path, capsys, monkeypatch, circle_file,
                                           edge_values, exact):
        calls = []
        original = cochain_mod.is_exact

        def counting(phi):
            calls.append(phi)
            return original(phi)

        monkeypatch.setattr(cochain_mod, "is_exact", counting)
        data = json.loads(open(circle_file).read())
        data["cochain"]["edge_values"] = edge_values
        path = write(tmp_path, "cochain.json", data)
        assert main(["cochain", path, "--format", "machine"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is payload["class_trivial"] is exact
        assert ("potential" in payload) is exact
        assert len(calls) == 1

    def test_cochain_not_closed_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "triangle.json", {
            "name": "triangle",
            "strata": {"levels": [
                [{"id": "Z0", "indices": [0]}, {"id": "Z1", "indices": [1]},
                 {"id": "Z2", "indices": [2]}],
                [{"id": "Z01", "indices": [0, 1], "facets": ["Z1", "Z0"]},
                 {"id": "Z02", "indices": [0, 2], "facets": ["Z2", "Z0"]},
                 {"id": "Z12", "indices": [1, 2], "facets": ["Z2", "Z1"]}],
                [{"id": "Z012", "indices": [0, 1, 2],
                  "facets": ["Z12", "Z02", "Z01"]}],
            ]},
            "cochain": {"group": {"rank": 1}, "edge_values": [[1], [1], [1]]},
        })
        assert main(["cochain", path]) == EXIT_OBSTRUCTED
        assert "witness Z012" in capsys.readouterr().out


def parent_cmd_cochain(args):
    """The body of ``cmd_cochain`` before it called ``glue_check``, kept as
    the reference of the differential test below."""
    scenario = load_scenario_file(args.file)
    scenario.need("strata")
    phi = scenario.need("cochain")
    closed = cochain_mod.is_closed(phi)
    if not closed:
        return (EXIT_OBSTRUCTED, {"closed": False, "witness": closed.witness},
                [f"not closed; witness {closed.witness}"])
    cls = cochain_mod.h1_class(phi)
    exact = cls.is_trivial
    rank, torsion = cls.group_profile.rank, list(cls.group_profile.torsion)
    payload = {"closed": True, "exact": exact, "class_trivial": exact,
               "h1_rank": rank, "h1_torsion": torsion}
    if exact:
        payload["potential"] = [list(v) for v in cls.potential.values]
    return EXIT_OK, payload, [
        "closed; exact" if exact else "closed; not exact",
        f"class {'trivial' if exact else 'nontrivial'}; H1 profile rank {rank}, torsion {torsion}",
    ]


def strata_json(cx):
    """The ``strata`` section that loads as ``cx``: vertex v has index v,
    and every other simplex the indices of its facets."""
    indices = [[(v,) for v in range(cx.count(0))]]
    for faces in cx.facets[: cx.dimension]:
        indices.append([tuple(sorted({i for f in fs for i in indices[-1][f]})) for fs in faces])
    return {"levels": [[{"id": ident, "indices": list(indices[r][k]),
                         "facets": [cx.simplex_ids[r - 1][f] for f in cx.facets[r - 1][k]] if r else []}
                        for k, ident in enumerate(ids)] for r, ids in enumerate(cx.simplex_ids)]}


def gluing_cochains(rng, cx, group):
    """An exact cochain, the same with one coordinate bumped (closed or
    not, depending on the edge), and random values."""
    def element():
        return [rng.randint(-20, 20) for _ in range(group.rank)] + [rng.randrange(n) for n in group.torsion]

    exact = cochain_mod.coboundary(cochain_mod.Cochain(cx, group, 0, [element() for _ in range(cx.count(0))]))
    values = [list(v) for v in exact.values]
    out = [values]
    if values:
        bumped = [list(v) for v in values]
        e, k = rng.randrange(len(values)), rng.randrange(group.width)
        bumped[e][k] += 1
        out.append(bumped)
        out.append([element() for _ in values])
    return out


@pytest.mark.parametrize("source", ["strata", "multigraph"])
def test_cochain_matches_the_parent_handler(tmp_path, capsys, rng, source):
    """``cochain`` runs ``glue_check``; stdout and exit code are those of the
    handler that called ``is_closed``, ``h1_class`` and ``is_trivial`` itself."""
    closedness, path = set(), tmp_path / "cochain.json"
    for _ in range(40):
        cx = build_dual_complex(random_strata(rng)) if source == "strata" else random_multigraph(rng)
        for group in GROUPS:
            for values in gluing_cochains(rng, cx, group):
                path.write_text(json.dumps({
                    "name": "gluing", "strata": strata_json(cx),
                    "cochain": {"group": {"rank": group.rank, "torsion": list(group.torsion)},
                                "edge_values": values}}))
                assert load_scenario_file(path).strata == cx
                code, payload, lines = parent_cmd_cochain(argparse.Namespace(file=str(path)))
                for fmt in ("human", "machine"):
                    out = (json.dumps({**payload, "exit_code": code}, indent=2) + "\n" if fmt == "machine"
                           else "".join(line + "\n" for line in lines))
                    assert (main(["cochain", str(path), "--format", fmt]), capsys.readouterr()) == (code, (out, ""))
                closedness.add((payload["closed"], payload.get("exact")))
    assert closedness == ({(True, True), (True, False)} | ({(False, None)} if source == "strata" else set()))


class TestPic0AndObstruction:
    def test_classify_curve(self, tmp_path, capsys):
        path = write(tmp_path, "nodal.json", {
            "name": "nodal",
            "curve_fiber": {"genera": [0], "edges": [[0, 0]]},
        })
        assert main(["pic0", path]) == EXIT_OK
        assert "torus, (t,a)=(1,0)" in capsys.readouterr().out

    def test_cusp_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "cusp.json", {
            "name": "cusp",
            "curve_fiber": {"genera": [0], "nodal": False},
        })
        assert main(["pic0", path]) == EXIT_OBSTRUCTED
        assert "not semistable" in capsys.readouterr().out

    def test_obstruction_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "obs.json", {
            "name": "obs",
            "obstruction": {
                "proper": True,
                "group": {"rank": 1},
                "points": [
                    {"label": "p", "torus_rank": 1, "abelian_dim": 0, "value": [1]},
                    {"label": "q", "torus_rank": 1, "abelian_dim": 0, "value": [0]},
                ],
            },
        })
        assert main(["obstruction", path]) == EXIT_OBSTRUCTED
        assert "obstructed" in capsys.readouterr().out

    def test_unobstructed_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "unobs.json", {
            "name": "unobs",
            "obstruction": {
                "proper": True,
                "group": {"rank": 1},
                "points": [
                    {"label": "p", "torus_rank": 1, "abelian_dim": 0, "value": [1]},
                    {"label": "q", "torus_rank": 1, "abelian_dim": 0, "value": [1]},
                ],
            },
        })
        assert main(["obstruction", path]) == EXIT_OK


class TestCorpusCommand:
    def test_list(self, capsys):
        assert main(["corpus", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "example-4.2-stable-genus-one" in out

    def test_run_all(self, capsys):
        assert main(["corpus", "run"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20

    def test_run_single_machine(self, capsys):
        assert main(["corpus", "run", "example-4.2-stable-genus-one",
                     "--format", "machine"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["passed"] is True

    def test_run_unknown_exits_one(self, capsys):
        assert main(["corpus", "run", "nope"]) == EXIT_INPUT

    def test_run_unknown_names_it_without_stray_quotes(self, capsys):
        assert main(["corpus", "run", "nosuch"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: unknown scenario 'nosuch'\n")

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    def test_run_refuses_a_path_out_of_the_corpus(self, tmp_path, capsys, relative):
        """A corpus file copied out of the package once ran, and passed, by a
        path relative to the bundled folder or by an absolute one."""
        (tmp_path / "copy.json").write_text((SCENARIOS / "example-4.2-stable-genus-one.json").read_text())
        name = os.path.relpath(tmp_path / "copy", SCENARIOS) if relative else str(tmp_path / "copy")
        assert main(["corpus", "run", name]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: unknown scenario {name!r}\n")


@pytest.mark.parametrize("argv, error", [
    (["extend", "{lattice}", "--mode", "nef", "--targets", ""], "error: not an exact rational: ''"),
    (["corpus", "run", ""], "error: unknown scenario ''"),
], ids=["targets", "scenario name"])
def test_empty_value_is_not_an_absent_one(lattice_file, capsys, argv, error):
    """An empty value was once read as no value: the default targets, or
    every scenario, and exit 0."""
    assert main([a.format(lattice=lattice_file) for a in argv]) == EXIT_INPUT
    assert capsys.readouterr() == ("", error + "\n")


class TestParserReuse:
    def test_back_to_back_calls_match_fresh_parsers(self, lattice_file, circle_file, capsys):
        # Flags set by one call must not leak into the next: --matrices and
        # --mode nef are followed by calls that rely on the defaults.
        runs = [
            ["dual-complex", circle_file, "--matrices"],
            ["dual-complex", circle_file],
            ["extend", lattice_file, "--mode", "nef", "--targets", "0,0", "--format", "machine"],
            ["extend", lattice_file],
            ["cochain", circle_file, "--format", "machine"],
            ["cochain", circle_file],
            ["corpus", "list"],
            ["extend", lattice_file + ".missing"],
        ]
        shared = []
        for argv in runs:
            shared.append((main(argv), capsys.readouterr()))
        fresh = []
        for argv in runs:
            build_parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr()))
        assert shared == fresh
        assert "B_1" in shared[0][1].out and "B_1" not in shared[1][1].out
        assert build_parser() is build_parser()


JSON_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(JSON_KEYS, inner)),
    max_leaves=40,
)


class TestMachineWriter:
    """``to_json`` against ``json.dumps(x, indent=2)``, which ``--format
    machine`` printed before."""

    @settings(max_examples=150, deadline=None)
    @given(JSON_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{(1, 2): 0}, [{"a": object()}], {"a": {1.5}}],
                             ids=["tuple key", "object", "set"])
    def test_same_error_as_json_dumps(self, value):
        with pytest.raises(TypeError) as theirs:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as ours:
            to_json(value)
        assert str(ours.value) == str(theirs.value)


ARGVS = st.one_of(
    st.lists(st.sampled_from(argv_cases.ALPHABET), max_size=8),
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(argv_cases.SUBCOMMANDS),
              st.lists(st.sampled_from(argv_cases.ALPHABET), max_size=7)),
    st.randoms(use_true_random=False).map(argv_cases.random_argv),
)

README_ARGVS = [
    ["extend", "scenario.json"],
    ["extend", "scenario.json", "--mode", "trivial"],
    ["extend", "scenario.json", "--mode", "nef", "--targets", "2,0"],
    ["dual-complex", "scenario.json"],
    ["dual-complex", "scenario.json", "--matrices"],
    ["cochain", "scenario.json"],
    ["pic0", "scenario.json"],
    ["obstruction", "scenario.json"],
    ["corpus", "list"],
    ["corpus", "run"],
    ["corpus", "run", "example-4.2-stable-genus-one"],
]


class TestArgvReader:
    """``read_argv`` against ``build_parser().parse_args`` (see ``argv_cases``)."""

    @settings(max_examples=600, deadline=None)
    @given(ARGVS)
    def test_reader_agrees_with_argparse(self, argv):
        argv_cases.check(argv)

    @pytest.mark.parametrize("argv", [
        ["extend", "f.json", "-h"], ["extend", "f.json", "--mod", "nef"], ["extend", "f.json", "--format=machine"],
        ["extend", "--", "f.json"], ["extend", "-"], ["extend", "f.json", "--targets", "-1,2"], ["extend", ""],
        ["extend", "f.json", "--mode", "nef", "--mode", "trivial"], ["extend", "f.json", "g.json"], ["extend"],
        ["extend", "f.json", "--mode", "Trivial"], ["extend", "f.json", "--targets", "--format=machine"],
        ["extend", "f.json", "--targets"], ["extend", "--mode", "nef", "f.json"], ["corpus", "show"],
        ["corpus", "run", "--format", "machine", "name"], ["dual-complex", "f.json", "--matrices", "--matrices"],
    ])
    def test_other_shapes_are_left_to_argparse(self, argv):
        assert argv_cases.check(argv)[0] is None

    def test_callers_take_the_reader(self, tmp_path, monkeypatch):
        """Every argv shape of the benchmark workloads, the golden cases and
        the README examples is read without argparse."""
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads

        argvs = [op["argv"] for name in workloads.WORKLOADS
                 for op in workloads.build(name, 1, str(tmp_path / name), str(ROOT))]
        argvs += [argv + ["--format", fmt] for _, argv in golden_cases() for fmt in ("machine", "human")]
        argvs += README_ARGVS + [argv + ["--format", "machine"] for argv in README_ARGVS]
        assert [argv for argv in argvs if argv_cases.check(argv)[0] is None] == []

    @pytest.mark.parametrize("case", sorted(argv_cases.USAGE_CASES))
    def test_help_and_usage_errors_are_argparse_output(self, case):
        """Byte for byte the output of the parser-only ``main``."""
        golden = json.loads(argv_cases.USAGE_GOLDEN.read_text())
        assert argv_cases.usage_output(argv_cases.USAGE_CASES[case]) == golden[case]

    @pytest.mark.parametrize("argv", [["corpus", "run", "example-4.2-stable-genus-one", "--format", "machine"],
                                      ["corpus", "--help"], ["extend"]])
    def test_main_reads_sys_argv(self, monkeypatch, capsys, argv):
        def run(*args):
            try:
                code = main(*args)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        expected = run(argv)
        monkeypatch.setattr(sys, "argv", ["fiberext", *argv])
        assert run() == expected


MALFORMED_SOURCES = {
    "extend": ({"name": "lat",
                "lattice": {"labels": ["C1", "C2"], "matrix": [[-2, 2], [2, -2]],
                            "multiplicities": [1, 1]},
                "trace": {"values": [-1, 1]}}, ("lattice", "labels")),
    "dual-complex": ({"name": "cx", "strata": {"levels": [[{"id": "W0", "indices": [0]}]]}},
                     ("strata", "levels")),
    "cochain": ({"name": "co", "strata": {"levels": [[{"id": "W0", "indices": [0]}]]},
                 "cochain": {"group": {"rank": 1}, "edge_values": []}}, ("cochain", "group")),
    "pic0": ({"name": "fib", "curve_fibers": {"a": {"genera": [0], "edges": [[0, 0]]}}},
             ("curve_fibers", "a")),
    "obstruction": ({"name": "obs", "obstruction": {
        "proper": True, "group": {"rank": 1},
        "points": [{"label": "p", "torus_rank": 1, "abelian_dim": 0, "value": [1]}]}},
        ("obstruction", "points")),
}


class TestMalformedScenario:
    """Every malformed file exits 1 with exactly one ``error:`` line."""

    def run(self, tmp_path, capsys, command, data, *options):
        """``data`` is written as JSON, or as it is if it is a string."""
        path = tmp_path / "bad.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        assert main([command, str(path), *options]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize("command", sorted(MALFORMED_SOURCES))
    def test_top_level_list(self, tmp_path, capsys, command):
        data, _ = MALFORMED_SOURCES[command]
        assert "JSON object" in self.run(tmp_path, capsys, command, [data])

    @pytest.mark.parametrize("command", sorted(MALFORMED_SOURCES))
    def test_deeply_nested_json(self, tmp_path, capsys, command):
        # The decoder's RecursionError once escaped as a 28-line traceback.
        assert "nested too deeply" in self.run(tmp_path, capsys, command, "[" * 1000 + "]" * 1000)

    @pytest.mark.parametrize("command", sorted(MALFORMED_SOURCES))
    def test_null_field(self, tmp_path, capsys, command):
        data, (section, key) = MALFORMED_SOURCES[command]
        data = json.loads(json.dumps(data))
        data[section][key] = None
        assert repr(section) in self.run(tmp_path, capsys, command, data)

    @pytest.mark.parametrize("command", sorted(MALFORMED_SOURCES))
    def test_wrong_type(self, tmp_path, capsys, command):
        data, (section, key) = MALFORMED_SOURCES[command]
        data = json.loads(json.dumps(data))
        data[section][key] = 7
        assert repr(section) in self.run(tmp_path, capsys, command, data)

    @pytest.mark.parametrize("section", ["lattice", "strata", "curve_fibers", "expect", "name", "citation"])
    def test_section_of_wrong_type(self, tmp_path, capsys, section):
        data = {"name": "x", section: 7}
        assert repr(section) in self.run(tmp_path, capsys, "pic0", data)

    def test_nested_cochain_value(self, tmp_path, capsys, circle_file):
        data = json.loads(open(circle_file).read())
        data["cochain"]["edge_values"][0] = [[1]]
        assert "'cochain'" in self.run(tmp_path, capsys, "cochain", data)

    def test_h1_structure_of_wrong_type(self, tmp_path, capsys, circle_file):
        data = json.loads(open(circle_file).read())
        data["h1_structure"] = "1"
        assert "'h1_structure'" in self.run(tmp_path, capsys, "pic0", data)

    @pytest.mark.parametrize("command, path", [
        ("extend", "lattice.connected"),
        ("pic0", "curve_fibers.a.nodal"),
        ("obstruction", "obstruction.proper"),
    ])
    def test_string_boolean(self, tmp_path, capsys, command, path):
        data, _ = MALFORMED_SOURCES[command]
        data = json.loads(json.dumps(data))
        *parents, key = path.split(".")
        node = data
        for part in parents:
            node = node[part]
        node[key] = "false"
        assert path in self.run(tmp_path, capsys, command, data)

    def test_string_labels(self, tmp_path, capsys):
        data = json.loads(json.dumps(MALFORMED_SOURCES["extend"][0]))
        data["lattice"]["labels"] = "AB"
        assert "labels must be a list of strings" in self.run(tmp_path, capsys, "extend", data)

    @pytest.mark.parametrize("value", [True, "1"])
    def test_non_integer_multiplicity(self, tmp_path, capsys, value):
        data = json.loads(json.dumps(MALFORMED_SOURCES["extend"][0]))
        data["lattice"]["multiplicities"][0] = value
        assert "lattice.multiplicities[0] must be an integer" in self.run(tmp_path, capsys, "extend", data)

    @pytest.mark.parametrize("command", ["dual-complex", "cochain", "pic0"])
    @pytest.mark.parametrize("field", ["id", "facet", "string index", "boolean index"])
    def test_non_string_stratum_name(self, tmp_path, capsys, circle_file, command, field):
        data = json.loads(open(circle_file).read())
        if field == "id":
            data["strata"]["levels"][0][0]["id"] = ["W0"]
            path = "strata.levels[0][0].id"
        elif field == "facet":
            data["strata"]["levels"][1][0]["facets"] = [["W1"], "W0"]
            path = "strata.levels[1][0].facets[0]"
        else:
            # Once read as 0 and 1, which built a valid complex.
            data["strata"]["levels"][0][1]["indices"] = ["0"] if field == "string index" else [True]
            path = "strata.levels[0][1].indices[0]"
        assert path in self.run(tmp_path, capsys, command, data)

    @pytest.mark.parametrize("command, path, value", [
        ("cochain", "cochain.group.rank", True),
        ("cochain", "cochain.group.torsion[0]", "4"),
        ("cochain", "cochain.edge_values[0][0]", "1"),
        ("obstruction", "obstruction.group.rank", True),
        ("obstruction", "obstruction.points[0].torus_rank", "1"),
        ("obstruction", "obstruction.points[0].abelian_dim", False),
        ("obstruction", "obstruction.points[1].value[0]", "1"),
        ("obstruction", "obstruction.points[1].label", 7),
    ])
    def test_field_type_not_coerced(self, tmp_path, capsys, circle_file, command, path, value):
        # Integers were once coerced by int(), so a cochain file with
        # "rank": true and "edge_values": [["1"]] was read as exact, and
        # point values went unchecked until the group law raised TypeError.
        if command == "cochain":
            data = json.loads(open(circle_file).read())
            data["cochain"] = {"group": {"rank": 1, "torsion": [4]}, "edge_values": [[1, 0], [0, 3]]}
        else:
            data = json.loads(json.dumps(MALFORMED_SOURCES["obstruction"][0]))
            points = data["obstruction"]["points"]
            points.append(dict(points[0], label="q", value=[2]))
        node, key = data, None
        for part in path.replace("[", ".").replace("]", "").split("."):
            if key is not None:
                node = node[key]
            key = int(part) if part.isdigit() else part
        node[key] = value
        assert path in self.run(tmp_path, capsys, command, data)

    @pytest.mark.parametrize("command, edit, options, message", [
        ("extend", lambda d: d["lattice"]["matrix"][1].pop(), (),
         "intersection matrix must be square and match the labels"),
        ("extend", lambda d: d["lattice"]["multiplicities"].pop(), (),
         "multiplicity vector length must match the matrix"),
        ("extend", lambda d: d["trace"]["values"].pop(), (), "trace length does not match the lattice"),
        ("extend", lambda d: d["trace"].update(values=[0, 0]), ("--mode", "nef", "--targets", "0"),
         "target vector length does not match the lattice"),
        ("cochain", lambda d: d["cochain"]["edge_values"].pop(), (), "cochain of degree 1 needs 2 values, got 1"),
        ("cochain", lambda d: d.pop("strata"), (), "scenario file lacks a 'strata' section"),
        ("pic0", lambda d: [d.pop("strata"), d.pop("cochain")], (), "scenario file has no fiber to classify"),
        ("pic0", lambda d: d.update(curve_fiber={"genera": [-1]}), (), "genera must be nonnegative"),
        ("pic0", lambda d: [d.pop("cochain"), d.update(strata={"levels": []})], (),
         "dual complex must have at least one component"),
        # These four refusals once gave exit 0, or named 'strata'; each runs in both formats.
        *[case[:2] + (case[2] + form, case[3]) for form in ((), ("--format", "machine")) for case in [
            ("extend", lambda d: None, ("--targets", "5,7"), "--targets needs --mode nef"),
            ("pic0", lambda d: d.update(curve_fibers={"snc": {"genera": [1]}}), (),
             "curve_fibers.snc: the label 'snc' names the strata fiber"),
            ("pic0", lambda d: d.update(curve_fiber={"genera": [1]}, curve_fibers={"default": {"genera": [2]}}),
             (), "curve_fibers.default: the label 'default' names the 'curve_fiber' section"),
            ("cochain", lambda d: [d.pop("strata"), d.pop("cochain")], (), "scenario file lacks a 'cochain' section"),
        ]],
        ("obstruction", lambda d: d.update(MALFORMED_SOURCES["obstruction"][0]), (),
         "a scenario needs at least two sample points"),
    ], ids=["non-square matrix", "multiplicities", "trace length", "target length", "cochain length",
            "cochain without strata", "no fiber", "negative genus", "snc fiber without components",
            *[name + form for form in ("", ", machine") for name in
              ("targets without nef", "curve fiber named snc", "two default fibers", "neither cochain nor strata")],
            "one-point obstruction"])
    def test_inconsistent_input(self, tmp_path, capsys, lattice_file, circle_file, command, edit, options,
                                message):
        """Well-typed files whose parts do not fit together."""
        data = json.loads(open(lattice_file if command == "extend" else circle_file).read())
        edit(data)
        assert self.run(tmp_path, capsys, command, data, *options) == f"error: {message}"


    @pytest.mark.parametrize("name, command, keys, path", [
        ("cochain-triangle-closed", "cochain", ("cochain", "edge_values", 1), "cochain.edge_values[1]"),
        ("example-5.1-obstruction", "obstruction", ("obstruction", "points", 1, "value"),
         "obstruction.points[1].value"),
    ], ids=["cochain", "obstruction"])
    def test_value_of_the_wrong_width_is_named_by_its_path(self, tmp_path, capsys, name, command, keys, path):
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = [1, 2]
        line = self.run(tmp_path, capsys, command, data)
        assert line == f"error: {path}: element must have 1 coordinates"

    @pytest.mark.parametrize("value, message", [
        ('"@"', "trace.values[0]: integer of 5000 digits exceeds the limit of {} digits"),
        ("@", "JSON integer literal of 5000 digits exceeds the limit of {} digits"),
        ("-@, 1.5", "JSON integer literal of 5000 digits exceeds the limit of {} digits"),
        ("1.5, @", "floating point literal '1.5' is not allowed in scenario files"),
    ], ids=["string", "literal", "literal before a float", "float before a literal"])
    def test_over_long_integer_states_the_digit_limit(self, tmp_path, capsys, value, message):
        """5000 digits once reached the user as Python's advice to call
        ``sys.set_int_max_str_digits()``; of two faults the first is named."""
        data = json.loads(json.dumps(MALFORMED_SOURCES["extend"][0]))
        text = json.dumps(data).replace("[-1, 1]", "[" + value.replace("@", "7" * 5000) + "]")
        line = self.run(tmp_path, capsys, "extend", text)
        assert line == "error: " + message.format(sys.get_int_max_str_digits())


@pytest.mark.parametrize("source, options", [("file", ()),
                                             ("targets", ("--mode", "nef", "--targets", "1e100000000,0"))])
def test_exponent_is_refused_before_any_arithmetic(tmp_path, lattice_file, source, options):
    """``Fraction("1e100000000")`` builds a 10^8-digit integer; the "p/q"
    grammar refuses the string first.  The run is a subprocess with a
    timeout, so a regression fails here instead of hanging the suite."""
    path = lattice_file
    if source == "file":
        data = json.loads(open(lattice_file).read())
        data["lattice"]["matrix"][1][1] = "1e100000000"
        path = write(tmp_path, "exponent.json", data)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    run = subprocess.run([sys.executable, "-m", "fiberext.cli", "extend", path, *options],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (EXIT_INPUT, "")
    where = "lattice.matrix[1][1]: " if source == "file" else ""
    assert run.stderr.splitlines() == [f"error: {where}not an exact rational: '1e100000000'"]
