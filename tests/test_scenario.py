"""The scenario loader: strata parsed straight into one ``DeltaComplex``,
cochains bound to it at load, and path-named errors for values of the
wrong JSON type and for missing required keys."""

import collections
import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fiberext import corpus, dual_complex, linalg, scenario
from fiberext.cli import EXIT_INPUT, main
from fiberext.dual_complex import StrataError, Stratum, build_dual_complex
from fiberext.scenario import load_scenario_file, parse_strata

from conftest import random_strata
from oracles import (boundary_matrix_reference, build_dual_complex_reference, parse_cochain_reference,
                     parse_strata_reference)

SCENARIOS = Path(__file__).parent.parent / "src" / "fiberext" / "scenarios"
CORPUS = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}


def to_json(strata) -> dict:
    return {"levels": [[{"id": s.ident, "indices": list(s.indices), "facets": list(s.facets)}
                        for s in level] for level in strata]}


def from_json(data: dict) -> tuple:
    return tuple(tuple(Stratum(s["id"], tuple(s["indices"]), tuple(s.get("facets", ())))
                       for s in level) for level in data["levels"])


def outcome(build, arg):
    """The complex ``build`` makes of ``arg``, or its StrataError message."""
    try:
        return build(arg)
    except StrataError as exc:
        return f"StrataError: {exc}"


def assert_same_outcome(strata):
    """The JSON walk, the library build and the three-walk reference agree."""
    want = outcome(build_dual_complex_reference, strata)
    assert outcome(build_dual_complex, strata) == want
    assert outcome(parse_strata, to_json(strata)) == want
    return want


# ---------------------------------------------------------------------------
# Single-fault mutants, one per StrataError kind
# ---------------------------------------------------------------------------

def _replace_at(strata, r, k, stratum):
    levels = list(strata)
    levels[r] = levels[r][:k] + (stratum,) + levels[r][k + 1:]
    return tuple(levels)


def _append_at(strata, r, stratum):
    levels = list(strata)
    levels[r] = levels[r] + (stratum,)
    return tuple(levels)


def _pick(rng, strata, min_level=0):
    r = rng.randrange(min_level, len(strata))
    k = rng.randrange(len(strata[r]))
    return r, k, strata[r][k]


def _inconsistent(rng, strata):
    """Point a facet of a level >= 3 stratum at a parallel copy F' of that
    facet F whose first facet is in turn a parallel copy of F's: each copy
    is valid, but two routes to a codimension-2 face now disagree."""
    r, k, top = _pick(rng, strata, 3)
    ids = {s.ident: s for level in strata for s in level}
    f = ids[top.facets[0]]
    g = ids[f.facets[0]]
    g2 = g._replace(ident=g.ident + "'")
    f2 = f._replace(ident=f.ident + "'", facets=(g2.ident,) + f.facets[1:])
    mutant = _append_at(_append_at(strata, r - 2, g2), r - 1, f2)
    return _replace_at(mutant, r, k, top._replace(facets=(f2.ident,) + top.facets[1:]))


def _mutant(kind, rng, strata):
    if kind == "duplicate id":
        r, _, s = _pick(rng, strata)
        return _append_at(strata, r, s)
    if kind == "index count":
        r, k, s = _pick(rng, strata)
        return _replace_at(strata, r, k, s._replace(indices=s.indices + (s.indices[-1] + 100,)))
    if kind == "distinct vertices":
        return _replace_at(strata, 0, 1, strata[0][1]._replace(indices=strata[0][0].indices))
    if kind == "facet count" and rng.random() < 0.3:
        # A level-0 stratum lists no facets.
        k = rng.randrange(len(strata[0]))
        return _replace_at(strata, 0, k, strata[0][k]._replace(facets=(strata[0][0].ident,)))
    r, k, s = _pick(rng, strata, 1)
    if kind == "non-increasing":
        return _replace_at(strata, r, k, s._replace(indices=(s.indices[1], s.indices[0]) + s.indices[2:]))
    if kind == "facet count":
        return _replace_at(strata, r, k, s._replace(facets=s.facets[:-1]))
    if kind == "unknown facet":
        i = rng.randrange(len(s.facets))
        return _replace_at(strata, r, k, s._replace(facets=s.facets[:i] + ("nowhere",) + s.facets[i + 1:]))
    if kind == "facet index set":
        return _replace_at(strata, r, k, s._replace(facets=(s.facets[1], s.facets[0]) + s.facets[2:]))
    return _inconsistent(rng, strata)


MUTANT_MESSAGES = {
    "duplicate id": "duplicate stratum id",
    "index count": "indices",
    "distinct vertices": "component indices at level 0 must be distinct",
    "non-increasing": "must be strictly increasing",
    "facet count": "facets",
    "unknown facet": "is not a level-",
    "facet index set": "has index set",
    "inconsistent": "inconsistent facets",
}


# Levels a complex needs before the mutant can be made; the others need two.
MIN_LEVELS = {"duplicate id": 1, "index count": 1, "distinct vertices": 1, "inconsistent": 4}


class TestStrataWalk:
    def test_random_complexes_match_reference(self):
        rng = random.Random(8)
        for _ in range(200):
            assert not isinstance(assert_same_outcome(random_strata(rng)), str)

    @pytest.mark.parametrize("name", sorted(n for n, d in CORPUS.items() if "strata" in d))
    def test_corpus_complexes_match_reference(self, name):
        data = CORPUS[name]["strata"]
        cx = assert_same_outcome(from_json(data))
        assert corpus.load_scenario(name).strata == cx == parse_strata(data)

    @pytest.mark.parametrize("name", sorted(n for n, d in CORPUS.items() if "strata" in d))
    def test_plain_triples_build_the_loaded_complex(self, name):
        """``build_dual_complex`` takes the loader's form, lists of plain
        ``(id, indices, facets)`` triples, with no wrapper around them."""
        levels = [[(s["id"], tuple(s["indices"]), s.get("facets", [])) for s in level]
                  for level in CORPUS[name]["strata"]["levels"]]
        assert build_dual_complex(levels) == corpus.load_scenario(name).strata

    @pytest.mark.parametrize("kind", sorted(MUTANT_MESSAGES))
    def test_single_fault_messages_match_reference(self, kind):
        rng = random.Random(kind)
        tried = 0
        for _ in range(300):
            strata = random_strata(rng)
            if len(strata) < MIN_LEVELS.get(kind, 2):
                continue
            want = assert_same_outcome(_mutant(kind, rng, strata))
            assert want.startswith("StrataError: ") and MUTANT_MESSAGES[kind] in want
            tried += 1
        assert tried >= 20


# ---------------------------------------------------------------------------
# One complex per file, each boundary matrix factored once
# ---------------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Every complex ``build_dual_complex`` returns, through any binding in
    the package, and ``(complex, degree, rows)`` for every boundary matrix
    the homology cache factors, ``rows`` its sparse rows."""
    built, factored = [], []

    def counting_build(strata):
        built.append(build_dual_complex(strata))
        return built[-1]

    def recording_factor(cx, r, factor=dual_complex._factor):
        factored.append((cx, r, dual_complex.boundary_rows(cx, r)))
        return factor(cx, r)

    for name, module in list(sys.modules.items()):
        if name == "fiberext" or name.startswith("fiberext."):
            for attr, value in list(vars(module).items()):
                if value is build_dual_complex:
                    monkeypatch.setattr(module, attr, counting_build)
    monkeypatch.setattr(dual_complex, "_factor", recording_factor)
    return built, factored


def assert_factored_once(built, factored):
    """Each boundary matrix of a built complex is factored at most once,
    from sparse rows equal to B_r built entry by entry."""
    keys = [(id(cx), r) for cx, r, _ in factored]
    assert set(i for i, _ in keys) <= set(map(id, built))
    assert max(collections.Counter(keys).values(), default=1) == 1
    for cx, r, rows in factored:
        assert list(rows) == linalg.sparse(boundary_matrix_reference(cx, r))


def test_corpus_run_builds_one_complex_per_strata_file(builds):
    built, factored = builds
    assert all(r.passed for r in corpus.run_all())
    assert len(built) == sum("strata" in d for d in CORPUS.values()) == 7
    assert factored
    assert_factored_once(built, factored)


@pytest.mark.parametrize("name", sorted(n for n, d in CORPUS.items() if "strata" in d))
def test_each_strata_op_builds_its_complex_once(builds, name):
    built, factored = builds
    commands = ["dual-complex", "pic0"] + (["cochain"] if "cochain" in CORPUS[name] else [])
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            main([command, str(SCENARIOS / f"{name}.json")])
        assert len(built) == 1, command
        assert_factored_once(built, factored)
        built.clear()
        factored.clear()


# ---------------------------------------------------------------------------
# Values of the wrong JSON type, and missing keys, in every parsed section
# ---------------------------------------------------------------------------

COMMAND_OF = {"lattice": "extend", "trace": "extend", "strata": "dual-complex", "cochain": "cochain",
              "obstruction": "obstruction", "curve_fiber": "pic0", "curve_fibers": "pic0"}
WRONG_VALUES = (None, True, "1", [1], {})
# Leaves that are exact rationals: a JSON int or a "p/q" string.
RATIONAL_LEAVES = ("lattice.matrix[", "trace.values[")


def _leaves(node, keys, path):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, keys + (key,), f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, keys + (i,), f"{path}[{i}]")
    else:
        yield keys, path, node


def _json_type(x):
    return "null" if x is None else type(x).__name__


def _accepts(path, leaf):
    return {"int", "str"} if path.startswith(RATIONAL_LEAVES) else {_json_type(leaf)}


# (scenario, section, keys to the leaf, path as errors print it, replacement)
TYPE_MUTATIONS = [
    (name, section, keys, path, wrong)
    for name, data in CORPUS.items()
    for section in COMMAND_OF if section in data
    for keys, path, leaf in _leaves(data[section], (section,), section)
    for wrong in WRONG_VALUES if _json_type(wrong) not in _accepts(path, leaf)
]


def run_mutant(file, command, data):
    """Exit code and the one ``error:`` line of ``command`` on ``data``."""
    file.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(file)])
    lines = err.getvalue().splitlines()
    assert code == EXIT_INPUT and out.getvalue() == ""
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_wrong_json_type_is_one_path_named_error(tmp_path):
    # One example per mutation: hypothesis does not replay a choice it has
    # made, so len(TYPE_MUTATIONS) examples visit every index; the count
    # at the end checks that they did.
    file = tmp_path / "bad.json"
    seen = set()

    @settings(max_examples=len(TYPE_MUTATIONS), deadline=None, derandomize=True)
    @given(index=st.sampled_from(range(len(TYPE_MUTATIONS))))
    def check(index):
        seen.add(index)
        name, section, keys, path, wrong = TYPE_MUTATIONS[index]
        data = json.loads(json.dumps(CORPUS[name]))
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = wrong
        assert path in run_mutant(file, COMMAND_OF[section], data)

    check()
    assert len(seen) == len(TYPE_MUTATIONS)


@pytest.mark.parametrize("edit, path", [
    (lambda s: s.update(indices=[0, "1", 2]), "strata.levels[2][1].indices[1] must be an integer"),
    (lambda s: s.update(facets="Z13"), "strata.levels[2][1].facets must be a list of strings"),
    (lambda s: s.update(id=7), "strata.levels[2][1].id must be a string"),
    (lambda s: s.pop("indices"), "strata.levels[2][1].indices is missing"),
], ids=["index", "facets", "id", "missing key"])
def test_type_fault_is_reported_before_an_earlier_snc_fault(tmp_path, edit, path):
    """Every type check runs before any snc check: a type fault in level 2
    wins over a duplicate id in level 0."""
    data = json.loads(json.dumps(CORPUS["dual-complex-tetrahedron"]))
    levels = data["strata"]["levels"]
    levels[0][1]["id"] = levels[0][0]["id"]
    assert "duplicate stratum id 'Z0'" in run_mutant(tmp_path / "bad.json", "dual-complex", data)
    edit(levels[2][1])
    assert path in run_mutant(tmp_path / "bad.json", "dual-complex", data)


# Keys the loader requires, wherever they occur in a parsed section.
REQUIRED_KEYS = {"labels", "matrix", "multiplicities", "values", "levels", "id", "indices",
                 "genera", "group", "edge_values", "points", "proper", "label", "torus_rank",
                 "abelian_dim", "value"}


def _required(node, keys, path):
    """(keys to the dict, key, path of the key) of each required key under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in REQUIRED_KEYS:
                yield keys, key, f"{path}.{key}"
            yield from _required(value, keys + (key,), f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _required(value, keys + (i,), f"{path}[{i}]")


# (scenario, command, keys to the dict, key to delete, path as errors print it)
MISSING_KEYS = [(name, "pic0", (), "name", "name") for name in CORPUS] + [
    (name, COMMAND_OF[section], (section,) + keys, key, path)
    for name, data in CORPUS.items()
    for section in COMMAND_OF if section in data
    for keys, key, path in _required(data[section], (), section)
]


def test_missing_key_is_one_path_named_error(tmp_path):
    file = tmp_path / "bad.json"
    sections = {case[2][0] for case in MISSING_KEYS if case[2]}
    assert sections == set(COMMAND_OF) and len(MISSING_KEYS) > 100
    for name, command, keys, key, path in MISSING_KEYS:
        data = json.loads(json.dumps(CORPUS[name]))
        node = data
        for k in keys:
            node = node[k]
        del node[key]
        line = run_mutant(file, command, data)
        assert f"{path} is missing" in line, (name, path, line)


@pytest.mark.parametrize("genera, edges, path", [
    (["1", True], [["0", 1], [0, True]], "curve_fibers.x.genera[0] must be an integer"),
    ([0, 0], [["0", 1], [0, True]], "curve_fibers.x.edges[0][0] must be an integer"),
    ([0, 0], [[0, 1], [0, 1, 1]], "curve_fibers.x.edges[1] must list two components"),
    ([0, 0], [[0, 1], [0]], "curve_fibers.x.edges[1] must list two components"),
])
def test_curve_fiber_takes_json_integer_pairs_only(tmp_path, genera, edges, path):
    fiber = {"genera": genera, "edges": edges}
    assert path in run_mutant(tmp_path / "bad.json", "pic0", {"name": "fib", "curve_fibers": {"x": fiber}})


def _containers(node, keys, path):
    """(keys, path) of each list or object strictly inside ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            sub = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
            yield keys + (key,), sub
            yield from _containers(value, keys + (key,), sub)


# (scenario, section, keys to a section or a list or object inside one, path
# as errors print it): each section itself, every curve_fibers entry and
# every nested container, and the expect list.
CONTAINER_MUTATIONS = [
    (name, section, keys, path)
    for name, data in CORPUS.items()
    for section in COMMAND_OF if section in data
    for keys, path in [((section,), section), *_containers(data[section], (section,), section)]
] + [(name, "expect", ("expect",), "expect") for name, data in CORPUS.items() if "expect" in data]


def test_container_of_wrong_type_is_one_path_named_error(tmp_path):
    file = tmp_path / "bad.json"
    mutated = {path.split(".")[0].split("[")[0] for _, _, _, path in CONTAINER_MUTATIONS}
    assert mutated == set(COMMAND_OF) | {"expect"} and len(CONTAINER_MUTATIONS) > 50
    assert any(path.startswith("curve_fibers.") and path.count(".") == 1 for *_, path in CONTAINER_MUTATIONS)
    for name, section, keys, path in CONTAINER_MUTATIONS:
        data = json.loads(json.dumps(CORPUS[name]))
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = 7
        line = run_mutant(file, COMMAND_OF.get(section, "pic0"), data)
        assert f"{path} must be " in line, (name, path, line)


# ---------------------------------------------------------------------------
# Several faults per file: the loader against the helpers-only walk
# ---------------------------------------------------------------------------

# Values a mutation writes over a leaf or a container: wrong JSON types,
# integers that are valid but misplaced, and a 31-digit integer.
MISFITS = (None, True, False, "1", "Z0", 7, -1, 0, 10 ** 30, [], [1], [True], ["Z0"], {}, {"id": "x"})
GROUPS = ({}, {"rank": 1}, {"torsion": [6]}, {"rank": 1, "torsion": [4]}, {"rank": 2})


def _random_scenario(rng):
    """A well-formed file with a random complex and a cochain on it."""
    strata = to_json(random_strata(rng))
    for s in strata["levels"][0]:
        if rng.random() < 0.5:
            del s["facets"]
    group = rng.choice(GROUPS)
    width = group.get("rank", 0) + len(group.get("torsion", []))
    edges = len(strata["levels"][1]) if len(strata["levels"]) > 1 else 0
    values = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(edges)]
    return {"name": "mutant", "strata": strata, "cochain": {"group": group, "edge_values": values}}


def _nodes(node, parent, key):
    """(parent, key) of ``node`` and of every value inside it."""
    yield parent, key
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for k, value in items:
        yield from _nodes(value, node, k)


def _mutate(rng, data):
    """One fault in ``strata`` or ``cochain``: a value replaced by a misfit,
    a key or entry deleted, or an entry duplicated or added to a list, so
    that leaf types, missing keys, containers, widths and counts all vary."""
    sections = [section for section in ("strata", "cochain") if section in data]
    if not sections:
        return
    section = rng.choice(sections)
    parent, key = rng.choice(list(_nodes(data[section], data, section)))
    node, action = parent[key], rng.random()
    if action < 0.5:
        parent[key] = json.loads(json.dumps(rng.choice(MISFITS)))
    elif action < 0.75:
        parent.pop(key)
    elif type(node) is list:
        node.append(json.loads(json.dumps(rng.choice(node) if node and rng.random() < 0.7
                                          else rng.choice(MISFITS))))
    elif type(parent) is list:
        parent.insert(key, json.loads(json.dumps(node)))


def _load_outcome(file):
    """The complex and cochain ``load_scenario_file`` reads, or its error."""
    try:
        sc = load_scenario_file(file)
    except ValueError as exc:
        return f"error: {exc}"
    return sc.strata, sc.cochain


def test_multi_fault_messages_match_the_helpers_only_walk(tmp_path, monkeypatch):
    """1-4 faults per file across ``strata`` and ``cochain``: the loader
    names the same first fault as the reference walk that reads every leaf
    with the path-naming helpers, and raises nothing but ValueError."""
    rng = random.Random(15)
    bases = [CORPUS[n] for n in ("cochain-circle-classes", "cochain-triangle-closed",
                                 "cochain-triangle-not-closed")]
    texts = []
    for i in range(1500):
        data = json.loads(json.dumps(bases[i % 3] if i % 5 == 0 else _random_scenario(rng)))
        for _ in range(rng.randint(1, 4)):
            _mutate(rng, data)
        texts.append(json.dumps(data))
    file = tmp_path / "mutant.json"

    def outcomes():
        for text in texts:
            file.write_text(text)
            yield _load_outcome(file)

    got = list(outcomes())
    monkeypatch.setattr(scenario, "parse_strata", parse_strata_reference)
    monkeypatch.setattr(scenario, "parse_cochain", parse_cochain_reference)
    want = list(outcomes())
    for text, g, w in zip(texts, got, want):
        assert g == w, text
    errors = [g for g in got if type(g) is str]
    assert 0.6 * len(got) < len(errors) < len(got)
    for part in ("malformed 'strata' section: strata.levels[", "malformed 'cochain' section: cochain.",
                 "strata.levels", "is missing", "cochain.edge_values[", "coordinates",
                 "cochain of degree 1 needs", "must be a JSON object", "duplicate stratum id"):
        assert any(part in e for e in errors), part


@pytest.mark.parametrize("text, position", [
    ("", "line 1 column 1 "),
    ('{"name": "cut", "strata": {"levels": [[', "line 1 column 40 "),
    ('{\n  "name": "cut",\n  "strata": {\n    "levels": [\n', "line 5 column 1 "),
    ('{"name": "cut",}', "line 1 column 16 "),
])
def test_malformed_json_is_one_error_line_with_its_position(tmp_path, text, position):
    """An empty or truncated scenario file fails to decode: exit 1 with one
    ``error:`` line that names the line and column of the fault."""
    file = tmp_path / "bad.json"
    file.write_text(text)
    with pytest.raises(json.JSONDecodeError):
        load_scenario_file(file)
    for command in ("dual-complex", "cochain", "extend", "pic0"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(file)])
        lines = err.getvalue().splitlines()
        assert code == EXIT_INPUT and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: ") and position in lines[0]


def test_truncated_corpus_files_name_their_position(tmp_path):
    """Each bundled scenario cut off halfway, run through the command for
    its first section, fails to decode with one ``error:`` line on the line
    where the text ends."""
    file = tmp_path / "cut.json"
    for name, data in CORPUS.items():
        text = (SCENARIOS / f"{name}.json").read_text()
        file.write_text(text[:len(text) // 2].rstrip())
        command = next(COMMAND_OF[section] for section in data if section in COMMAND_OF)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(file)])
        lines = err.getvalue().splitlines()
        assert code == EXIT_INPUT and len(lines) == 1 and lines[0].startswith("error: ")
        assert f"line {file.read_text().count(chr(10)) + 1} column " in lines[0]
