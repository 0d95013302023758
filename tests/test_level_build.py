"""The level-at-a-time ``build_dual_complex`` against the one-walk build it
replaced: the same complex or the same first ``StrataError`` on valid,
faulty and oddly shaped input; the codimension-2 comparison only where the
index sets two levels down repeat; the one-stratum walk of ``_fault`` only
at a level that fails; and the ``B_(r-1) B_r = 0`` check of complexes
built directly, made as they are constructed."""

import json
import random

import pytest

from fiberext import cochain, dual_complex
from fiberext.cli import EXIT_INPUT, main
from fiberext.dual_complex import (DeltaComplex, StrataError, Stratum, build_dual_complex, homology,
                                   simplex_strata, strata_from_multigraph)

from conftest import random_strata, torus_strata
from oracles import build_dual_complex_reference, build_dual_complex_walk_reference
from test_chain_cache import suspension
from test_exactness import one_vertex_complex
from test_scenario import CORPUS, MIN_LEVELS, MUTANT_MESSAGES, _inconsistent, _mutant, _replace_at, from_json


# A fragment of each StrataError message of the build.
FAULTS = ("duplicate stratum id", "indices", "strictly increasing", "must list", "is not a level-",
          "has index set", "inconsistent facets", "component indices at level 0")


def outcome(build, levels):
    """The complex ``build`` makes of ``levels``, or its StrataError message."""
    try:
        return build(levels)
    except StrataError as exc:
        return f"StrataError: {exc}"


def assert_same_as_walk(levels):
    """The level build and the one-walk reference agree on ``levels``."""
    want = outcome(build_dual_complex_walk_reference, levels)
    assert outcome(build_dual_complex, levels) == want
    return want


def random_graph_strata(rng, n_vertices):
    n_edges = rng.randint(0, 3 * n_vertices) if n_vertices > 1 else 0
    edges = [tuple(rng.sample(range(n_vertices), 2)) for _ in range(n_edges)]
    return strata_from_multigraph(n_vertices, edges)


def structured_strata():
    """Simplices and their boundaries on 2..9 vertices, tori, and graphs."""
    rng = random.Random(27)
    for k in range(2, 10):
        yield simplex_strata(tuple(range(k)))
        yield simplex_strata(tuple(range(k)), full=False)
    for n in (3, 4, 6):
        yield torus_strata(n)
    for n_vertices in range(1, 41):
        yield random_graph_strata(rng, n_vertices)
    for n_edges in (4, 5, 6):  # the graphs of torsion-ladder
        yield strata_from_multigraph(4, [tuple(rng.sample(range(4), 2)) for _ in range(n_edges)])


class TestSameAsTheWalk:
    def test_random_strata(self):
        rng = random.Random(1)
        for _ in range(300):
            assert not isinstance(assert_same_as_walk(random_strata(rng)), str)

    def test_simplices_tori_and_multigraphs(self):
        for strata in structured_strata():
            assert not isinstance(assert_same_as_walk(strata), str)

    @pytest.mark.parametrize("name", sorted(n for n, d in CORPUS.items() if "strata" in d))
    def test_corpus(self, name):
        assert_same_as_walk(from_json(CORPUS[name]["strata"]))

    def test_levels_as_generators(self):
        rng = random.Random(2)
        for _ in range(100):
            strata = random_strata(rng)
            want = build_dual_complex_walk_reference(strata)
            assert build_dual_complex(iter(strata)) == want
            assert build_dual_complex(iter(level) for level in strata) == want
            assert build_dual_complex(list(map(list, strata))) == want

    def test_empty_levels(self):
        cases = [(), ((),), ((), ()), ((), (Stratum("E", (0, 1), ("A", "B")),))]
        for strata in structured_strata():
            cases += [strata + ((),), strata + ((), ()), ((),) + strata, strata[:1] + ((),) + strata[1:]]
        for levels in cases:
            want = assert_same_as_walk(levels)
            assert outcome(build_dual_complex, (iter(level) for level in levels)) == want
        assert build_dual_complex(((), ())).counts == (0, 0)

    def test_index_sets_of_other_types(self):
        """Index sets are read as tuples, whatever their sequence type:
        lists throughout, or beside tuples, give the complex or the fault
        that the walk finds in the all-tuple description."""
        def listed(strata, levels):
            return [[(s.ident, list(s.indices), s.facets) for s in level] if r in levels else list(level)
                    for r, level in enumerate(strata)]

        triangle = simplex_strata((0, 1, 2))
        assert build_dual_complex(listed(triangle, {2})) == build_dual_complex_walk_reference(triangle)
        rng = random.Random(3)
        kinds = sorted(MUTANT_MESSAGES)
        for _ in range(200):
            strata = random_strata(rng)
            kind = rng.choice(kinds)
            if rng.random() < 0.5 and len(strata) >= MIN_LEVELS.get(kind, 2):
                strata = _mutant(kind, rng, strata)
            want = outcome(build_dual_complex_walk_reference, strata)
            assert outcome(build_dual_complex, listed(strata, range(len(strata)))) == want
            r = rng.randrange(len(strata))
            assert outcome(build_dual_complex, listed(strata, {r})) == want
            assert outcome(build_dual_complex, (iter(level) for level in listed(strata, {r}))) == want

    @pytest.mark.parametrize("unordered", [lambda idx: "".join(map(str, idx)), bytes, dict.fromkeys, set, frozenset])
    def test_index_sets_without_an_order_are_refused(self, unordered):
        """A str, bytes, dict or set iterates as characters, keys or in no
        fixed order: as an index set beside tuples, at any level, it raises
        ``TypeError`` and is not read as a tuple."""
        for r in range(3):
            levels = [list(level) for level in simplex_strata((0, 1, 2))]
            levels[r][-1] = levels[r][-1]._replace(indices=unordered(levels[r][-1].indices))
            with pytest.raises(TypeError, match="^an index set must be a sequence of indices, got a "):
                build_dual_complex(levels)

    @pytest.mark.parametrize("faults", [2, 3])
    def test_stacked_faults_keep_the_first(self, faults):
        """Two or three faults per description, of any kinds and levels:
        the level build raises the fault the walk meets first."""
        rng = random.Random(faults)
        kinds = sorted(MUTANT_MESSAGES)
        messages = set()
        for _ in range(600):
            strata = random_strata(rng)
            for _ in range(faults):
                kind = rng.choice(kinds)
                if len(strata) >= MIN_LEVELS.get(kind, 2):
                    try:
                        strata = _mutant(kind, rng, strata)
                    except (IndexError, KeyError, ValueError):
                        pass  # an earlier fault removed what this one needs
            want = assert_same_as_walk(strata)
            if isinstance(want, str):
                messages.update(m for m in FAULTS if m in want)
        assert len(messages) >= 7

    def test_ids_repeated_from_lower_levels_are_refused(self):
        """A stratum that takes the id of a stratum one or more levels down
        is a duplicate; the walk of its level knows the ids below it."""
        rng = random.Random(9)
        for _ in range(100):
            strata = random_strata(rng)
            if len(strata) < 2:
                continue
            r = rng.randrange(1, len(strata))
            k = rng.randrange(len(strata[r]))
            lower = rng.choice([s.ident for level in strata[:r] for s in level])
            mutant = _replace_at(strata, r, k, strata[r][k]._replace(ident=lower))
            assert assert_same_as_walk(mutant) == f"StrataError: duplicate stratum id {lower!r}"

    def test_reversed_edges_are_refused(self):
        """An edge listed as ``(b, a)`` with its facets swapped to match
        passes every facet check; only the order check refuses it."""
        rng = random.Random(7)
        for _ in range(100):
            strata = random_strata(rng)
            if len(strata) < 2:
                continue
            k = rng.randrange(len(strata[1]))
            s = strata[1][k]
            mutant = strata[:1] + (strata[1][:k] + (s._replace(indices=s.indices[::-1], facets=s.facets[::-1]),)
                                   + strata[1][k + 1:],) + strata[2:]
            assert assert_same_as_walk(mutant) == f"StrataError: index set of {s.ident!r} must be strictly increasing"

    def test_level_zero_facets(self):
        strata = ((Stratum("A", (0,), ("B",)), Stratum("B", (1,))),)
        for build in (build_dual_complex, build_dual_complex_walk_reference, build_dual_complex_reference):
            with pytest.raises(StrataError, match=r"^stratum 'A' must list 0 facets$"):
                build(strata)
        with pytest.raises(StrataError, match=r"^stratum 'E' must list 2 facets$"):
            build_dual_complex((strata[0][1:], (Stratum("E", (0, 1), ("B",)),)))

    def test_level_zero_facets_from_a_file(self, tmp_path, capsys):
        path = tmp_path / "facets.json"
        path.write_text(json.dumps({"name": "facets", "strata": {"levels": [
            [{"id": "A", "indices": [0], "facets": ["B"]}, {"id": "B", "indices": [1]}]]}}))
        assert main(["dual-complex", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: stratum 'A' must list 0 facets\n"


@pytest.fixture
def counted(monkeypatch):
    """Calls of the codimension-2 comparison and of the one-stratum walk of
    a failed level."""
    calls = {"routes": 0, "fault": 0}

    def routes(*args, agree=dual_complex._routes_agree):
        calls["routes"] += 1
        return agree(*args)

    def fault(*args, fault=dual_complex._fault):
        calls["fault"] += 1
        fault(*args)

    monkeypatch.setattr(dual_complex, "_routes_agree", routes)
    monkeypatch.setattr(dual_complex, "_fault", fault)
    return calls


class TestCounts:
    def test_distinct_index_sets_skip_the_codimension_two_comparison(self, counted):
        for strata in structured_strata():
            build_dual_complex(strata)
        for name, data in CORPUS.items():
            if "strata" in data:
                build_dual_complex(from_json(data["strata"]))
        assert counted == {"routes": 0, "fault": 0}

    def test_parallel_copies_two_levels_down_are_compared(self, counted):
        # A second edge on {0, 1}, with its own triangles on {0, 1, 2} and
        # {0, 1, 3} and tetrahedron: level 1 repeats an index set.
        full = simplex_strata((0, 1, 2, 3))
        ids = {s.ident: s for level in full for s in level}
        edge, tet = ids["Z01"], ids["Z0123"]
        levels = [list(level) for level in full]
        levels[1].append(edge._replace(ident="Z01x"))
        for ident in ("Z012", "Z013"):
            s = ids[ident]
            levels[2].append(s._replace(ident=ident + "x", facets=s.facets[:2] + ("Z01x",)))
        levels[3].append(tet._replace(ident="Z0123x", facets=tet.facets[:2] + ("Z013x", "Z012x")))
        assert homology(build_dual_complex(levels)).betti == (1, 0, 0, 0)
        assert counted == {"routes": 1, "fault": 0}

    def test_parallel_copies_one_level_down_are_not_compared(self, counted):
        # A second triangle on {0, 1, 2} with its own tetrahedron: level 2
        # repeats an index set, level 1 does not.
        levels = [list(level) for level in simplex_strata((0, 1, 2, 3))]
        tri, tet = levels[2][0], levels[3][0]
        assert (tri.ident, tet.ident) == ("Z012", "Z0123")
        levels[2].append(tri._replace(ident="Z012x"))
        levels[3].append(tet._replace(ident="Z0123x", facets=tet.facets[:3] + ("Z012x",)))
        assert homology(build_dual_complex(levels)).betti == (1, 0, 0, 0)
        assert counted == {"routes": 0, "fault": 0}

    def test_inconsistent_routes_are_caught(self, counted):
        rng = random.Random(4)
        tried = 0
        while tried < 20:
            strata = random_strata(rng)
            if len(strata) < 4:
                continue
            counted.update(routes=0, fault=0)
            mutant = _inconsistent(rng, strata)
            want = outcome(build_dual_complex_walk_reference, mutant)
            assert want.startswith("StrataError: inconsistent facets of ")
            assert outcome(build_dual_complex, mutant) == want
            assert counted["routes"] >= 1 and counted["fault"] == 1
            tried += 1


class TestChainIdentity:
    """``B_(r-1) B_r = 0`` is checked once per degree, on complexes built
    directly, as they are made; built and closed complexes keep it and are
    not checked."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []

        def check(cx, r, check=dual_complex._check_chain):
            calls.append(r)
            check(cx, r)

        monkeypatch.setattr(dual_complex, "_check_chain", check)
        return calls

    def test_a_direct_complex_that_breaks_it_raises(self, checks):
        with pytest.raises(StrataError, match=r"^facet maps of the 2-simplex 't' break B_1 B_2 = 0$"):
            DeltaComplex((("u", "v"), ("e",), ("t",)), (((0, 1),), ((0, 0, 0),)))
        assert checks == [2]

    def test_direct_complexes_are_checked_once_per_degree(self, checks):
        rng = random.Random(5)
        sphere = build_dual_complex(simplex_strata((0, 1, 2, 3), full=False))
        once = suspension(sphere)
        assert checks == [2, 3]
        twice = suspension(once)
        assert checks == [2, 3, 2, 3, 4]
        assert homology(twice).betti == (1, 0, 0, 0, 1)
        homology(twice)
        cochain.cohomology_group(twice, cochain.CoefficientGroup(torsion=(6,)))
        assert checks == [2, 3, 2, 3, 4]
        for _ in range(50):
            homology(one_vertex_complex(rng))
        assert checks == [2, 3, 2, 3, 4] + [2] * 50

    def test_built_and_closed_complexes_are_not_checked(self, checks):
        rng = random.Random(6)
        for _ in range(100):
            cx = build_dual_complex(random_strata(rng))
            homology(cx)
            r = cx.dimension
            sub, _ = cx.closure(r, rng.randrange(cx.count(r)))
            homology(sub)
        assert checks == []
        direct = suspension(build_dual_complex(simplex_strata((0, 1, 2))))
        homology(direct.closure(3, 0)[0])
        assert checks == [2, 3]
