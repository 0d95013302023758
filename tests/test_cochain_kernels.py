"""The per-coordinate cochain kernels against the per-element walks kept in
``oracles``: reduced values and the error for a bad element, coboundaries,
sums and differences, closedness verdicts and witnesses, and exactness
verdicts and potentials.  They run over the groups of ``test_exactness``
and a group of width 0, on the random complexes of ``conftest`` and on
complexes without edges."""

import pytest

from conftest import random_multigraph, random_strata
from fiberext.cochain import Cochain, CoefficientGroup, coboundary, is_closed, is_exact
from fiberext.dual_complex import build_dual_complex, simplex_strata, strata_from_multigraph
from oracles import cochain_values_reference, coboundary_reference, is_closed_reference
from test_exactness import GROUPS, check_verdict, one_vertex_complex, random_element

KERNEL_GROUPS = GROUPS + (CoefficientGroup(),)  # and Z^0, of width 0


def unreduced(rng, group):
    """A random element as the loader hands it over, a list, with each
    torsion coordinate moved by a multiple of its order."""
    vec = list(random_element(rng, group))
    for p, n in enumerate(group.torsion, group.rank):
        vec[p] += n * rng.randint(-3, 3)
    return vec


def bumped(rng, phi, times):
    """``phi`` with ``times`` random edges moved in one random coordinate
    each, by an amount that is not zero in that coordinate."""
    group, values = phi.group, [list(v) for v in phi.values]
    orders = (0,) * group.rank + group.torsion
    for _ in range(times if values and group.width else 0):
        e, p = rng.randrange(len(values)), rng.randrange(group.width)
        values[e][p] += rng.randint(1, orders[p] - 1) if orders[p] else rng.choice((-2, -1, 1, 3))
    return Cochain(phi.complex, group, 1, values)


def outcome(f, *args):
    """What ``f(*args)`` gives: ``("value", result)`` or the type and text of its error."""
    try:
        return "value", f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def check_kernels(rng, cx):
    """Every kernel on random cochains of ``cx`` over every group; returns
    the closedness verdicts."""
    verdicts = []
    n_v, n_e = cx.count(0), cx.count(1)
    for group in KERNEL_GROUPS:
        for degree in range(min(cx.dimension, 2) + 1):
            values = [unreduced(rng, group) for _ in range(cx.count(degree))]
            assert Cochain(cx, group, degree, values).values == cochain_values_reference(cx, group, degree, values)
        beta = Cochain(cx, group, 0, [unreduced(rng, group) for _ in range(n_v)])
        exact = coboundary(beta)
        assert exact.values == coboundary_reference(beta)
        noise = Cochain(cx, group, 1, [unreduced(rng, group) for _ in range(n_e)])
        for a, b in ((exact, noise), (noise, exact)):
            assert (a + b).values == tuple(map(group.add, a.values, b.values))
            assert (a - b).values == tuple(map(group.sub, a.values, b.values))
        assert (noise - noise).is_zero() and noise.is_zero() == all(map(group.is_zero, noise.values))
        for phi in (exact, noise, bumped(rng, exact, 1), bumped(rng, exact, 3)):
            result = is_closed(phi)
            assert (result.closed, result.witness) == is_closed_reference(phi)
            verdicts.append(result.closed)
            if result:
                check_verdict(phi)
                if not group.width:
                    assert is_exact(phi).values == ((),) * n_v
    return verdicts


class TestKernelsMatchThePerElementWalks:
    def test_random_strata(self, rng):
        verdicts = []
        for _ in range(300):
            verdicts += check_kernels(rng, build_dual_complex(random_strata(rng)))
        assert True in verdicts and False in verdicts

    def test_random_multigraphs(self, rng):
        for _ in range(200):
            assert all(check_kernels(rng, random_multigraph(rng)))

    def test_one_vertex_complexes(self, rng):
        verdicts = []
        for _ in range(200):
            verdicts += check_kernels(rng, one_vertex_complex(rng))
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_simplex_boundaries(self, rng, k):
        for _ in range(10):
            check_kernels(rng, build_dual_complex(simplex_strata(tuple(range(k)), full=False)))

    @pytest.mark.parametrize("n_vertices", [0, 1, 4])
    def test_complexes_without_edges(self, rng, n_vertices):
        """A first version of the kernels gave potentials of the wrong width here."""
        cx = build_dual_complex(strata_from_multigraph(n_vertices, []))
        check_kernels(rng, cx)
        for group in KERNEL_GROUPS:
            assert is_exact(Cochain(cx, group, 1, ())).values == (group.zero(),) * n_vertices


def assert_same_as_public(phi):
    """A kernel's result, built without ``Cochain``'s checks, equals the
    cochain the public constructor makes of its values, as lists."""
    public = Cochain(phi.complex, phi.group, phi.degree, [list(v) for v in phi.values])
    assert type(phi.values) is tuple and all(type(v) is tuple for v in phi.values)
    assert phi.values == public.values
    assert phi == public and hash(phi) == hash(public) and repr(phi) == repr(public)


GENERATORS = {
    "random_strata": lambda rng: build_dual_complex(random_strata(rng)),
    "random_multigraph": random_multigraph,
    "one_vertex_complex": one_vertex_complex,
    "simplex_boundary": lambda rng: build_dual_complex(simplex_strata(tuple(range(rng.randint(3, 6))), full=False)),
    "no_edges": lambda rng: build_dual_complex(strata_from_multigraph(rng.randint(0, 4), [])),
}


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_kernel_results_match_the_public_constructor(rng, generator):
    """Coboundaries, sums, differences and potentials set their fields
    directly; they must be the cochains ``Cochain(...)`` would build."""
    for _ in range(60):
        cx = GENERATORS[generator](rng)
        for group in KERNEL_GROUPS:
            beta = Cochain(cx, group, 0, [unreduced(rng, group) for _ in range(cx.count(0))])
            exact = coboundary(beta)
            noise = Cochain(cx, group, 1, [unreduced(rng, group) for _ in range(cx.count(1))])
            for phi in (exact, exact + noise, exact - noise, noise - exact, noise + noise, is_exact(exact)):
                assert_same_as_public(phi)


BAD_ELEMENTS = [1.0, True, "1", None, 2**70 + 0.5]


def bad_values(rng, group, count):
    """Random values with one to three faults: a bad coordinate, a wrong
    width, an element that is no sequence, or a string or dict for one."""
    values = [unreduced(rng, group) for _ in range(count)]
    for _ in range(rng.randint(1, 3)):
        if not values:
            break
        e, kind = rng.randrange(len(values)), rng.randrange(6)
        if type(values[e]) is not list:  # already made no sequence of ints
            continue
        if kind == 0 and group.width:
            values[e][rng.randrange(group.width)] = rng.choice(BAD_ELEMENTS)
        elif kind == 1:
            values[e] = values[e] + [0]
        elif kind == 2 and group.width:
            values[e] = values[e][1:]
        elif kind == 3:
            values[e] = rng.choice((5, None, 2.5))
        elif kind == 4:
            values[e] = rng.choice(("12", "", {}, {"a": 1}, tuple(values[e])))
        else:
            del values[e]
    return values


def test_bad_elements_give_the_per_element_error(rng):
    """The bulk checks fall back to ``group.reduce`` value by value, so the
    first fault is reported as it was, and a wrong count after that."""
    seen = set()
    for _ in range(400):
        cx = random_multigraph(rng)
        group = rng.choice(KERNEL_GROUPS)
        values = bad_values(rng, group, cx.count(1))
        want = outcome(cochain_values_reference, cx, group, 1, values)
        got = outcome(Cochain, cx, group, 1, values)
        assert got[0] == want[0]
        assert (got[1].values if got[0] == "value" else got[1]) == want[1]
        seen.add(want[0])
    assert seen == {"value", "TypeError", "ValueError"}
