"""Seeded benchmark inputs for fiberext, each with an answer known by construction.

``build(workload, seed, workdir)`` writes scenario files under ``workdir`` and
returns the list of operations of one pass.  Each operation is a dict with

- ``kind``: the subcommand (and mode) used for per-kind trace breakdowns;
- ``argv``: the arguments handed to ``fiberext.cli.main``;
- ``expect``: the expected exit code and what the ``--format machine``
  output must satisfy.

``check(op, code, stdout)`` compares one output with its expectation.  No
expected answer here comes from calling fiberext: every one is a closed form
of how the input was built, or is certified in this module's own integer
and rational arithmetic.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction
from math import lcm

WORKLOADS = ("lattice-ladder", "complex-ladder", "torsion-ladder", "scenario-mix")

# The op_tail_ms percentile of each workload, taken over its inputs' best
# times.  Each leaves at least two inputs, and so at least ten calls, beyond
# it in a 25-second run at the seed commit.  It is fixed, not chosen per run,
# so that a faster program, which makes more calls, is compared at the same
# percentile.
TAIL_PERCENTILE = {"lattice-ladder": 80, "complex-ladder": 90, "torsion-ladder": 90,
                   "scenario-mix": 95}

EXIT_OK, EXIT_INPUT, EXIT_OBSTRUCTED = 0, 1, 2


class _Writer:
    """Writes scenario files and collects the operations of one pass."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ops: list[dict] = []
        self.files: dict[str, dict] = {}
        os.makedirs(workdir, exist_ok=True)

    def write(self, data, text: str | None = None) -> str:
        path = os.path.join(self.workdir, f"{len(self.files):04d}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(data) if text is None else text)
        self.files[path] = data
        return path

    def op(self, kind, subcommand, data, expect, extra=()) -> dict:
        path = self.write(data)
        op = {"kind": kind, "argv": [subcommand, path, "--format", "machine", *extra],
              "expect": expect}
        self.ops.append(op)
        return op


# ---------------------------------------------------------------------------
# Fiber lattices: Kodaira cycles I_n and their blow-ups
# ---------------------------------------------------------------------------

def cycle_matrix(n: int) -> list[list[int]]:
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = -2
        j = (i + 1) % n
        mat[i][j] += 1
        mat[j][i] += 1
    return mat


def blown_up_cycle(rng: random.Random, n: int, size: int):
    """Blow up points of I_n until it has ``size`` components.

    A general point of C_i gives a (-1)-curve of multiplicity c_i; a node
    C_i . C_j gives one of multiplicity c_i + c_j.  Both moves keep the
    fiber class in the kernel and the component group equal to Z/n.
    Component 0 keeps multiplicity 1, so the gauge-reduced lattice has
    cokernel Z/n and denominator bound n.
    """
    mat = cycle_matrix(n)
    mult = [1] * n
    while len(mult) < size:
        k = len(mult)
        nodes = [(i, j) for i in range(k) for j in range(i + 1, k) if mat[i][j] >= 1]
        for row in mat:
            row.append(0)
        new = [0] * (k + 1)
        new[k] = -1
        if nodes and rng.random() < 0.5:
            i, j = rng.choice(nodes)
            mat[i][i] -= 1
            mat[j][j] -= 1
            mat[i][j] -= 1
            mat[j][i] -= 1
            for c in (i, j):
                mat[c][k] += 1
                new[c] += 1
            mult.append(mult[i] + mult[j])
        else:
            i = rng.randrange(k)
            mat[i][i] -= 1
            mat[i][k] += 1
            new[i] += 1
            mult.append(mult[i])
        mat.append(new)
    return mat, mult


def orthogonal_trace(rng: random.Random, mult) -> list[int]:
    """Integer trace v with sum c_i v_i = 0."""
    n = len(mult)
    vals = [0] * n
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        vals[i] += k * mult[j]
        vals[j] -= k * mult[i]
    if not any(vals):
        vals[0], vals[1] = mult[1], -mult[0]
    return vals


def nef_targets(rng: random.Random, mult, vals) -> list[Fraction]:
    """Nonnegative rational targets d with sum c_i d_i = sum c_i v_i > 0."""
    total = sum(c * v for c, v in zip(mult, vals))
    picks = rng.sample(range(len(mult)), min(3, len(mult)))
    weights = [rng.randint(1, 4) for _ in picks]
    d = [Fraction(0)] * len(mult)
    for i, w in zip(picks, weights):
        d[i] += Fraction(total * w, mult[i] * sum(weights))
    return d


def _positive_total_trace(rng: random.Random, mult) -> list[int]:
    vals = [rng.randint(-3, 3) for _ in mult]
    total = sum(c * v for c, v in zip(mult, vals))
    if total <= 0:
        vals[0] += 1 - total  # mult[0] == 1
    return vals


def _lattice_data(mat, mult, vals):
    n = len(mult)
    return {
        "name": f"fiber-{n}",
        "lattice": {"labels": [f"C{i}" for i in range(n)], "matrix": mat,
                    "multiplicities": mult},
        "trace": {"values": vals},
    }


def _extend_op(w, mat, mult, vals, mode, group_order, targets=None):
    """An extend op whose answer is certified by recomputing M a = rhs."""
    data = _lattice_data(mat, mult, vals)
    extra = ["--mode", mode]
    if mode == "nef" and targets is not None:
        extra += ["--targets", ",".join(str(t) for t in targets)]
    if mode == "trivial":
        rhs_target = [Fraction(0)] * len(mult)
    elif targets is not None:
        rhs_target = list(targets)
    else:  # nef without targets: the whole total sits on component 0
        total = sum(c * v for c, v in zip(mult, vals))
        rhs_target = [Fraction(total)] + [Fraction(0)] * (len(mult) - 1)
    expect = {"exit": EXIT_OK, "check": "extension", "matrix": mat, "trace": vals,
              "target": [str(t) for t in rhs_target], "mode": mode,
              "group_order": group_order}
    return w.op(f"extend-{mode}", "extend", data, expect, extra)


def _obstructed_extend_op(w, mat, mult, vals, mode):
    total = sum(c * v for c, v in zip(mult, vals))
    expect = {"exit": EXIT_OBSTRUCTED, "check": "payload",
              "payload": {"obstructed": True, "value": str(Fraction(total))}, "subset": True}
    return w.op(f"extend-{mode}-obstructed", "extend", _lattice_data(mat, mult, vals), expect,
                ["--mode", mode])


# ---------------------------------------------------------------------------
# Dual complexes: connected multigraphs and simplex boundaries
# ---------------------------------------------------------------------------

def multigraph(rng: random.Random, n_vertices: int, n_edges: int, loops=False):
    """Connected multigraph: a random spanning tree plus random extra edges.

    Returns ``(edges, tree)``; ``tree`` is the set of spanning-tree edge
    positions, so every other edge closes an independent cycle.
    """
    edges = [(rng.randrange(v), v) for v in range(1, n_vertices)]
    while len(edges) < n_edges:
        if loops and rng.random() < 0.2:
            a = rng.randrange(n_vertices)
            edges.append((a, a))
        elif n_vertices >= 2:
            a, b = rng.sample(range(n_vertices), 2)
            edges.append((min(a, b), max(a, b)))
        else:
            edges.append((0, 0))
    order = list(range(len(edges)))
    rng.shuffle(order)
    tree = {pos for pos, old in enumerate(order) if old < n_vertices - 1}
    return [edges[old] for old in order], tree


def graph_strata(n_vertices: int, edges):
    verts = [{"id": f"W{i}", "indices": [i]} for i in range(n_vertices)]
    levels = [verts]
    if edges:
        levels.append([{"id": f"E{k}", "indices": [a, b], "facets": [f"W{b}", f"W{a}"]}
                       for k, (a, b) in enumerate(edges)])
    return {"levels": levels}


def _simplex_id(sub) -> str:
    return "Z" + "_".join(str(i) for i in sub)


def simplex_boundary(k: int):
    """Strata of k components in general position without the top stratum.

    The dual complex is the boundary of a (k-1)-simplex, a (k-2)-sphere.
    """
    levels = []
    for r in range(k - 1):
        level = []
        for sub in itertools.combinations(range(k), r + 1):
            s = {"id": _simplex_id(sub), "indices": list(sub)}
            if r:
                s["facets"] = [_simplex_id(sub[:i] + sub[i + 1:]) for i in range(r + 1)]
            level.append(s)
        levels.append(level)
    return {"levels": levels}


def sphere_profile(k: int) -> dict:
    dim = k - 2
    counts = [len(list(itertools.combinations(range(k), r + 1))) for r in range(dim + 1)]
    betti = [1] + [0] * dim
    betti[dim] += 1
    return {"simplex_counts": counts, "betti": betti, "torsion": [[] for _ in counts],
            "torus_rank": betti[1] if dim >= 1 else 0,
            "euler_characteristic": 1 + (-1) ** dim}


def graph_profile(n_vertices: int, n_edges: int) -> dict:
    b1 = n_edges - n_vertices + 1
    counts = [n_vertices, n_edges] if n_edges else [n_vertices]
    return {"simplex_counts": counts, "betti": [1, b1][:len(counts)],
            "torsion": [[] for _ in counts], "torus_rank": b1 if n_edges else 0,
            "euler_characteristic": n_vertices - n_edges}


def _dual_complex_op(w, strata, profile):
    expect = {"exit": EXIT_OK, "check": "payload", "payload": profile}
    return w.op("dual-complex", "dual-complex", {"name": "complex", "strata": strata}, expect)


# ---------------------------------------------------------------------------
# Gluing cochains with coefficients in A = Z^rank + Z/order
# ---------------------------------------------------------------------------

def _group_reduce(group, vec):
    rank = group.get("rank", 0)
    return [x if i < rank else x % group["torsion"][i - rank] for i, x in enumerate(vec)]


def _group_random(rng, group, nonzero=False):
    rank = group.get("rank", 0)
    while True:
        vec = [rng.randint(-9, 9) for _ in range(rank)]
        vec += [rng.randrange(n) for n in group.get("torsion", [])]
        if not nonzero or any(vec):
            return vec


def _coboundary(group, beta, edges):
    """Edge between components l < j receives beta(l) - beta(j)."""
    return [_group_reduce(group, [x - y for x, y in zip(beta[a], beta[b])]) for a, b in edges]


def _h1_expectation(group, b1, exact):
    torsion = group.get("torsion", [])
    if len(torsion) > 1:
        raise ValueError("expected answers cover one cyclic factor")
    return {"closed": True, "exact": exact, "class_trivial": exact,
            "h1_rank": group.get("rank", 0) * b1, "h1_torsion": torsion * b1}


def _graph_cochain_op(w, rng, n_vertices, edges, tree, group, exact):
    """Exact: the coboundary of a random 0-cochain.  Not exact: add a nonzero
    element on one edge outside the spanning tree, so the sum around that
    edge's fundamental cycle is nonzero."""
    beta = [_group_random(rng, group) for _ in range(n_vertices)]
    values = _coboundary(group, beta, edges)
    if not exact:
        e = rng.choice([k for k in range(len(edges)) if k not in tree])
        bump = _group_random(rng, group, nonzero=True)
        values[e] = _group_reduce(group, [x + y for x, y in zip(values[e], bump)])
    b1 = len(edges) - n_vertices + 1
    payload = _h1_expectation(group, b1, exact)
    expect = {"exit": EXIT_OK, "check": "cochain", "payload": payload, "group": group,
              "edges": edges, "values": values}
    data = {"name": "cochain", "strata": graph_strata(n_vertices, edges),
            "cochain": {"group": group, "edge_values": values}}
    return w.op("cochain", "cochain", data, expect)


def _sphere_cochain_op(w, rng, k, group, closed):
    """On the (k-2)-sphere (k >= 4) H^1 vanishes, so a closed cochain is exact.
    A non-closed one is a coboundary plus a nonzero bump on one edge; the
    witness is the first triangle whose cocycle sum is nonzero."""
    strata = simplex_boundary(k)
    edge_ids = [s["indices"] for s in strata["levels"][1]]
    beta = [_group_random(rng, group) for _ in range(k)]
    values = _coboundary(group, beta, edge_ids)
    if not closed:
        e = rng.randrange(len(edge_ids))
        bump = _group_random(rng, group, nonzero=True)
        values[e] = _group_reduce(group, [x + y for x, y in zip(values[e], bump)])
    data = {"name": "sphere-cochain", "strata": strata,
            "cochain": {"group": group, "edge_values": values}}
    if closed:
        expect = {"exit": EXIT_OK, "check": "cochain", "payload": _h1_expectation(group, 0, True),
                  "group": group, "edges": edge_ids, "values": values}
    else:
        position = {tuple(ab): i for i, ab in enumerate(edge_ids)}
        witness = None
        for tri in strata["levels"][2]:
            i, j, l = tri["indices"]
            s = [x + y - z for x, y, z in zip(values[position[(i, j)]], values[position[(j, l)]],
                                              values[position[(i, l)]])]
            if any(_group_reduce(group, s)):
                witness = tri["id"]
                break
        expect = {"exit": EXIT_OBSTRUCTED, "check": "payload",
                  "payload": {"closed": False, "witness": witness}}
    return w.op("cochain", "cochain", data, expect)


# ---------------------------------------------------------------------------
# Pic^0 types and extension obstructions
# ---------------------------------------------------------------------------

def _semi_abelian(t, a):
    if t == 0:
        label = "abelian variety"
    elif a == 0:
        label = "torus"
    else:
        label = "semi-abelian"
    return {"torus_rank": t, "abelian_dim": a, "proper": t == 0, "label": label}


def _curve_fiber(rng):
    n = rng.randint(1, 6)
    edges, _ = multigraph(rng, n, n - 1 + rng.randint(0, 3), loops=True)
    genera = [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)]
    kind = _semi_abelian(len(edges) - n + 1, sum(genera))
    return {"genera": genera, "edges": [list(e) for e in edges]}, kind


def _pic0_curves_op(w, rng, semistable=True):
    fibers, payload = {}, {}
    for i in range(rng.randint(2, 3)):
        fibers[f"F{i}"], payload[f"F{i}"] = _curve_fiber(rng)
    data = {"name": "curve-fibers", "curve_fibers": fibers}
    if semistable:
        return w.op("pic0", "pic0", data, {"exit": EXIT_OK, "check": "payload", "payload": payload})
    fibers[f"F{rng.randrange(len(fibers))}"]["nodal"] = False
    expect = {"exit": EXIT_OBSTRUCTED, "check": "payload",
              "payload": {"error": "NotSemistable"}, "subset": True}
    return w.op("pic0", "pic0", data, expect)


def _pic0_snc_op(w, rng, i):
    if i % 2:
        n = 2 + i % 5
        edges, _ = multigraph(rng, n, n - 1 + i % 4)
        strata, t = graph_strata(n, edges), len(edges) - n + 1
    else:
        k = 3 + i % 3
        strata, t = simplex_boundary(k), sphere_profile(k)["torus_rank"]
    a = rng.randint(0, 2)
    data = {"name": "snc-fiber", "strata": strata, "h1_structure": t + a}
    return w.op("pic0", "pic0", data,
                {"exit": EXIT_OK, "check": "payload", "payload": {"snc": _semi_abelian(t, a)}})


_OBSTRUCTION_CASES = ("obstructed", "constant", "torsion-only", "improper-base")


def _obstruction_op(w, rng, case):
    group = rng.choice([{"rank": 1}, {"rank": 2}, {"rank": 1, "torsion": [rng.choice([2, 3, 5])]}])
    if case == "torsion-only" and not group.get("torsion"):
        group = {"rank": 1, "torsion": [rng.choice([2, 3, 5])]}
    base = _group_random(rng, group)
    n_points = rng.randint(2, 5)
    values = [list(base) for _ in range(n_points)]
    rank = group.get("rank", 0)
    if case in ("obstructed", "improper-base"):
        p = rng.randrange(1, n_points)
        values[p][rng.randrange(rank)] += rng.choice([-2, -1, 1, 2])
    elif case == "torsion-only":
        p = rng.randrange(1, n_points)
        values[p][rank] = (values[p][rank] + 1) % group["torsion"][0]
    labels = [f"P{i}" for i in range(n_points)]
    points = [{"label": lab, "torus_rank": rng.randint(1, 3), "abelian_dim": 0, "value": v}
              for lab, v in zip(labels, values)]
    data = {"name": "obstruction", "obstruction": {"proper": case != "improper-base",
                                                   "group": group, "points": points}}
    if case == "obstructed":
        # The first pair, in input order, whose free parts differ.
        i, j = next((i, j) for i in range(n_points) for j in range(i + 1, n_points)
                    if values[i][:rank] != values[j][:rank])
        payload = {"obstructed": True, "witnesses": [labels[i], labels[j]],
                   "values": [values[i], values[j]]}
        expect = {"exit": EXIT_OBSTRUCTED, "check": "payload", "payload": payload, "subset": True}
    else:
        expect = {"exit": EXIT_OK, "check": "payload", "payload": {"obstructed": False},
                  "subset": True}
    return w.op("obstruction", "obstruction", data, expect)


def _corpus_op(w, name, ops):
    expect = {"exit": EXIT_OK, "check": "corpus", "name": name, "ops": ops}
    w.ops.append({"kind": "corpus", "argv": ["corpus", "run", name, "--format", "machine"],
                  "expect": expect})


def bundled_corpus(root: str) -> dict[str, list[str]]:
    """Names of the bundled scenarios with the ops each one expects, read as
    plain JSON from the source tree."""
    folder = os.path.join(root, "src", "fiberext", "scenarios")
    out = {}
    for fname in sorted(os.listdir(folder)):
        if fname.endswith(".json"):
            with open(os.path.join(folder, fname)) as fh:
                out[fname[:-5]] = [e["op"] for e in json.load(fh).get("expect", [])]
    return out


# ---------------------------------------------------------------------------
# Malformed mutations (expected: exit 1, no exception)
# ---------------------------------------------------------------------------

MUTATIONS = ("top-level-list", "null-field", "wrong-type", "zero-denominator",
             "missing-name", "float-literal", "truncated-json")

# The list-valued field each scenario kind cannot do without.
_KEY_FIELD = {
    "extend": ("lattice", "labels"),
    "dual-complex": ("strata", "levels"),
    "cochain": ("strata", "levels"),
    "obstruction": ("obstruction", "points"),
}


def _mutate(rng, kind, data, mutation):
    """Return the mutated file text."""
    data = json.loads(json.dumps(data))
    if mutation == "top-level-list":
        return json.dumps([data])
    if mutation == "missing-name":
        del data["name"]
        return json.dumps(data)
    if mutation == "truncated-json":
        text = json.dumps(data)
        return text[: len(text) // 2]
    if mutation == "zero-denominator":
        vals = data["trace"]["values"]
        vals[rng.randrange(len(vals))] = "1/0"
        return json.dumps(data)
    if mutation == "float-literal":
        text = json.dumps(data)
        return text[:-1] + ', "weight": 0.5}'
    if kind == "pic0":
        section, key = data["curve_fibers"][rng.choice(sorted(data["curve_fibers"]))], "genera"
    else:
        outer, key = _KEY_FIELD[kind]
        section = data[outer]
    section[key] = None if mutation == "null-field" else 7
    return json.dumps(data)


def _malformed_ops(w, rng, sources, per_type):
    """``per_type`` mutations of each type.  Zero denominators go into
    extend traces; the others into a file of any kind."""
    for mutation in MUTATIONS:
        for _ in range(per_type):
            pool = [s for s in sources if mutation != "zero-denominator" or s["kind"].startswith("extend")]
            src = rng.choice(pool)
            path = src["argv"][1]
            kind = src["kind"].split("-")[0] if src["kind"].startswith("extend") else src["kind"]
            text = _mutate(rng, kind, w.files[path], mutation)
            new_path = w.write(None, text)
            argv = [src["argv"][0], new_path] + src["argv"][2:]
            w.ops.append({"kind": "malformed", "argv": argv, "mutation": mutation,
                          "expect": {"exit": EXIT_INPUT, "check": "none"}})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Rung sizes are fixed; the seed picks traces, targets, blow-up moves, graph
# edges and coefficient values.  Fixed sizes keep one pass's cost close to
# the same on every seed, and a pass of about half a second gives each input
# dozens of calls in a 25-second run.
LATTICE_CYCLES = (4, 6, 8, 10, 12, 14, 16, 18)
LATTICE_BLOWUPS = ((3, 8), (4, 12), (6, 16))
GRAPH_RUNGS = ((6, {"rank": 1, "torsion": [4]}), (12, {"torsion": [6]}), (18, {"rank": 1}),
               (24, {"rank": 1, "torsion": [4]}), (30, {"torsion": [6]}), (36, {"rank": 1}))
SPHERE_RUNGS = (4, 5, 6, 7)
TORSION_EXPONENTS = (8, 9, 10, 11)


def lattice_ladder(w, rng):
    """extend in trivial mode and in nef mode with targets on I_n, plus
    trivial mode on blow-ups of I_n."""
    for n in LATTICE_CYCLES:
        mat, mult = cycle_matrix(n), [1] * n
        _extend_op(w, mat, mult, orthogonal_trace(rng, mult), "trivial", n)
        vals = _positive_total_trace(rng, mult)
        _extend_op(w, mat, mult, vals, "nef", n, nef_targets(rng, mult, vals))
    for n, size in LATTICE_BLOWUPS:
        mat, mult = blown_up_cycle(rng, n, size)
        _extend_op(w, mat, mult, orthogonal_trace(rng, mult), "trivial", n)


def complex_ladder(w, rng):
    """dual-complex and cochain on multigraphs (E = 2.5 V) and on simplex
    boundaries; exact and non-exact cochains alternate by rung."""
    for rung, (n_vertices, group) in enumerate(GRAPH_RUNGS):
        edges, tree = multigraph(rng, n_vertices, n_vertices * 5 // 2)
        _dual_complex_op(w, graph_strata(n_vertices, edges), graph_profile(n_vertices, len(edges)))
        _graph_cochain_op(w, rng, n_vertices, edges, tree, group, exact=rung % 2 == 0)
    for rung, k in enumerate(SPHERE_RUNGS):
        _dual_complex_op(w, simplex_boundary(k), sphere_profile(k))
        group = GRAPH_RUNGS[rung % 3][1]
        _sphere_cochain_op(w, rng, k, group, closed=True)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_near(rng: random.Random, x: int) -> int:
    """A random prime within 1% of x; trial division up to it costs about
    the same on every seed."""
    while True:
        c = rng.randint(x - x // 100, x + x // 100)
        if is_prime(c):
            return c


def hard_order(rng, exponent, b1):
    """A prime (b1 = 1) or a balanced semiprime near 10**exponent."""
    if b1 == 1:
        return prime_near(rng, 10 ** exponent)
    root = int(10 ** (exponent / 2))
    return prime_near(rng, root) * prime_near(rng, root)


def smooth_order(rng, exponent):
    """2^a 3^b within a factor 6 of 10**exponent."""
    target = 10 ** exponent
    while True:
        b = rng.randint(0, 2 * exponent)
        a = max(1, round(exponent * 3.3219 - b * 1.585))
        n = 2 ** a * 3 ** b
        if target // 6 <= n <= target * 6:
            return n


def torsion_ladder(w, rng):
    """cochain with Z/order on 4-vertex graphs: per (exponent, b1) rung one
    prime or balanced semiprime order and two smooth orders of similar size."""
    for exponent in TORSION_EXPONENTS:
        for b1 in (1, 2, 3):
            orders = [hard_order(rng, exponent, b1)] + [smooth_order(rng, exponent) for _ in range(2)]
            for order in orders:
                edges, tree = multigraph(rng, 4, 3 + b1)
                _graph_cochain_op(w, rng, 4, edges, tree, {"torsion": [order]},
                                  exact=rng.random() < 0.5)


def scenario_mix(w, rng, root):
    """Small scenarios through every subcommand, every bundled corpus
    scenario, and seeded malformed mutations.  Sizes and counts per kind are
    fixed; the seed picks the contents and the order."""
    for i in range(16):
        k = 2 + i % 5
        if i % 4 == 3:
            mat, mult = blown_up_cycle(rng, 2 + i % 3, 4 + i % 3)
            k = 2 + i % 3
        else:
            mat, mult = cycle_matrix(k), [1] * k
        form = i % 8
        if form < 3:
            _extend_op(w, mat, mult, orthogonal_trace(rng, mult), "trivial", k)
        elif form < 5:
            vals = _positive_total_trace(rng, mult)
            _extend_op(w, mat, mult, vals, "nef", k, nef_targets(rng, mult, vals))
        elif form == 5:
            _extend_op(w, mat, mult, _positive_total_trace(rng, mult), "nef", k)
        elif form == 6:
            _obstructed_extend_op(w, mat, mult, _positive_total_trace(rng, mult), "trivial")
        else:
            vals = [-x for x in _positive_total_trace(rng, mult)]
            _obstructed_extend_op(w, mat, mult, vals, "nef")
    for i in range(12):
        if i < 8:
            n = 2 + i % 7
            edges, _ = multigraph(rng, n, n - 1 + i % 5)
            _dual_complex_op(w, graph_strata(n, edges), graph_profile(n, len(edges)))
        else:
            k = 3 + i % 3
            _dual_complex_op(w, simplex_boundary(k), sphere_profile(k))
    groups = ({"rank": 1}, {"torsion": [6]}, {"rank": 1, "torsion": [4]})
    for i in range(16):
        if i < 10:
            n = 2 + i % 6
            edges, tree = multigraph(rng, n, n + i % 4)
            _graph_cochain_op(w, rng, n, edges, tree, groups[i % 3], exact=i % 2 == 0)
        else:
            _sphere_cochain_op(w, rng, 4 + i % 2, groups[i % 3], closed=i % 2 == 0)
    for i in range(16):
        if i < 10:
            _pic0_curves_op(w, rng)
        elif i < 12:
            _pic0_curves_op(w, rng, semistable=False)
        else:
            _pic0_snc_op(w, rng, i)
    for i in range(12):
        _obstruction_op(w, rng, _OBSTRUCTION_CASES[i % 4])
    sources = [op for op in w.ops if op["kind"] != "pic0" or "curve_fibers" in w.files[op["argv"][1]]]
    corpus = bundled_corpus(root)
    for name in sorted(corpus):
        _corpus_op(w, name, corpus[name])
    _malformed_ops(w, rng, sources, per_type=3)
    rng.shuffle(w.ops)


def build(workload: str, seed: int, workdir: str, root: str = ".") -> list[dict]:
    """Write the inputs of one pass of ``workload`` and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(workdir)
    if workload == "lattice-ladder":
        lattice_ladder(w, rng)
    elif workload == "complex-ladder":
        complex_ladder(w, rng)
    elif workload == "torsion-ladder":
        torsion_ladder(w, rng)
    else:
        scenario_mix(w, rng, root)
    return w.ops


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------

def _check_extension(expect, payload):
    mat = expect["matrix"]
    vals = [Fraction(v) for v in expect["trace"]]
    target = [Fraction(t) for t in expect["target"]]
    try:
        coeffs = [Fraction(c) for c in payload["coefficients"]]
        achieved = [Fraction(c) for c in payload["achieved_trace"]]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable extension: {exc!r}"
    n = len(mat)
    if len(coeffs) != n:
        return f"{len(coeffs)} coefficients for {n} components"
    if coeffs[0] != 0:
        return "coefficient of the gauge component is not 0"
    for i in range(n):
        if vals[i] + sum(mat[i][j] * coeffs[j] for j in range(n)) != target[i]:
            return f"(M a + v)[{i}] != {target[i]}"
    if achieved != target:
        return "achieved_trace differs from the target"
    if payload.get("denominator") != lcm(*[c.denominator for c in coeffs]):
        return "denominator is not the lcm of the coefficient denominators"
    order = expect["group_order"]
    if expect["mode"] == "trivial":
        if payload.get("denominator_bound") != order:
            return f"denominator_bound {payload.get('denominator_bound')} != {order}"
        if payload.get("component_group") != [order]:
            return f"component_group {payload.get('component_group')} != [{order}]"
    return None


def _check_cochain(expect, payload):
    got = {k: payload.get(k) for k in expect["payload"]}
    if got != expect["payload"]:
        return f"cochain payload {got} != {expect['payload']}"
    if expect["payload"]["exact"]:
        group = expect["group"]
        beta = payload.get("potential")
        if not isinstance(beta, list):
            return "exact cochain without a potential"
        for (a, b), value in zip(expect["edges"], expect["values"]):
            diff = _group_reduce(group, [x - y for x, y in zip(beta[a], beta[b])])
            if diff != _group_reduce(group, value):
                return f"potential misses edge ({a}, {b})"
    return None


def _check_corpus(expect, payload):
    reports = payload.get("reports")
    if not isinstance(reports, list) or len(reports) != 1:
        return "corpus run did not report exactly one scenario"
    rep = reports[0]
    if rep.get("name") != expect["name"] or rep.get("passed") is not True:
        return f"corpus scenario {expect['name']} did not pass"
    if [c.get("op") for c in rep.get("checks", [])] != expect["ops"]:
        return "corpus checks differ from the scenario's expect list"
    return None


def check(op: dict, code: int, stdout: str) -> str | None:
    """None when the output matches the expectation, else the reason."""
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    if expect["check"] == "none":
        return None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if not isinstance(payload, dict) or payload.get("exit_code") != code:
        return "machine output lacks the exit code"
    kind = expect["check"]
    if kind == "extension":
        return _check_extension(expect, payload)
    if kind == "cochain":
        return _check_cochain(expect, payload)
    if kind == "corpus":
        return _check_corpus(expect, payload)
    want = expect["payload"]
    got = {k: payload.get(k) for k in want} if expect.get("subset") else \
        {k: v for k, v in payload.items() if k != "exit_code"}
    return None if got == want else f"payload {got} != {want}"
