"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's linear-algebra routines: ranks come
from a plain rational Gaussian elimination, invariant factors from a naive
Euclidean diagonalization with first-nonzero pivoting, and cokernel orders
from direct scanning.  They exist so that the fast paths in the package are
checked against something that cannot share their bugs.
"""

from fractions import Fraction
from math import gcd, lcm


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def rational_rank_oracle(mat):
    work = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def naive_invariant_factors(mat):
    """Diagonal of a Smith form by plain Euclid, first-nonzero pivoting."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(m, n):
        # find any nonzero entry
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            moved = False
            for i in range(t + 1, m):
                while a[i][t] != 0:
                    if abs(a[i][t]) < abs(a[t][t]):
                        a[t], a[i] = a[i], a[t]
                        moved = True
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                while a[t][j] != 0:
                    if abs(a[t][j]) < abs(a[t][t]):
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        moved = True
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
            if not moved and all(a[i][t] == 0 for i in range(t + 1, m)) \
                    and all(a[t][j] == 0 for j in range(t + 1, n)):
                break
        diag.append(abs(a[t][t]))
        t += 1
    diag = [d for d in diag if d != 0]
    # repair the divisibility chain pairwise with gcd/lcm
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return diag


def boundary_matrix_reference(cx, r):
    """Dense B_r built entry by entry from the facet maps, the way the
    package built it before it cached sparse boundary rows: the column of
    an r-simplex is the alternating sum of its facets."""
    mat = [[0] * cx.count(r) for _ in range(cx.count(r - 1))]
    for j, facets in enumerate(cx.facets[r - 1]):
        for i, f in enumerate(facets):
            mat[f][j] += (-1) ** i
    return mat


def brute_homology(counts, boundaries):
    """Betti and torsion per degree from ranks and naive diagonalization.

    ``boundaries[r]`` is B_r for 1 <= r <= top (index 0 unused).
    """
    top = len(counts) - 1
    betti = []
    torsion = []
    for k in range(top + 1):
        rank_k = rational_rank_oracle(boundaries[k]) if k >= 1 else 0
        rank_next = rational_rank_oracle(boundaries[k + 1]) if k + 1 <= top else 0
        betti.append(counts[k] - rank_k - rank_next)
        if k + 1 <= top:
            torsion.append(tuple(d for d in naive_invariant_factors(boundaries[k + 1]) if d > 1))
        else:
            torsion.append(())
    return betti, torsion


def _inverse_columns(mat):
    """Columns of the inverse of a nonsingular rational matrix."""
    n = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return [[work[i][n + j] for i in range(n)] for j in range(n)]


def generator_order_in_cokernel(mat, index):
    """Order of the standard generator e_index in Z^n / im(mat).

    ``mat`` must be square and nonsingular, so the cokernel is finite: the
    order is the least m with m * e_index in the image, found by scanning.
    """
    col = _inverse_columns(mat)[index]
    m = 1
    while True:
        if all((m * x).denominator == 1 for x in col):
            return m
        m += 1


def cokernel_exponent_oracle(mat):
    """Exponent of the finite cokernel of a nonsingular integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    return lcm(*[generator_order_in_cokernel(mat, i) for i in range(n)])


def cokernel_order_oracle(mat):
    """Order of the finite cokernel: |det| via fraction-free elimination."""
    n = len(mat)
    work = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for i in range(col + 1, n):
            f = work[i][col] / work[col][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    assert det.denominator == 1
    return abs(int(det))


# ---------------------------------------------------------------------------
# Reference path for the fraction-free elimination: the Fraction
# Gauss-Jordan solvers and the symmetric PSD test that the package used
# before, kept verbatim so differential tests can compare against them.
# ---------------------------------------------------------------------------

def rational_kernel_reference(mat, ncols=None):
    """Basis of the rational nullspace ``{x : mat @ x == 0}``."""
    n = len(mat[0]) if mat else (ncols or 0)
    work = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        work[rank] = [x / prow[col] for x in prow]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(col)
        rank += 1
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * n
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -work[r][fcol]
        basis.append(vec)
    return basis


def solve_rational_reference(mat, rhs):
    """One rational solution of ``mat @ x == rhs``, or ``None``."""
    if not mat:
        return []
    n = len(mat[0])
    work = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        work[rank] = [x / prow[col] for x in prow]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(work)):
        if work[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, pcol in enumerate(pivots):
        sol[pcol] = work[r][n]
    return sol


def integer_matrix_reference(lattice) -> tuple[int, list[list[int]]]:
    """``(d, d * matrix)``, d the lcm of the denominators, read back from the
    public ``Fraction`` matrix as the lattice once did on first use."""
    d = lcm(*[x.denominator for row in lattice.matrix for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in lattice.matrix]


def extend_reference(lattice, trace, targets, solve=solve_rational_reference):
    """``(coefficients, denominator, achieved trace)`` of the solution of
    ``matrix @ x = targets - trace`` with x = 0 at the first component of
    nonzero multiplicity, all in ``Fraction`` arithmetic.  ``solve`` solves
    the gauge-reduced system; large lattices pass
    ``solve_rational_dense_reference``, the path the extension took before."""
    n = lattice.size
    mat = lattice.matrix
    i0 = next(i for i, c in enumerate(lattice.multiplicities) if c)
    idx = [i for i in range(n) if i != i0]
    rhs = [Fraction(targets[i]) - trace.values[i] for i in idx]
    sub = solve([[mat[i][j] for j in idx] for i in idx], rhs)
    sol = sub[:i0] + [Fraction(0)] + sub[i0:]
    achieved = [v + sum(mat[i][j] * sol[j] for j in range(n)) for i, v in enumerate(trace.values)]
    return tuple(sol), lcm(*[x.denominator for x in sol]), tuple(achieved)


def positive_semidefinite_reference(mat) -> bool:
    """Exact PSD test by symmetric Gaussian elimination.

    All pivots must be >= 0, and a zero pivot forces the whole remaining
    row to vanish.
    """
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    for k in range(n):
        p = a[k][k]
        if p < 0:
            return False
        if p == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / p
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


def semidefinite_rank_reference(a) -> tuple[bool, int]:
    """Exact PSD test and rank of a symmetric integer matrix, in place, as
    the package computed them before its sparse elimination.

    A dense fraction-free symmetric sweep (Bareiss 1968) over the upper
    triangle, with diagonal pivots in order.  Each pivot is a principal
    minor, so it has the sign of the rational pivot while the earlier ones
    are positive.
    """
    prev, rank = 1, 0
    for k, prow in enumerate(a):
        p = prow[k]
        if p < 0 or (p == 0 and any(prow[k + 1:])):
            return False, rank
        if p:
            for i in range(k + 1, len(a)):
                row, f = a[i], prow[i]
                row[i:] = [(p * x - f * y) // prev for x, y in zip(row[i:], prow[i:])]
            prev, rank = p, rank + 1
    return True, rank


def validation_checks_reference(lattice, semidefinite=positive_semidefinite_reference,
                                kernel=rational_kernel_reference):
    """``ValidationReport.checks`` of a fiber lattice, by the reference path.

    ``semidefinite`` tests the negated matrix and ``kernel`` gives a basis of
    the rational nullspace; large lattices pass dense integer routines."""
    n = lattice.size
    mat = lattice.matrix
    checks = []

    symmetric = all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i + 1, n))
    checks.append(("symmetric", symmetric, "" if symmetric else "matrix is not symmetric"))

    mc = [sum(row[j] * lattice.multiplicities[j] for j in range(n)) for row in mat]
    trivial = all(x == 0 for x in mc)
    checks.append((
        "fiber_class_trivial",
        trivial,
        "" if trivial else f"matrix * multiplicities = {mc}",
    ))

    nsd = symmetric and semidefinite([[-x for x in row] for row in mat])
    checks.append((
        "negative_semidefinite",
        nsd,
        "" if nsd else "a pivot of the negated matrix is negative or a zero pivot has a nonzero row",
    ))

    if lattice.connected:
        kernel = kernel([list(r) for r in mat], n)
        ok = len(kernel) == 1 and trivial
        if ok:
            vec = kernel[0]
            c = lattice.multiplicities
            i0 = next(j for j, x in enumerate(vec) if x != 0)
            ratio = Fraction(c[i0]) / vec[i0]
            ok = all(ratio * x == Fraction(ci) for x, ci in zip(vec, c))
        checks.append((
            "kernel_is_multiplicity_span",
            ok,
            "" if ok else f"rational kernel has dimension {len(kernel)} or is not spanned by the multiplicities",
        ))

    return tuple(checks)


# ---------------------------------------------------------------------------
# Reference path for the per-complex cache: the Smith routine with a full
# pivot scan on every pass, invariant factors by trial division, and the
# component group through c-perp coordinates, kept verbatim so differential
# tests can compare against them.
# ---------------------------------------------------------------------------

def smith_normal_form_reference(mat, ncols=None):
    """``(u, s, v)`` with ``u @ mat @ v == s`` in Smith normal form."""
    m = len(mat)
    n = len(mat[0]) if mat else (ncols or 0)
    s = [[int(x) for x in row] for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def fix_signs():
        for t in range(min(m, n)):
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
        return u, s, v

    for t in range(min(m, n)):
        while True:
            piv = None
            for i in range(t, m):
                for j in range(t, n):
                    if s[i][j] != 0 and (piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                return fix_signs()
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
            clean = True
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    add_row(i, t, -(s[i][t] // s[t][t]))
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        clean = False
            if not clean:
                continue
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    add_col(j, t, -(s[t][j] // s[t][t]))
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        clean = False
            if not clean:
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
    return fix_signs()


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factor_chain_reference(orders) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups, via primary parts."""
    primary = {}
    for o in orders:
        for p, e in _factorize(int(o)).items():
            primary.setdefault(p, []).append(e)
    slots = max((len(v) for v in primary.values()), default=0)
    chain = []
    for k in range(slots):
        f = 1
        for p, exps in primary.items():
            exps = sorted(exps, reverse=True)
            if k < len(exps):
                f *= p ** exps[k]
        chain.append(f)
    return tuple(sorted(chain))


def component_group_reference(lattice) -> tuple[int, ...]:
    """Torsion of ``c-perp / im M``: an echelon basis of ``c-perp`` and the
    coordinates of the columns of the (integer) matrix in it."""
    from fiberext import linalg

    n = lattice.size
    mat = [[int(x) for x in row] for row in lattice.matrix]
    gens = linalg.kernel_basis([list(lattice.multiplicities)], n)
    _, torsion = lattice_quotient_reference(gens, _transpose(mat), n)
    return tuple(torsion)


# ---------------------------------------------------------------------------
# Reference path for H^1: kernel bases of the cocycle conditions, an echelon
# basis of each and the coordinates of the relations in it, as the package
# computed it before the mapping cone.
# ---------------------------------------------------------------------------

def _row_lattice_basis(rows, n):
    """Echelon basis of the lattice spanned (over Z) by the given rows."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(n):
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            reduced = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                r2 = [a - q * b for a, b in zip(r, p)]
                (reduced if r2[col] != 0 else rest).append(r2)
            live = reduced
        if live:
            basis.append(live[0])
        work = [r for r in rest if any(r)]
    return basis


def _coordinates_in_basis(vec, basis):
    """Coordinates of ``vec`` in an echelon lattice basis, or ``None``."""
    r = list(vec)
    coords = []
    for b in basis:
        p = next(j for j, x in enumerate(b) if x)
        q, rem = divmod(r[p], b[p])
        if rem:
            return None
        coords.append(q)
        r = [x - q * y for x, y in zip(r, b)]
    return coords if not any(r) else None


def lattice_quotient_reference(gens, rels, n):
    """``(free_rank, torsion)`` of ``span(gens) / span(rels)`` inside Z^n;
    ``rels`` must lie in the lattice spanned by ``gens``."""
    from fiberext import linalg

    basis = _row_lattice_basis(gens, n)
    rows = []
    for rel in rels:
        coords = _coordinates_in_basis(rel, basis)
        if coords is None:
            raise ValueError("relation outside the generated lattice")
        rows.append(coords)
    diag = linalg.snf_diagonal(linalg.sparse(rows))
    return len(basis) - len(diag), [d for d in diag if d > 1]


def cohomology_group_reference(complex, group):
    """H^1 as ``ker d1 / im d0`` over Z and ``{x : d1 x = 0 mod n} /
    (im d0 + n Z^E)`` for each ``Z/n``, each cocycle lattice a kernel basis."""
    from fiberext import linalg
    from fiberext.cochain import GroupInvariants, invariant_factor_chain

    n_e = complex.count(1)
    if n_e == 0:
        return GroupInvariants(0, ())
    d0_cols = [[-x for x in row] for row in boundary_matrix_reference(complex, 1)]
    d1 = _transpose(boundary_matrix_reference(complex, 2)) if complex.dimension >= 2 else []
    orders, rank = [], 0
    if group.rank:
        free, torsion = lattice_quotient_reference(linalg.kernel_basis(d1, n_e), d0_cols, n_e)
        orders, rank = list(torsion) * group.rank, free * group.rank
    for n in group.torsion:
        block = [row + [-n if col == t else 0 for col in range(len(d1))] for t, row in enumerate(d1)]
        cocycles = [vec[:n_e] for vec in linalg.kernel_basis(block, n_e + len(d1))]
        rels = d0_cols + [[n if j == i else 0 for j in range(n_e)] for i in range(n_e)]
        free, torsion = lattice_quotient_reference(cocycles, rels, n_e)
        if free:
            raise ArithmeticError(f"H^1 with Z/{n} coefficients has free rank {free}")
        orders.extend(torsion)
    return GroupInvariants(rank, invariant_factor_chain(orders))


# ---------------------------------------------------------------------------
# Reference path for exactness: the Smith-based solves the package used
# before the spanning-forest propagation, kept so differential tests can
# compare verdicts against them.
# ---------------------------------------------------------------------------

def vertex_coboundary(cx):
    """The edge-by-vertex coboundary ``d0 = -B_1^T`` (no rows without edges)."""
    b1 = boundary_matrix_reference(cx, 1) if cx.dimension >= 1 else []
    return [[-x for x in col] for col in _transpose(b1)]


def is_exact_reference(phi):
    """``coboundary(beta) = phi`` solved against ``d0 = -B_1^T``: an integer
    solve per free coordinate and a modular solve per cyclic factor of the
    coefficient group.  Returns the 0-cochain or ``NotExact``."""
    from fiberext import linalg
    from fiberext.cochain import Cochain, NotExact

    cx, group = phi.complex, phi.group
    n_v = cx.count(0)
    mat = vertex_coboundary(cx)
    per_vertex = [[0] * group.width for _ in range(n_v)]
    for p in range(group.width):
        rhs = [value[p] for value in phi.values]
        if p < group.rank:
            sol = linalg.solve_integer(mat, rhs, n_v)
        else:
            sol = linalg.solve_mod(mat, rhs, group.torsion[p - group.rank], n_v)
        if sol is None:
            return NotExact()
        for v in range(n_v):
            per_vertex[v][p] = sol[v]
    return Cochain(cx, group, 0, tuple(tuple(v) for v in per_vertex))


def build_dual_complex_reference(strata):
    """The three-walk ``build_dual_complex``: every shape check on every
    stratum first, then facet references looked up by id, then positions."""
    from fiberext.dual_complex import DeltaComplex, StrataError

    seen = {}
    by_level = []
    for r, level in enumerate(strata.levels):
        table = {}
        for s in level:
            if s.ident in seen:
                raise StrataError(f"duplicate stratum id {s.ident!r}")
            seen[s.ident] = (r, s)
            if len(s.indices) != r + 1:
                raise StrataError(f"stratum {s.ident!r} at level {r} must have {r + 1} indices")
            if any(a >= b for a, b in zip(s.indices, s.indices[1:])):
                raise StrataError(f"index set of {s.ident!r} must be strictly increasing")
            if len(s.facets) != (r + 1 if r > 0 else 0):
                raise StrataError(f"stratum {s.ident!r} must list {r + 1} facets")
            table[s.ident] = s
        by_level.append(table)
    if strata.levels:
        vertex_indices = [s.indices[0] for s in strata.levels[0]]
        if len(set(vertex_indices)) != len(vertex_indices):
            raise StrataError("component indices at level 0 must be distinct")
    for r in range(1, len(strata.levels)):
        for s in strata.levels[r]:
            for i, fid in enumerate(s.facets):
                if fid not in by_level[r - 1]:
                    raise StrataError(f"facet {fid!r} of {s.ident!r} is not a level-{r - 1} stratum")
                expected = s.indices[:i] + s.indices[i + 1:]
                if by_level[r - 1][fid].indices != expected:
                    raise StrataError(
                        f"facet {fid!r} of {s.ident!r} has index set "
                        f"{by_level[r - 1][fid].indices}, expected {expected}"
                    )
            if r >= 2:
                for i in range(r + 1):
                    for j in range(i + 1, r + 1):
                        fi = by_level[r - 1][s.facets[i]]
                        fj = by_level[r - 1][s.facets[j]]
                        if fi.facets[j - 1] != fj.facets[i]:
                            raise StrataError(
                                f"inconsistent facets of {s.ident!r}: dropping indices "
                                f"{s.indices[i]} and {s.indices[j]} in either order must "
                                "reach the same stratum"
                            )
    ids = tuple(tuple(s.ident for s in level) for level in strata.levels)
    position = [{s.ident: k for k, s in enumerate(level)} for level in strata.levels]
    facets = tuple(
        tuple(tuple(position[r - 1][fid] for fid in s.facets) for s in strata.levels[r])
        for r in range(1, len(strata.levels))
    )
    return DeltaComplex(ids, facets)


# ---------------------------------------------------------------------------
# Reference path for the sparse echelon: the dense fraction-free Bareiss
# solvers the package ran before, kept verbatim apart from their names.
# Lattices such as I_160 are too large for the Fraction Gauss-Jordan above.
# ---------------------------------------------------------------------------

def _scaled(row):
    """``row`` times the lcm of its denominators, as ints."""
    m = lcm(*[Fraction(x).denominator for x in row])
    return [int(Fraction(x) * m) for x in row]


def _dense_echelon(rows, ncols):
    """Fraction-free row echelon form (Bareiss 1968) of an integer matrix,
    dense; returns ``(rows, pivots)``."""
    pivots, prev = [], 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, p = rows[r], rows[r][col]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [0] * col + [(p * a - f * b) // prev for a, b in zip(rows[i][col:], prow[col:])]
        pivots.append(col)
        prev = p
    return rows, pivots


def _dense_back_substitute(rows, pivots, col, n):
    """``x``, 0 off the pivots, with ``rows[:, pivots] @ x == rows[:, col]``."""
    r = len(pivots)
    d = rows[r - 1][pivots[-1]] if r else 1
    y = [0] * r
    for k in range(r - 1, -1, -1):
        row = rows[k]
        acc = d * row[col] - sum(row[pivots[j]] * y[j] for j in range(k + 1, r))
        y[k] = acc // row[pivots[k]]
    x = [Fraction(0)] * n
    for pcol, v in zip(pivots, y):
        x[pcol] = Fraction(v, d)
    return x


def rational_kernel_dense_reference(mat, ncols=None):
    """``rational_kernel_reference`` by the dense fraction-free path."""
    n = len(mat[0]) if mat else (ncols or 0)
    rows, pivots = _dense_echelon([_scaled(row) for row in mat], n)
    basis = []
    for fcol in (j for j in range(n) if j not in pivots):
        vec = [-x for x in _dense_back_substitute(rows, pivots, fcol, n)]
        vec[fcol] = Fraction(1)
        basis.append(vec)
    return basis


def solve_rational_dense_reference(mat, rhs):
    """``solve_rational_reference`` by the dense fraction-free path."""
    if not mat:
        return []
    n = len(mat[0])
    rows, pivots = _dense_echelon([_scaled([*row, b]) for row, b in zip(mat, rhs)], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    return _dense_back_substitute(rows, pivots, n, n)
