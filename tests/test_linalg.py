"""Sparse matrix kernels against dense references."""

import random
from fractions import Fraction
from math import factorial

import sympy

import pytest

from realcoh import catalog, liealg, linalg
from realcoh.field import FieldError, FieldTower
from realcoh.liealg import LieAlgebraDatum, exp_nilpotent, log_unipotent, \
    rref_rows
from realcoh.linalg import RealStructure, charpoly, echelon_reduce, \
    left_kernel, mat_from_ints, meq, meye, minverse, mmul, row_reduce, \
    row_reduce_transform, solve_left, vmat
from realcoh.reductive import solve_problem2_reductive
from realcoh.torus import trivialize_cocycle


def _dense_mmul(a, b):
    """Entry-by-entry product over every inner index, zeros included."""
    return [[sum((a[i][k] * b[k][j] for k in range(1, len(b))),
                 a[i][0] * b[0][j])
             for j in range(len(b[0]))] for i in range(len(a))]


def _gaussian_pool(rng, tower):
    return [tower.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(4)] + [tower.i() * 2, tower.i() + Fraction(1, 2)]


def _rand_matrix(rng, pool, rows, cols, density):
    zero = pool[0].tower.zero()
    return [[rng.choice(pool) if rng.random() < density else zero
             for _ in range(cols)] for _ in range(rows)]


def _to_sympy(x):
    a, b = x._rat_coeff(0, 0), x._rat_coeff(1, 0)
    return sympy.Rational(a.numerator, a.denominator) \
        + sympy.I * sympy.Rational(b.numerator, b.denominator)


def _sympy_matrix(a):
    return sympy.Matrix([[_to_sympy(x) for x in row] for row in a])


def test_mmul_and_vmat_match_dense_product():
    rng = random.Random(11)
    tower = FieldTower()
    pool = _gaussian_pool(rng, tower) + [tower.sqrt(2),
                                         tower.sqrt(2) * tower.i() - 1]
    for density in (0.0, 0.2, 0.6, 1.0):
        for _ in range(10):
            r, n, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = _rand_matrix(rng, pool, r, n, density)
            b = _rand_matrix(rng, pool, n, c, density)
            prod = mmul(a, b)
            ref = _dense_mmul(a, b)
            assert all(x == y for rp, rr in zip(prod, ref)
                       for x, y in zip(rp, rr))
            assert [len(row) for row in prod] == [c] * r
            assert all(x == y for x, y in zip(vmat(a[0], b), ref[0]))


def test_vmat_skips_zero_coefficients_and_rows():
    rng = random.Random(15)
    tower = FieldTower()
    pool = _gaussian_pool(rng, tower)
    zero = tower.zero()
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = _rand_matrix(rng, pool, r, c, 0.6)
        m[rng.randrange(r)] = [zero] * c
        v = [rng.choice(pool) if rng.random() < 0.5 else zero
             for _ in range(r)]
        naive = [sum((v[i] * m[i][j] for i in range(1, r)), v[0] * m[0][j])
                 for j in range(c)]
        assert vmat(v, m) == naive
        assert vmat([zero] * r, m) == [zero] * c


def test_echelon_reduce_matches_solve_left():
    rng = random.Random(16)
    tower = FieldTower()
    pool = _gaussian_pool(rng, tower)
    outside = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        basis = rref_rows(_rand_matrix(rng, pool, rng.randint(1, n), n, 0.7))
        if not basis:
            continue
        coeffs = [rng.choice(pool) for _ in basis]
        inside = vmat(coeffs, basis)
        got, rest = echelon_reduce(inside, basis)
        assert got == coeffs == solve_left(basis, inside, tower)
        assert all(x.is_zero() for x in rest)
        # a unit vector off the pivot columns lies outside the span
        pivots = [next(j for j, x in enumerate(row) if not x.is_zero())
                  for row in basis]
        free = [j for j in range(n) if j not in pivots]
        if free:
            off = list(inside)
            off[rng.choice(free)] += 1
            _, rest = echelon_reduce(off, basis)
            assert any(not x.is_zero() for x in rest)
            assert solve_left(basis, off, tower) is None
            outside += 1
    assert outside >= 10


def test_echelon_reduce_late_pivots_in_long_rows():
    tower = FieldTower()
    width, pivots = 90, [70, 81, 86, 89]
    rows = []
    for k, p in enumerate(pivots):
        row = [0] * width
        row[p] = 1
        # entries after the pivot, off the later pivot columns
        for j in range(p + 1, width):
            if j not in pivots:
                row[j] = k + j
        rows.append(row)
    basis = mat_from_ints(tower, rows)
    assert rref_rows(basis) == basis
    coeffs = mat_from_ints(tower, [[3, -1, 2, 5]])[0]
    got, rest = echelon_reduce(vmat(coeffs, basis), basis)
    assert got == coeffs and all(x.is_zero() for x in rest)
    off = vmat(coeffs, basis)
    off[75] += 1
    got, rest = echelon_reduce(off, basis)
    assert got == coeffs
    assert [j for j, x in enumerate(rest) if not x.is_zero()] == [75]


def test_echelon_reduce_rows_out_of_order_is_coded_error():
    tower = FieldTower()
    basis = mat_from_ints(tower, [[0, 0, 1, 2], [1, 0, 0, 0]])
    with pytest.raises(FieldError) as err:
        echelon_reduce(mat_from_ints(tower, [[1, 0, 1, 2]])[0], basis)
    assert err.value.code == "not-echelon"


def test_row_reduce_matches_sympy_rref():
    rng = random.Random(12)
    tower = FieldTower()
    pool = _gaussian_pool(rng, tower)
    for density in (0.2, 0.5, 0.9):
        for _ in range(8):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            a = _rand_matrix(rng, pool, m, n, density)
            rref, pivots = row_reduce(a)
            want, want_pivots = _sympy_matrix(a).rref()
            assert list(pivots) == list(want_pivots)
            assert all(sympy.simplify(_to_sympy(rref[i][j]) - want[i, j]) == 0
                       for i in range(m) for j in range(n))
            block, trans, block_pivots = row_reduce_transform(a, tower)
            assert meq(block, rref) and block_pivots == pivots
            assert meq(mmul(trans, a), rref)


def test_minverse_of_random_gaussian_matrices():
    rng = random.Random(13)
    tower = FieldTower()
    pool = _gaussian_pool(rng, tower)
    inverted = 0
    for n in range(1, 7):
        for density in (0.5, 1.0):
            for _ in range(4):
                a = _rand_matrix(rng, pool, n, n, density)
                if _sympy_matrix(a).det() == 0:
                    with pytest.raises(FieldError) as err:
                        minverse(a, tower)
                    assert err.value.code == "singular"
                    continue
                inv = minverse(a, tower)
                assert meq(mmul(inv, a), meye(tower, n))
                assert meq(mmul(a, inv), meye(tower, n))
                inverted += 1
    assert inverted >= 30


def test_minverse_rank_deficient_is_singular():
    tower = FieldTower()
    i = tower.i()
    r1 = [tower.one(), i, tower.from_rational(Fraction(1, 2))]
    r2 = [i + 1, tower.zero(), tower.from_rational(3)]
    r3 = [x * 2 - i * y for x, y in zip(r1, r2)]
    zero_row = mat_from_ints(tower, [[0, 0], [0, 1]])
    for a in ([r1, r2, r3], [r3, r1, r2], zero_row):
        with pytest.raises(FieldError) as err:
            minverse(a, tower)
        assert err.value.code == "singular"


def test_lie_coords_round_trip_through_from_coords():
    # a basis of sl(2) in general position, so that the coordinate
    # transform of LieAlgebraDatum is far from the identity
    rng = random.Random(14)
    tower = FieldTower()
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    f = mat_from_ints(tower, [[0, 0], [1, 0]])
    i = tower.i()
    basis = [[[x + 2 * y for x, y in zip(ra, rb)] for ra, rb in zip(e, h)],
             [[i * x - y for x, y in zip(ra, rb)] for ra, rb in zip(f, e)],
             [[x + y + i * z for x, y, z in zip(ra, rb, rc)]
              for ra, rb, rc in zip(h, e, f)]]
    datum = LieAlgebraDatum(basis, tower)
    for k, m in enumerate(basis):
        assert datum.coords(m) == [tower.one() if j == k else tower.zero()
                                   for j in range(3)]
    pool = _gaussian_pool(rng, tower)
    for _ in range(10):
        v = [rng.choice(pool) for _ in range(3)]
        assert datum.coords(datum.from_coords(v)) == v
    # the flat entries of sum_b v_b X_b are those of from_coords, and
    # entry_coords reads them back
    for _ in range(10):
        v = [rng.choice(pool) for _ in range(3)]
        m = datum.from_coords(v)
        flat = datum.entries(v)
        assert all(flat.get(r * 2 + c, tower.zero()) == x
                   for r, row in enumerate(m) for c, x in enumerate(row))
        assert datum.entry_coords(flat) == v


def test_fixes_matches_dense_gamma():
    # N * conj(m) = m * N from the nonzero entries against the dense
    # gamma(m) = N * conj(m) * N^-1, on random m and on m + gamma(m), which
    # gamma fixes when N * conj(N) = 1 (the identity and the swap), for
    # those two N and four random invertible ones
    rng = random.Random(15)
    tower = FieldTower()
    pool = _gaussian_pool(rng, tower)
    structures = [meye(tower, 3), mat_from_ints(tower, [[0, 0, 1], [0, 1, 0],
                                                        [1, 0, 0]])]
    while len(structures) < 6:
        a = _rand_matrix(rng, pool, 3, 3, 0.7)
        if _sympy_matrix(a).det() != 0:
            structures.append(a)
    fixed = 0
    for nsigma in structures:
        real = RealStructure(nsigma, tower)
        for density in (0.0, 0.3, 1.0):
            m = _rand_matrix(rng, pool, 3, 3, density)
            for cand in (m, [[x + y for x, y in zip(ra, rb)]
                             for ra, rb in zip(m, real.gamma(m))]):
                assert real.fixes(cand) == meq(real.gamma(cand), cand)
                fixed += real.fixes(cand)
    assert fixed >= 6


def test_fixes_with_singular_structure_is_coded_error():
    tower = FieldTower()
    real = RealStructure(mat_from_ints(tower, [[1, 0], [0, 0]]), tower)
    with pytest.raises(FieldError) as err:
        real.fixes(mat_from_ints(tower, [[0, 1], [0, 0]]))
    assert err.value.code == "singular"


def _dense_row_reduce(a):
    """Plain Gauss-Jordan on dense rows: each pivot column is sought in
    every remaining row, and whole rows are scaled and subtracted."""
    rows = [list(r) for r in a]
    m, n = len(rows), len(rows[0]) if rows else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _sqrt2_cases(seed):
    """Seeded matrices over Q(i)(sqrt 2): densities 0 to 1, wide, tall and
    square shapes, some with a zero row, a zero column or a row that is a
    combination of two others."""
    rng = random.Random(seed)
    tower = FieldTower()
    r2 = tower.sqrt(2)
    pool = _gaussian_pool(rng, tower) + [r2, r2 * tower.i() - 1,
                                         r2 * Fraction(-1, 3) + 2]
    cases = []
    for density in (0.0, 0.15, 0.4, 0.7, 1.0):
        for m, n in ((1, 1), (3, 3), (4, 4), (2, 6), (3, 7), (6, 2),
                     (7, 3), (5, 5)):
            a = _rand_matrix(rng, pool, m, n, density)
            if m > 2 and rng.random() < 0.5:
                i, j, k = rng.sample(range(m), 3)
                x, y = rng.choice(pool), rng.choice(pool)
                a[k] = [x * p + y * q for p, q in zip(a[i], a[j])]
            if rng.random() < 0.3:
                a[rng.randrange(m)] = [tower.zero()] * n
            if rng.random() < 0.3:
                j = rng.randrange(n)
                for row in a:
                    row[j] = tower.zero()
            cases.append(a)
    return tower, rng, pool, cases


def test_sparse_kernel_matches_dense_reference():
    tower, rng, pool, cases = _sqrt2_cases(16)
    zero = tower.zero()
    ranks = set()
    for a in cases:
        m, n = len(a), len(a[0])
        before = [list(row) for row in a]

        def unchanged():
            return len(a) == m and all(
                len(ra) == n and all(x is y for x, y in zip(ra, rb))
                for ra, rb in zip(a, before))

        rref, pivots = row_reduce(a)
        want, want_pivots = _dense_row_reduce(a)
        assert pivots == want_pivots and meq(rref, want)
        assert unchanged()
        rank = len(pivots)
        ranks.add((rank == min(m, n), rank))
        assert meq(rref_rows(a), rref[:rank])
        assert meq(rref_rows(a[::-1]), rref[:rank])

        block, trans, block_pivots = row_reduce_transform(a, tower)
        assert meq(block, rref) and block_pivots == pivots
        assert meq(mmul(trans, a), rref)

        kernel = left_kernel(a, tower)
        assert len(kernel) == m - rank
        assert all(vmat(v, a) == [zero] * n for v in kernel)
        assert len(rref_rows(kernel)) == m - rank

        c = [rng.choice(pool) for _ in range(m)]
        target = vmat(c, a)
        v = solve_left(a, target, tower)
        assert v is not None and vmat(v, a) == target
        free = [j for j in range(n) if j not in pivots]
        if free:
            unit = [tower.one() if j == free[0] else zero for j in range(n)]
            assert solve_left(a, unit, tower) is None

        if m == n:
            if rank == n:
                inv = minverse(a, tower)
                assert meq(mmul(inv, a), meye(tower, n))
                assert meq(mmul(a, inv), meye(tower, n))
            else:
                with pytest.raises(FieldError) as err:
                    minverse(a, tower)
                assert err.value.code == "singular"
        assert unchanged()
    # full-rank and rank-deficient cases both occur, including rank 0
    assert {full for full, _ in ranks} == {True, False}
    assert (False, 0) in ranks


def test_row_reduce_of_no_rows_or_columns():
    tower = FieldTower()
    assert row_reduce([]) == ([], [])
    assert row_reduce([[], []]) == ([[], []], [])
    assert rref_rows([]) == []
    assert rref_rows([[tower.zero()] * 3]) == []


def test_shape_mismatch_is_coded_error():
    tower = FieldTower()
    row = mat_from_ints(tower, [[1, 2]])
    col = mat_from_ints(tower, [[1], [1], [5]])
    ragged = mat_from_ints(tower, [[1, 2], [3]])
    for call in (lambda: mmul(row, col), lambda: mmul(col, col),
                 lambda: mmul(row, ragged), lambda: mmul(ragged, ragged),
                 lambda: vmat(row[0], col), lambda: vmat(row[0], ragged),
                 lambda: row_reduce(ragged)):
        with pytest.raises(FieldError) as err:
            call()
        assert err.value.code == "shape-mismatch"
    assert meq(row, [list(row[0])])
    assert not meq(row, [row[0], row[0]])
    assert not meq(row, [row[0][:1]])
    assert not meq(col, col[:2])

    # through the library: a 3x3 "cocycle" of a group of 2x2 matrices
    z = mat_from_ints(tower, [[1, 0, 0], [0, 1, 0], [0, 0, 7]])
    sl2 = catalog.get("sl(2,r)", tower)
    f = catalog.get("torus:f", tower)
    for call in (lambda: sl2.group.real.is_cocycle(z),
                 lambda: solve_problem2_reductive(sl2.group, z),
                 lambda: trivialize_cocycle(f.group, z)):
        with pytest.raises(FieldError) as err:
            call()
        assert err.value.code == "shape-mismatch"


def test_mmul_scans_each_used_row_of_b_once(monkeypatch):
    class Unread:
        def is_zero(self):
            raise AssertionError("a row of b that a never reaches was read")

    tower = FieldTower()
    a = mat_from_ints(tower, [[1, 0, 2], [0, 0, 3]])
    b = mat_from_ints(tower, [[1, 2], [0, 0], [4, 5]])
    b[1] = [Unread(), Unread()]
    scanned = []
    nonzero = linalg._nonzero

    def counting(row):
        scanned.append(id(row))
        return nonzero(row)

    monkeypatch.setattr(linalg, "_nonzero", counting)
    assert meq(mmul(a, b), mat_from_ints(tower, [[9, 12], [12, 15]]))
    assert sorted(scanned) == sorted([id(b[0]), id(b[2])])
    assert vmat(a[1], b) == mat_from_ints(tower, [[12, 15]])[0]


def test_mmul_calls_of_charpoly_exp_and_log(monkeypatch):
    """charpoly of an n x n matrix takes n - 1 products, and exp_nilpotent
    of x with x^k = 0 != x^(k-1) takes k - 1, as does log_unipotent of
    its exponential: no product by the identity."""
    rng = random.Random(18)
    tower = FieldTower()
    pool = _gaussian_pool(rng, tower)
    calls = []
    mul = linalg.mmul

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(linalg, "mmul", counting)
    monkeypatch.setattr(liealg, "mmul", counting)
    for n in range(1, 7):
        a = _rand_matrix(rng, pool, n, n, 0.7)
        calls.clear()
        coeffs = charpoly(a, tower)
        assert len(calls) == n - 1
        x = sympy.Symbol("x")
        want = _sympy_matrix(a).charpoly(x).all_coeffs()[::-1]
        assert all(sympy.simplify(_to_sympy(c) - w) == 0
                   for c, w in zip(coeffs, want))
    n = 5
    while True:
        p = _rand_matrix(rng, pool, n, n, 0.8)
        if _sympy_matrix(p).det() != 0:
            break
    p_inv = minverse(p, tower)
    for k in range(1, n + 1):
        block = [[tower.one() if j == i + 1 and j < k else tower.zero()
                  for j in range(n)] for i in range(n)]
        x = mul(mul(p, block), p_inv)
        powers = [meye(tower, n)]
        for _ in range(k - 1):
            powers.append(mul(powers[-1], x))
        want = [[sum((powers[j][r][c] * Fraction(1, factorial(j))
                      for j in range(1, k)), powers[0][r][c])
                 for c in range(n)] for r in range(n)]
        calls.clear()
        u = exp_nilpotent(x, tower)
        assert len(calls) == k - 1
        assert meq(u, want)
        calls.clear()
        assert meq(log_unipotent(u, tower), x)
        assert len(calls) == k - 1
