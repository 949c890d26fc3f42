import random
from fractions import Fraction
from functools import lru_cache

import pytest

from realcoh import catalog
from realcoh.field import FieldTower
from realcoh.liealg import (
    JordanPair,
    LieAlgebraDatum,
    LieError,
    additive_jordan,
    align_cartan_sc,
    conj_cartan_solvable_sc,
    exp_nilpotent,
    jordan,
    levi_decompose,
    log_unipotent,
    reductive_projection,
    root_system,
    rref_rows,
    semisimple_part,
)
from realcoh.linalg import (
    left_kernel,
    mat_from_ints,
    meq,
    meye,
    minverse,
    mmul,
    msub,
    mzeros,
    vmat,
)


def tower():
    return FieldTower()


def sl2(tw):
    h = mat_from_ints(tw, [[1, 0], [0, -1]])
    x = mat_from_ints(tw, [[0, 1], [0, 0]])
    y = mat_from_ints(tw, [[0, 0], [1, 0]])
    return LieAlgebraDatum([h, x, y], tw, check_jacobi=True)


def sl2_semidirect(tw):
    """sl2 acting on its standard 2-dimensional abelian ideal, in gl(3)."""

    def emb(a, v):
        rows = [[a[0][0], a[0][1], v[0]], [a[1][0], a[1][1], v[1]],
                [0, 0, 0]]
        return mat_from_ints(tw, rows)

    z = [[0, 0], [0, 0]]
    h = emb([[1, 0], [0, -1]], [0, 0])
    x = emb([[0, 1], [0, 0]], [0, 0])
    y = emb([[0, 0], [1, 0]], [0, 0])
    e1 = emb(z, [1, 0])
    e2 = emb(z, [0, 1])
    return LieAlgebraDatum([h, x, y, e1, e2], tw)


def sl3(tw):
    mats = []
    for (i, j) in ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)):
        m = [[0] * 3 for _ in range(3)]
        m[i][j] = 1
        mats.append(mat_from_ints(tw, m))
    h1 = mat_from_ints(tw, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    h2 = mat_from_ints(tw, [[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    return LieAlgebraDatum(mats + [h1, h2], tw), h1, h2


def split_so5(tw):
    """so(5) for the antidiagonal form: the split form of so(2,3)."""
    n = 5
    seen = []
    mats = []
    for i in range(n):
        for j in range(n):
            m = [[0] * n for _ in range(n)]
            m[i][j] += 1
            m[n - 1 - j][n - 1 - i] -= 1
            if any(any(row) for row in m):
                flat = tuple(x for row in m for x in row)
                neg = tuple(-x for x in flat)
                if flat not in seen and neg not in seen:
                    seen.append(flat)
                    mats.append(mat_from_ints(tw, m))
    datum = LieAlgebraDatum(mats, tw)
    assert datum.dim == 10
    h1 = mat_from_ints(
        tw, [[1, 0, 0, 0, 0], [0] * 5, [0] * 5, [0] * 5, [0, 0, 0, 0, -1]])
    h2 = mat_from_ints(
        tw, [[0] * 5, [0, 1, 0, 0, 0], [0] * 5, [0, 0, 0, -1, 0], [0] * 5])
    return datum, h1, h2


# -- datum construction ------------------------------------------------------


def _mat_bracket(x, y):
    """[x, y] = xy - yx of two matrices, computed densely."""
    return msub(mmul(x, y), mmul(y, x))


def test_non_closed_basis_rejected():
    # [E12, E21] = H lies outside the span
    tw = tower()
    e12 = mat_from_ints(tw, [[0, 1], [0, 0]])
    e21 = mat_from_ints(tw, [[0, 0], [1, 0]])
    with pytest.raises(LieError) as err:
        LieAlgebraDatum([e12, e21], tw)
    assert err.value.code == "not-in-algebra"


def test_empty_basis_rejected():
    with pytest.raises(LieError) as err:
        LieAlgebraDatum([], tower())
    assert err.value.code == "empty-basis"


def test_dependent_basis_rejected():
    tw = tower()
    h = mat_from_ints(tw, [[1, 0], [0, -1]])
    x = mat_from_ints(tw, [[0, 1], [0, 0]])
    hx = mat_from_ints(tw, [[2, 3], [0, -2]])
    with pytest.raises(LieError) as err:
        LieAlgebraDatum([h, x, hx], tw)
    assert err.value.code == "dependent-basis"


# matrices outside sl(2), whose reduced basis has its pivots at E11, E12
# and E21: E11 shows it only through the -1 that h = E11 - E22 puts at
# E22; the identity and 5*E22 have an entry off the pivots
OUTSIDE_SL2 = [[[1, 0], [0, 0]], [[1, 0], [0, 1]], [[0, 0], [0, 5]]]


@pytest.mark.parametrize("ints", OUTSIDE_SL2, ids=["e11", "one", "e22"])
def test_coords_outside_span_rejected(ints):
    tw = tower()
    datum = sl2(tw)
    mat = mat_from_ints(tw, ints)
    assert datum.contains(datum.basis[0])
    with pytest.raises(LieError) as err:
        datum.coords(mat)
    assert err.value.code == "not-in-algebra"
    with pytest.raises(LieError):
        datum.mats_to_rows([datum.basis[1], mat])
    assert not datum.contains(mat)


def test_real_form_flag():
    tw = tower()
    assert sl2(tw).real_form


# -- Levi-type decomposition --------------------------------------------------


def test_levi_sl2():
    tw = tower()
    dec = levi_decompose(sl2(tw))
    assert len(dec.s_basis) == 3
    assert dec.t_basis == [] and dec.n_basis == []


def test_levi_solvable_upper_triangular():
    tw = tower()
    h = mat_from_ints(tw, [[1, 0], [0, -1]])
    c = mat_from_ints(tw, [[1, 0], [0, 1]])
    e = mat_from_ints(tw, [[0, 1], [0, 0]])
    datum = LieAlgebraDatum([h, c, e], tw)
    dec = levi_decompose(datum)
    assert dec.s_basis == []
    assert len(dec.t_basis) == 2
    assert len(dec.n_basis) == 1
    # the nilpotent part is exactly the strict upper triangle
    nmat = dec.n_basis[0]
    assert nmat[0][0].is_zero() and nmat[1][1].is_zero()
    assert nmat[1][0].is_zero() and not nmat[0][1].is_zero()


def test_levi_sl2_semidirect():
    tw = tower()
    datum = sl2_semidirect(tw)
    dec = levi_decompose(datum)
    assert len(dec.s_basis) == 3
    assert dec.t_basis == []
    assert len(dec.n_basis) == 2
    # n is spanned by the translation part
    for m in dec.n_basis:
        assert all(m[i][j].is_zero()
                   for i in range(3) for j in range(2))


# -- Fitting decomposition and regular elements --------------------------------


def test_fitting_sl2_cartan():
    tw = tower()
    datum = sl2(tw)
    rows = datum.mats_to_rows(datum.basis)
    a0, a1 = datum.sc.fitting(rows, rows[:1])
    assert len(a0) == 1 and len(a1) == 2
    assert meq(datum.from_coords(a0[0]), datum.basis[0])


def test_fitting_whole_nilpotent_and_zero():
    tw = tower()
    # Heisenberg algebra inside gl(3)
    x = mat_from_ints(tw, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    y = mat_from_ints(tw, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    z = mat_from_ints(tw, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    datum = LieAlgebraDatum([x, y, z], tw)
    rows = datum.mats_to_rows(datum.basis)
    a0, a1 = datum.sc.fitting(rows, rows)
    assert len(a0) == 3 and a1 == []
    a0, a1 = datum.sc.fitting(rows, [])
    assert len(a0) == 3 and a1 == []


def test_regular_element_sl2_and_sl3():
    tw = tower()
    datum = sl2(tw)
    x = datum.sc.regular_element(datum.mats_to_rows([datum.basis[0]]))
    assert any(not c.is_zero() for c in x)
    datum3, h1, h2 = sl3(tw)
    x = datum3.sc.regular_element(datum3.mats_to_rows([h1, h2]))
    a0, _ = datum3.sc.fitting(datum3.mats_to_rows(datum3.basis), [x])
    assert len(a0) == 2


# -- conjugation of Cartan subalgebras -----------------------------------------


def test_conj_cartan_equal():
    tw = tower()
    h = mat_from_ints(tw, [[1, 0], [0, 0]])
    x = mat_from_ints(tw, [[0, 1], [0, 0]])
    datum = LieAlgebraDatum([h, x], tw)
    rows = datum.mats_to_rows([h])
    assert conj_cartan_solvable_sc(datum.sc, rows, rows) == []


def test_conj_cartan_one_step():
    tw = tower()
    h = mat_from_ints(tw, [[1, 0], [0, 0]])
    x = mat_from_ints(tw, [[0, 1], [0, 0]])
    datum = LieAlgebraDatum([h, x], tw)
    hx = mat_from_ints(tw, [[1, 1], [0, 0]])
    out = conj_cartan_solvable_sc(datum.sc, datum.mats_to_rows([h]),
                                  datum.mats_to_rows([hx]))
    assert len(out) == 1
    assert meq(datum.from_coords(out[0]),
               mat_from_ints(tw, [[0, -1], [0, 0]]))


def test_conj_cartan_nilpotent_unique():
    tw = tower()
    x = mat_from_ints(tw, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    y = mat_from_ints(tw, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    z = mat_from_ints(tw, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    datum = LieAlgebraDatum([x, y, z], tw)
    rows = datum.mats_to_rows(datum.basis)
    assert conj_cartan_solvable_sc(datum.sc, rows, rows) == []


# -- aligning a Cartan subalgebra with a decomposition ---------------------------


def _align_cartan(datum, h0_mats):
    dec = levi_decompose(datum)
    return align_cartan_sc(datum.sc, datum.mats_to_rows(h0_mats),
                           datum.mats_to_rows(dec.s_basis),
                           datum.mats_to_rows(dec.t_basis),
                           datum.mats_to_rows(dec.n_basis))


def test_align_cartan_reductive():
    tw = tower()
    datum = sl2(tw)
    h_s, h, xs = _align_cartan(datum, [datum.basis[0]])
    assert xs == []
    assert len(h) == 1 and len(h_s) == 1


def test_align_cartan_semidirect():
    tw = tower()
    datum = sl2_semidirect(tw)
    h = datum.basis[0]
    e1 = datum.basis[3]
    # a Cartan subalgebra shifted into the ideal: exp(ad e1)(h) = h - e1
    h_s, hnew, xs = _align_cartan(datum, [msub(h, e1)])
    assert len(hnew) == 1 and len(xs) >= 1
    assert meq(datum.from_coords(h_s[0]), h)
    # the conjugators are nilpotent and lie in the ideal
    for x in datum.rows_to_mats(xs):
        assert all(x[i][j].is_zero() for i in range(3) for j in range(2))


# -- Jordan decomposition, exp, log ----------------------------------------------


def test_exp_log_basic():
    tw = tower()
    x = mat_from_ints(tw, [[0, 1], [0, 0]])
    u = exp_nilpotent(x, tw)
    assert meq(u, mat_from_ints(tw, [[1, 1], [0, 1]]))
    assert meq(log_unipotent(u, tw), x)


def test_exp_inverse_property():
    tw = tower()
    for entries in ([[0, 2, 5], [0, 0, -3], [0, 0, 0]],
                    [[0, 1, 0], [0, 0, 1], [0, 0, 0]]):
        x = mat_from_ints(tw, entries)
        prod = mmul(exp_nilpotent(x, tw),
                    exp_nilpotent([[-v for v in row] for row in x], tw))
        assert meq(prod, meye(tw, 3))


def test_jordan_scaled_unipotent():
    tw = tower()
    g = mat_from_ints(tw, [[2, 2], [0, 2]])
    jp = jordan(g, tw)
    assert meq(jp.s, mat_from_ints(tw, [[2, 0], [0, 2]]))
    assert meq(jp.u, mat_from_ints(tw, [[1, 1], [0, 1]]))


def test_jordan_diagonalizable():
    tw = tower()
    g = mat_from_ints(tw, [[2, 1], [0, 3]])
    jp = jordan(g, tw)
    assert meq(jp.s, g)
    assert meq(jp.u, meye(tw, 2))


def test_additive_jordan():
    tw = tower()
    m = mat_from_ints(tw, [[1, 1], [0, 1]])
    s, n = additive_jordan(m, tw)
    assert meq(s, meye(tw, 2))
    assert meq(n, mat_from_ints(tw, [[0, 1], [0, 0]]))


def _companion(tw, coeffs):
    """Companion matrix of the monic x^d + c_{d-1} x^{d-1} + ... + c_0,
    coeffs = [c_0, ..., c_{d-1}]."""
    d = len(coeffs)
    rows = [[int(j == i + 1) for j in range(d)] for i in range(d - 1)]
    return mat_from_ints(tw, rows + [[-c for c in coeffs]])


def _block_diag(tw, blocks):
    n = sum(len(b) for b in blocks)
    out = mzeros(tw, n, n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def _jordan_part(tw, a, k):
    """(D, N) for the k-fold Jordan block over the semisimple matrix a:
    D = diag(a, ..., a), and N has identity blocks on the block
    superdiagonal, so [D, N] = 0 and N^k = 0."""
    d = len(a)
    dmat = _block_diag(tw, [a] * k)
    nmat = mzeros(tw, d * k, d * k)
    for i in range(d * (k - 1)):
        nmat[i][i + d] = tw.one()
    return dmat, nmat


# (block, number of copies in a Jordan block) for each part of D + N:
# "a", "b" are seeded Gaussian scalars, "q" the companion of x^2 - 3 and
# "c" that of the irreducible x^3 - 2; a block that appears twice, or in
# more than one copy, is a repeated eigenvalue
JORDAN_LAYOUTS = [
    [("c", 2), ("a", 4)],
    [("c", 1), ("c", 1), ("a", 3), ("a", 1)],
    [("c", 1), ("q", 2), ("a", 2), ("b", 1)],
    [("c", 2), ("q", 1), ("a", 1), ("b", 1), ("b", 1)],
]


@pytest.mark.parametrize("seed", range(len(JORDAN_LAYOUTS)))
def test_semisimple_part_of_conjugated_jordan_form(seed):
    """semisimple_part(C (D + N) C^-1) = C D C^-1 exactly, with seeded
    Gaussian-rational C, D from JORDAN_LAYOUTS and N made of Jordan blocks
    of size up to 4; the tower is not extended."""
    tw = tower()
    rng = random.Random(seed)

    def gauss():
        return (tw.from_rational(Fraction(rng.randint(-3, 3),
                                          rng.randint(1, 2)))
                + tw.from_rational(rng.randint(1, 2)) * tw.i())

    blocks = {"a": [[gauss()]], "b": [[gauss()]],
              "q": _companion(tw, [-3, 0]), "c": _companion(tw, [-2, 0, 0])}
    ds, ns = zip(*[_jordan_part(tw, blocks[name], k)
                   for name, k in JORDAN_LAYOUTS[seed]])
    dmat, nmat = _block_diag(tw, ds), _block_diag(tw, ns)
    n = len(dmat)
    while True:
        c = [[gauss() for _ in range(n)] for _ in range(n)]
        if len(rref_rows(c)) == n:
            break
    cinv = minverse(c, tw)
    mat = mmul(mmul(c, [[x + y for x, y in zip(r, q)]
                        for r, q in zip(dmat, nmat)]), cinv)
    assert meq(semisimple_part(mat, tw), mmul(mmul(c, dmat), cinv))
    assert tw.gens == []


def test_additive_jordan_irreducible_cubic():
    """(companion of x^3 - 2) + [[1, 1], [0, 1]]: the cubic does not split
    over the tower, and no root of it is needed."""
    tw = tower()
    cubic = _companion(tw, [-2, 0, 0])
    m = _block_diag(tw, [cubic, mat_from_ints(tw, [[1, 1], [0, 1]])])
    s, n = additive_jordan(m, tw)
    assert meq(s, _block_diag(tw, [cubic, meye(tw, 2)]))
    assert meq(n, _block_diag(tw, [mzeros(tw, 3, 3),
                                   mat_from_ints(tw, [[0, 1], [0, 0]])]))


def test_jordan_keeps_the_tower():
    """g has the eigenvalues +-sqrt(2), each in a 2x2 Jordan block (the
    companion of (x^2 - 2)^2); s and u stay over Q(i)."""
    tw = tower()
    g = _companion(tw, [4, 0, -4, 0])
    jp = jordan(g, tw)
    assert len(tw.gens) == 0
    assert meq(mmul(jp.s, jp.u), g)
    assert not meq(jp.u, meye(tw, 4))
    two = mat_from_ints(tw, [[2 * int(i == j) for j in range(4)]
                             for i in range(4)])
    assert meq(mmul(jp.s, jp.s), two)


# -- reductive projection ---------------------------------------------------------


def test_reductive_projection_semidirect():
    tw = tower()
    datum = sl2_semidirect(tw)
    dec = levi_decompose(datum)
    # unipotent translation: projects to the identity
    e1 = datum.basis[3]
    u = exp_nilpotent(e1, tw)
    assert meq(reductive_projection(datum, dec, u), meye(tw, 3))
    # element of the reductive subgroup: fixed
    g = mat_from_ints(tw, [[2, 0, 0], [0, 0, 0], [0, 0, 1]])
    g[1][1] = tw.from_rational(Fraction(1, 2))
    assert meq(reductive_projection(datum, dec, g), g)
    # semisimple element conjugated out of the reductive subgroup
    tr = meye(tw, 3)
    tr[0][2] = tw.from_rational(3)
    trinv = minverse(tr, tw)
    gshift = mmul(mmul(tr, g), trinv)
    assert not meq(gshift, g)
    assert meq(reductive_projection(datum, dec, gshift), g)
    # multiplicativity spot check
    prod = mmul(gshift, u)
    lhs = reductive_projection(datum, dec, prod)
    rhs = mmul(reductive_projection(datum, dec, gshift),
               reductive_projection(datum, dec, u))
    assert meq(lhs, rhs)


# -- root systems ------------------------------------------------------------------


def test_root_system_sl2():
    tw = tower()
    datum = sl2(tw)
    rd = root_system(datum, [datum.basis[0]], meye(tw, 2), meye(tw, 2))
    assert len(rd.roots) == 2
    assert len(rd.x_gens) == 1
    assert rd.cartan_matrix == [[2]]
    x = rd.x_gens[0]
    y = rd.y_gens[0]
    h = _mat_bracket(x, y)
    two_x = [[tw.from_rational(2) * v for v in row] for row in x]
    assert meq(_mat_bracket(h, x), two_x)


def _check_cartan_matrix(datum, rd):
    """[h_i, x_j] = A[i][j] x_j for the coroots h_i = [x_i, y_i]."""
    for i, (x, y) in enumerate(zip(rd.x_gens, rd.y_gens)):
        h = _mat_bracket(x, y)
        for j, xj in enumerate(rd.x_gens):
            a = datum.tower.from_rational(rd.cartan_matrix[i][j])
            assert meq(_mat_bracket(h, xj),
                       [[a * v for v in row] for row in xj])


def test_root_system_sl3():
    tw = tower()
    datum, h1, h2 = sl3(tw)
    rd = root_system(datum, [h1, h2], meye(tw, 3), meye(tw, 3))
    assert len(rd.roots) == 6
    assert len(rd.x_gens) == 2
    cm = rd.cartan_matrix
    assert cm[0][0] == 2 and cm[1][1] == 2
    assert cm[0][1] == -1 and cm[1][0] == -1
    _check_cartan_matrix(datum, rd)


def test_root_system_so5():
    tw = tower()
    datum, h1, h2 = split_so5(tw)
    rd = root_system(datum, [h1, h2], meye(tw, 5), meye(tw, 5))
    assert len(rd.roots) == 8
    assert len(rd.x_gens) == 2
    cm = rd.cartan_matrix
    assert cm[0][0] == 2 and cm[1][1] == 2
    assert cm[0][1] * cm[1][0] == 2
    _check_cartan_matrix(datum, rd)


def _diag_units(tw, units, diag):
    """The datum spanned by diag(diag) and the matrix units E_ij."""
    n = len(diag)
    h = mat_from_ints(tw, [[diag[i] if i == j else 0 for j in range(n)]
                           for i in range(n)])
    mats = [mat_from_ints(tw, [[int((i, j) == unit) for j in range(n)]
                               for i in range(n)]) for unit in units]
    return LieAlgebraDatum([h] + mats, tw, check_jacobi=True), h


@pytest.mark.parametrize("units,diag,code", [
    # E_12 and E_13 both have weight 1 for diag(1, 0, 0)
    ([(0, 1), (0, 2)], [1, 0, 0], "root-multiplicity"),
    # E_12 has weight 1 for diag(1, 0), and nothing has weight -1
    ([(0, 1)], [1, 0], "roots-not-symmetric"),
    # the identity centralizes E_12: its zero weight space is 2-dimensional
    ([(0, 1)], [1, 1], "cartan-failed"),
], ids=["multiplicity", "not-symmetric", "not-cartan"])
def test_root_system_error_codes(units, diag, code):
    tw = tower()
    datum, h = _diag_units(tw, units, diag)
    n = len(diag)
    with pytest.raises(LieError) as err:
        root_system(datum, [h], meye(tw, n), meye(tw, n))
    assert err.value.code == code


def test_root_system_needs_a_diagonalizing_matrix():
    tw = tower()
    datum = sl2(tw)
    c = mat_from_ints(tw, [[1, 1], [0, 1]])
    with pytest.raises(LieError) as err:
        root_system(datum, [datum.basis[0]], c, minverse(c, tw))
    assert err.value.code == "not-diagonalized"


def test_cartan_subalgebra_sl2():
    tw = tower()
    datum = sl2(tw)
    h = datum.sc.cartan_subalgebra()
    assert len(h) == 1


@lru_cache(maxsize=None)
def _catalog_datum(name):
    entry = catalog.get(name)
    return LieAlgebraDatum(entry.lie_basis, entry.tower)


@lru_cache(maxsize=None)
def _dense_table(name):
    """table[a][b] = coordinates of [X_a, X_b] for the basis matrices of the
    catalog entry, from their dense matrix brackets through datum.coords;
    SCAlgebra is not used."""
    datum = _catalog_datum(name)
    return [[datum.coords(_mat_bracket(x, y)) for y in datum.basis]
            for x in datum.basis]


def _dense_bracket(table, u, v):
    """[u, v] summed over every pair of nonzero coordinates and every entry
    of a dense structure-constant table."""
    out = [u[0].tower.zero()] * len(table)
    for a, x in enumerate(u):
        if x.is_zero():
            continue
        for b, y in enumerate(v):
            f = x * y
            out = [o + f * t for o, t in zip(out, table[a][b])]
    return out


@pytest.mark.parametrize("name", ["so(3,4)", "sl(4,r)", "su(2,1)"])
def test_sparse_bracket_matches_dense(name):
    sc = _catalog_datum(name).sc
    table = _dense_table(name)
    tower = sc.tower
    rng = random.Random(11)

    def coord():
        if rng.random() < 0.4:
            return tower.zero()
        return (tower.from_rational(Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 3)))
                + tower.from_rational(rng.randint(-2, 2)) * tower.i())

    for _ in range(4):
        u = [coord() for _ in range(sc.dim)]
        v = [coord() for _ in range(sc.dim)]
        assert sc.bracket(u, v) == _dense_bracket(table, u, v)


# every catalog name but mu2, a finite group with an empty lie_basis
LIE_NAMES = [name for name in catalog.list_names() if name != "mu2"]


@pytest.mark.parametrize("name", LIE_NAMES)
def test_antisymmetric_table_matches_full_table(name):
    """Each structure constant [e_a, e_b], read back as a matrix through
    from_coords, is the dense matrix bracket of the basis matrices; the
    coordinate reduction of LieAlgebraDatum is not used."""
    datum = _catalog_datum(name)
    sc = datum.sc
    e = sc.basis_rows()
    for a, x in enumerate(datum.basis):
        for b, y in enumerate(datum.basis):
            assert meq(datum.from_coords(sc.bracket(e[a], e[b])),
                       _mat_bracket(x, y))


def _dense_product_space(table, a, b):
    return rref_rows([_dense_bracket(table, x, y) for x in a for y in b])


def _dense_centralizer(table, a, b):
    """The kernel of x |-> ([x, y] for y in b) on span(a), from the full
    row of dense brackets of each a_i."""
    if not a:
        return []
    if not b:
        return rref_rows(a)
    system = [[z for y in b for z in _dense_bracket(table, x, y)] for x in a]
    return rref_rows([vmat(k, a)
                      for k in left_kernel(system, a[0][0].tower)])


@pytest.mark.parametrize("name", LIE_NAMES)
def test_sparse_subspace_operations_match_dense(name):
    """product_space, centralizer and center_of against dense brackets and
    left_kernel: on the whole algebra, and on seeded random subspaces."""
    sc = _catalog_datum(name).sc
    table = _dense_table(name)
    tower = sc.tower
    full = sc.basis_rows()
    assert sc.product_space(full, full) == _dense_product_space(table, full,
                                                                full)
    assert sc.center_of(full) == _dense_centralizer(table, full, full)
    rng = random.Random(29)

    def vector(terms):
        v = [tower.zero()] * sc.dim
        for c in rng.sample(range(sc.dim), min(terms, sc.dim)):
            v[c] = (tower.from_rational(Fraction(rng.choice([-3, -1, 1, 2]),
                                                 rng.randint(1, 2)))
                    + tower.from_rational(rng.randint(-1, 1)) * tower.i())
        return v

    for size in (1, 2, 3):
        a = [vector(2) for _ in range(size + 1)]
        b = [vector(1) for _ in range(size)]
        assert sc.product_space(a, b) == _dense_product_space(table, a, b)
        assert sc.centralizer(a, b) == _dense_centralizer(table, a, b)
        assert sc.center_of(a) == _dense_centralizer(table, a, a)
        assert sc.centralizer(full, b) == _dense_centralizer(table, full, b)


def test_center_of_gl2_matches_dense():
    """A center that is neither 0 nor the whole algebra: the scalars of
    gl(2)."""
    tw = tower()
    units = [mat_from_ints(tw, [[int((i, j) == unit) for j in range(2)]
                                for i in range(2)])
             for unit in ((0, 0), (0, 1), (1, 0), (1, 1))]
    datum = LieAlgebraDatum(units, tw)
    table = [[datum.coords(_mat_bracket(x, y)) for y in units] for x in units]
    full = datum.sc.basis_rows()
    center = datum.sc.center_of(full)
    assert len(center) == 1
    assert center == _dense_centralizer(table, full, full)
