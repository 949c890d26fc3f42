import random
from fractions import Fraction

import pytest

import realcoh.linalg as linalg
import realcoh.torus as torus
from realcoh import catalog
from realcoh.field import FieldError, FieldTower, parse_element
from realcoh.gammacoh import tate
from realcoh.linalg import (RealStructure, mat_from_ints, meq, meye,
                            minverse, mmul)
from realcoh.torus import (
    QuasiTorusDatum,
    TorusError,
    TorusPresentation,
    build_presentation,
    characters_to_lattice_map,
    h1_torus,
    h2_is_coboundary,
    h2_quasitorus,
    mono_apply,
    normalizer_action,
    root_of_minus_one,
    simultaneous_diagonalize,
    trivialize_cocycle,
)


def split_gm(tower):
    # {diag(t, 1/t)}: split one dimensional torus, real structure trivial
    basis = [mat_from_ints(tower, [[1, 0], [0, -1]])]
    return build_presentation(basis, RealStructure(meye(tower, 2), tower))


def compact_gm(tower):
    # SO(2, C) with entrywise conjugation: real points U(1)
    basis = [mat_from_ints(tower, [[0, 1], [-1, 0]])]
    return build_presentation(basis, RealStructure(meye(tower, 2), tower))


def induced_gm(tower):
    # full diagonal 2-torus with the swap real structure: real points C^x
    basis = [
        mat_from_ints(tower, [[1, 0], [0, 0]]),
        mat_from_ints(tower, [[0, 0], [0, 1]]),
    ]
    return build_presentation(
        basis, RealStructure(mat_from_ints(tower, [[0, 1], [1, 0]]), tower))


def _random_invertible(rng, tower, n):
    pool = []
    for _ in range(n * n):
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        pool.append(tower.from_rational(q) + rng.randint(-1, 1) * tower.i())
    while True:
        p = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        try:
            return p, minverse(p, tower)
        except FieldError:
            continue


def _assert_diagonalizes(mats, tower, n):
    c = simultaneous_diagonalize(mats, tower, n)
    cinv = minverse(c, tower)
    for a in mats:
        dm = mmul(mmul(cinv, a), c)
        assert all(dm[i][j].is_zero()
                   for i in range(n) for j in range(n) if i != j)


@pytest.mark.parametrize("diagonals", [
    # the second matrix splits one 2-dimensional eigenspace of the first
    # into lines and is scalar on the other
    [[1, 1, 2, 2], [3, 4, 3, 3]],
    # a scalar matrix, then distinct eigenvalues: every space a line
    [[5, 5, 5], ["i", "-i", 0], [1, 2, 3]],
    # a repeated eigenvalue that no later matrix splits
    [[0, 2, 2, 0, 7], [1, 1, 1, 1, 1]],
])
def test_simultaneous_diagonalize_commuting_families(diagonals):
    rng = random.Random(17)
    tower = FieldTower()
    for _ in range(3):
        n = len(diagonals[0])
        p, pinv = _random_invertible(rng, tower, n)
        mats = []
        for diag in diagonals:
            d = meye(tower, n)
            for k, x in enumerate(diag):
                d[k][k] = parse_element(str(x), tower)
            mats.append(mmul(mmul(p, d), pinv))
        _assert_diagonalizes(mats, tower, n)


def test_simultaneous_diagonalize_equal_diagonal_entries():
    # not scalar, although every diagonal entry is the same
    tower = FieldTower()
    swap = mat_from_ints(tower, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    _assert_diagonalizes([swap, mat_from_ints(tower, [[2, 0, 0], [0, 2, 0],
                                                      [0, 0, 5]])], tower, 3)


@pytest.mark.parametrize("basis", [[[1, 1], [0, 1]], [[0, 1], [0, 0]]])
def test_non_semisimple_basis_is_rejected(basis):
    tower = FieldTower()
    with pytest.raises(TorusError) as err:
        build_presentation([mat_from_ints(tower, basis)],
                           RealStructure(meye(tower, 2), tower))
    assert err.value.code == "not-semisimple"


def test_split_presentation():
    tower = FieldTower()
    t = split_gm(tower)
    assert t.d == 1
    assert (t.k, t.l, t.r) == (0, 1, 0)
    assert h1_torus(t).order() == 1


def test_compact_presentation():
    tower = FieldTower()
    t = compact_gm(tower)
    assert t.d == 1
    assert (t.k, t.l, t.r) == (1, 0, 0)
    res = h1_torus(t)
    assert res.order() == 2
    # the nontrivial class is -identity (the rotation by pi)
    nontriv = [m for m, s in zip(res.representatives, res.sign_patterns)
               if s == [-1]][0]
    minus = mat_from_ints(tower, [[-1, 0], [0, -1]])
    assert meq(nontriv, minus)


def test_induced_presentation():
    tower = FieldTower()
    t = induced_gm(tower)
    assert t.d == 2
    assert (t.k, t.l, t.r) == (0, 0, 1)
    assert h1_torus(t).order() == 1


def test_product_torus_counts():
    # two compact blocks and one split block: 2^2 classes
    tower = FieldTower()
    z = [[0] * 6 for _ in range(6)]

    def put(block, r, c):
        for i in range(2):
            for j in range(2):
                z_ = block[i][j]
                mat[r + i][c + j] = z_

    rot = [[0, 1], [-1, 0]]
    basis = []
    for pos, blk in ((0, rot), (2, rot), (4, [[1, 0], [0, -1]])):
        mat = [row[:] for row in z]
        put(mat, pos, pos)
        blk_save = blk
        mat2 = [row[:] for row in z]
        for i in range(2):
            for j in range(2):
                mat2[pos + i][pos + j] = blk_save[i][j]
        basis.append(mat_from_ints(tower, mat2))
    t = build_presentation(basis, RealStructure(meye(tower, 6), tower))
    assert (t.k, t.l, t.r) == (2, 1, 0)
    assert h1_torus(t).order() == 4


def test_lambda_inverse_roundtrip():
    tower = FieldTower()
    t = split_gm(tower)
    coords = [tower.from_rational(Fraction(3, 7)) + tower.i()]
    g = t.lam(coords)
    back = t.lambda_inverse(g)
    assert back is not None and back[0] == coords[0]
    # identity
    assert t.lambda_inverse(meye(tower, 2)) == [tower.one()]
    # not a member
    outside = mat_from_ints(tower, [[2, 0], [0, 3]])
    assert t.lambda_inverse(outside) is None
    assert not t.membership(outside)


def test_evaluation_isomorphism_orders():
    tower = FieldTower()
    for t in (split_gm(tower), compact_gm(tower), induced_gm(tower)):
        lattice_order = tate(t.cocharacter_module(), 1).order()
        assert h1_torus(t).order() == lattice_order


def test_trivialize_compact_positive():
    tower = FieldTower()
    t = compact_gm(tower)
    z = t.lam([tower.from_rational(4)])
    rep, signs, s = trivialize_cocycle(t, z)
    assert signs == [1]
    assert meq(rep, meye(tower, 2))
    assert meq(s, t.lam([tower.from_rational(2)]))


def test_trivialize_compact_negative():
    tower = FieldTower()
    t = compact_gm(tower)
    z = t.lam([tower.from_rational(-9)])
    rep, signs, s = trivialize_cocycle(t, z)
    assert signs == [-1]
    assert meq(s, t.lam([tower.from_rational(3)]))


def test_trivialize_split_unit_modulus():
    tower = FieldTower()
    t = split_gm(tower)
    u = (tower.from_rational(3) + 4 * tower.i()) / 5
    rep, signs, s = trivialize_cocycle(t, [u])
    assert signs == []
    assert meq(rep, meye(tower, 2))


def test_trivialize_induced():
    tower = FieldTower()
    t = induced_gm(tower)
    u = tower.from_rational(2) + tower.i()
    z = [u, u.conj().inverse()]
    rep, signs, s = trivialize_cocycle(t, z)
    assert meq(rep, meye(tower, 2))


@pytest.mark.parametrize("make,n", [
    (split_gm, [[0, 1], [1, 0]]),
    (compact_gm, [[1, 0], [0, -1]]),
], ids=["split-swap", "compact-reflection"])
def test_normalizer_action_inverts_a_rank_one_torus(make, n):
    # both n invert the torus and are real, so W = -1 and c = 1; the
    # coordinate twist agrees with the matrix twist n^-1 lam(x) gamma(n)
    tower = FieldTower()
    t = make(tower)
    n = mat_from_ints(tower, n)
    ninv = minverse(n, tower)
    w, c = normalizer_action(t, n, ninv)
    assert w == [[-1]]
    assert c == [tower.one()]
    x = [tower.from_rational(3) + tower.i()]
    twisted = [a * b for a, b in zip(mono_apply(x, w), c)]
    assert meq(t.lam(twisted), mmul(mmul(ninv, t.lam(x)), t.real.gamma(n)))


@pytest.mark.parametrize("basis,n,message", [
    # a unipotent n does not keep the torus diagonal
    ([[1, 0], [0, -1]], [["1", "1"], ["0", "1"]],
     "n^-1 t n is not diagonal in C"),
    # the swap keeps diagonal matrices diagonal, but moves {diag(t, 1)}
    # to {diag(1, t)}, which is not a subtorus of T
    ([[1, 0], [0, 0]], [["0", "1"], ["1", "0"]],
     "n^-1 t n is not a cocharacter of T"),
    # n inverts {diag(t, 1/t)}, but n^-1 gamma(n) = diag(-1, 1) is not in T
    ([[1, 0], [0, -1]], [["0", "1"], ["i", "0"]],
     "n^-1 gamma(n) is not in T"),
], ids=["not-diagonal", "not-a-cocharacter", "displacement-outside-T"])
def test_normalizer_action_rejects_a_non_normalizer(basis, n, message):
    tower = FieldTower()
    t = build_presentation([mat_from_ints(tower, basis)],
                           RealStructure(meye(tower, 2), tower))
    n = [[parse_element(x, tower) for x in row] for row in n]
    with pytest.raises(TorusError) as err:
        normalizer_action(t, n, minverse(n, tower))
    assert err.value.code == "not-normalizer"
    assert str(err.value) == message


def test_trivialize_rejects_non_cocycle():
    tower = FieldTower()
    t = compact_gm(tower)
    with pytest.raises(TorusError) as err:
        trivialize_cocycle(t, [tower.i()])
    assert err.value.code == "not-cocycle"


def test_trivialize_wrong_witness_is_coded_error(monkeypatch):
    # a wrong square root gives a witness s with s^-1 z gamma(s) != rep;
    # the exact check raises a coded error rather than an assert
    tower = FieldTower()
    t = compact_gm(tower)
    monkeypatch.setattr(tower, "sqrt", lambda x: x)
    with pytest.raises(TorusError) as err:
        trivialize_cocycle(t, t.lam([tower.from_rational(4)]))
    assert err.value.code == "witness-verification-failed"


@pytest.mark.parametrize("name", ["torus:e", "torus:f", "torus:d",
                                  "torus:fe", "torus:fd", "torus:fed"])
def test_trivialize_inverts_no_matrix(name, monkeypatch):
    """The witness check takes s^-1 = mu(v^-1) from the mu-coordinates v of
    s: with every matrix inverse of the torus layer and of RealStructure
    refused, the listed representatives and a seeded twist of each by a
    complex point of T still get verified witnesses."""
    t = catalog.get(name, FieldTower()).group
    tower = t.tower
    res = h1_torus(t)
    rng = random.Random(2021)
    inputs = []
    for signs, z in zip(res.sign_patterns, res.representatives):
        s = t.lam([tower.from_rational(rng.randint(1, 3))
                   + rng.randint(-2, 2) * tower.i() for _ in range(t.d)])
        inputs += [(signs, z, z), (signs, z, t.real.twist(s, z))]

    def refuse(*args):
        raise AssertionError("matrix inverse in trivialize_cocycle")

    monkeypatch.setattr(torus, "minverse", refuse)
    monkeypatch.setattr(linalg, "minverse", refuse)
    results = [trivialize_cocycle(t, z) for _, _, z in inputs]
    monkeypatch.undo()
    for (signs, listed, z), (rep, got, s) in zip(inputs, results):
        assert got == signs
        assert meq(rep, listed)
        assert meq(mmul(mmul(minverse(s, tower), z), t.real.gamma(s)), rep)


@pytest.mark.parametrize("name", ["torus:e", "torus:f", "torus:d",
                                  "torus:fe", "torus:fd", "torus:fed",
                                  "su(2,0)", "sl(3,r)", "su(2,1)"])
def test_trivialize_twists_no_matrix(name, monkeypatch):
    """The witness check runs on diagonals in the eigenframe: with every
    matrix inverse, RealStructure.twist and RealStructure.gamma refused, the
    listed representatives and seeded twists of each by a complex point of
    T, as matrices and as coordinate vectors, get verified witnesses."""
    group = catalog.get(name, FieldTower()).group
    t = getattr(group, "torus", group)
    tower = t.tower
    res = h1_torus(t)
    rng = random.Random(2027)
    inputs = []
    for signs, z in zip(res.sign_patterns, res.representatives):
        s = t.lam([tower.from_rational(rng.randint(1, 3))
                   + rng.randint(-2, 2) * tower.i() for _ in range(t.d)])
        zt = t.real.twist(s, z)
        inputs += [(signs, z, z), (signs, zt, zt),
                   (signs, zt, t.lambda_inverse(zt))]

    def refuse(*args):
        raise AssertionError("inverse, twist or gamma in trivialize_cocycle")

    monkeypatch.setattr(torus, "minverse", refuse)
    monkeypatch.setattr(linalg, "minverse", refuse)
    monkeypatch.setattr(linalg.RealStructure, "twist", refuse)
    monkeypatch.setattr(linalg.RealStructure, "gamma", refuse)
    results = [trivialize_cocycle(t, arg) for _, _, arg in inputs]
    monkeypatch.undo()
    for (signs, z, _), (rep, got, s) in zip(inputs, results):
        assert got == signs
        assert meq(mmul(mmul(minverse(s, tower), z), t.real.gamma(s)), rep)


def _reference_lambda_inverse(t, mat):
    """Coordinates of mat in T read from the dense C^-1 * mat * C."""
    dm = mmul(mmul(t.cinv, mat), t.c)
    if any(not dm[i][j].is_zero()
           for i in range(t.n) for j in range(t.n) if i != j):
        return None
    alphas = [dm[i][i] for i in range(t.n)]
    if any(x.is_zero() for x in alphas):
        return None
    t_full = mono_apply(alphas, [list(col) for col in zip(*t.p)])
    if any(x != 1 for x in t_full[t.d:]):
        return None
    return t_full[: t.d]


@pytest.mark.parametrize("name", ["split", "compact", "induced", "torus:fe",
                                  "torus:fed", "sl(3,r)", "su(2,1)"])
def test_lambda_inverse_matches_the_dense_reference(name):
    """lambda_inverse reads the diagonal from mat * C alone; it agrees with
    the dense C^-1 * mat * C on members and on three kinds of non-member:
    an off-diagonal entry changed, a zero eigenvalue, and a diagonal
    element outside the lattice of M.  Where a column of C has two nonzero
    entries, a member with one entry of mat * C changed off the pivot is a
    fourth: its pivots still read a point of T."""
    tower = FieldTower()
    makers = {"split": split_gm, "compact": compact_gm,
              "induced": induced_gm}
    if name in makers:
        t = makers[name](tower)
    else:
        group = catalog.get(name, tower).group
        t = getattr(group, "torus", group)
    rng = random.Random(31)
    n = t.n

    def conjugate(diag):
        d = [[diag[i] if i == j else tower.zero() for j in range(n)]
             for i in range(n)]
        return mmul(mmul(t.c, d), t.cinv)

    members = [meye(tower, n)] + [
        t.lam([tower.from_rational(Fraction(rng.randint(1, 5),
                                            rng.randint(1, 3)))
               + rng.randint(-2, 2) * tower.i() for _ in range(t.d)])
        for _ in range(3)]
    changed = [row[:] for row in members[1]]
    changed[0][n - 1] = changed[0][n - 1] + 1
    primes = [tower.from_rational(p) for p in (2, 3, 5, 7, 11, 13)[:n]]
    zero = conjugate([tower.zero()] + primes[1:])
    outside = conjugate(primes)
    skewed = []
    for j in range(n):
        rows = [i for i in range(n) if not t.c[i][j].is_zero()]
        if len(rows) > 1:
            mc = mmul(members[1], t.c)
            mc[rows[1]][j] = mc[rows[1]][j] + 1
            skewed.append(mmul(mc, t.cinv))
            break
    for mat in members + [changed, zero, outside] + skewed:
        got = t.lambda_inverse(mat)
        want = _reference_lambda_inverse(t, mat)
        assert (got is None) == (want is None)
        if got is not None:
            assert all(x == y for x, y in zip(got, want))
            assert meq(t.lam(got), mat)
    assert all(t.lambda_inverse(mat) is not None for mat in members)
    assert t.lambda_inverse(changed) is None
    assert t.lambda_inverse(zero) is None
    assert (t.lambda_inverse(outside) is None) == (t.d < n)
    assert all(t.lambda_inverse(mat) is None for mat in skewed)
    assert skewed or meq(t.c, meye(tower, n))


def test_trivialize_checks_the_matrix_it_was_given(monkeypatch):
    # the diagonal of z mapped to the coordinates of another element of T:
    # the witness is checked against the diagonal of z itself, not against
    # alpha(coordinates)
    tower = FieldTower()
    t = compact_gm(tower)
    assert t.k == 1
    other = t.mu_to_lam(t.pattern_mu([-1]))
    monkeypatch.setattr(TorusPresentation, "diagonal_coords",
                        lambda self, diag: other)
    with pytest.raises(TorusError) as err:
        trivialize_cocycle(t, meye(tower, 2))
    assert err.value.code == "witness-verification-failed"


def test_mu2_in_split_gm():
    tower = FieldTower()
    t = split_gm(tower)
    q = QuasiTorusDatum(t, [[2]], [[1]])
    res = h2_quasitorus(q)
    assert res.order() == 2
    minus = mat_from_ints(tower, [[-1, 0], [0, -1]])
    nontrivial = [m for m in res.representatives
                  if not meq(m, meye(tower, 2))]
    assert len(nontrivial) == 1
    assert meq(nontrivial[0], minus)


def test_mu2_in_compact_gm():
    tower = FieldTower()
    t = compact_gm(tower)
    q = QuasiTorusDatum(t, [[2]], [[-1]])
    res = h2_quasitorus(q)
    assert res.order() == 2
    for m in res.representatives:
        # every representative is gamma-fixed and squares into the kernel
        assert meq(t.real.gamma(m), m)
        assert meq(mmul(m, m), meye(tower, 2))


def test_h2_full_split_torus():
    tower = FieldTower()
    t = split_gm(tower)
    q = QuasiTorusDatum(t, [[] for _ in range(1)], [],
                        component_torus=t,
                        component_reps=[meye(tower, 2)])
    res = h2_quasitorus(q)
    assert res.order() == 2
    # coboundary tests on the full torus
    four = t.lam([tower.from_rational(4)])
    s = h2_is_coboundary(q, four)
    assert s is not None
    assert meq(mmul(s, t.real.gamma(s)), four)
    minus = t.lam([tower.from_rational(-1)])
    assert h2_is_coboundary(q, minus) is None


def test_h2_full_compact_torus():
    tower = FieldTower()
    t = compact_gm(tower)
    q = QuasiTorusDatum(t, [[] for _ in range(1)], [],
                        component_torus=t,
                        component_reps=[meye(tower, 2)])
    res = h2_quasitorus(q)
    # compact factor: H^2 is trivial, every fixed element is a norm
    assert res.order() == 1
    minus = t.lam([tower.from_rational(-1)])
    s = h2_is_coboundary(q, minus)
    assert s is not None
    assert meq(mmul(s, t.real.gamma(s)), minus)


def test_h2_full_induced_torus():
    tower = FieldTower()
    t = induced_gm(tower)
    q = QuasiTorusDatum(t, [[] for _ in range(2)], [],
                        component_torus=t,
                        component_reps=[meye(tower, 2)])
    u = tower.from_rational(2) + 3 * tower.i()
    c = t.lam([u, u.conj()])
    s = h2_is_coboundary(q, c)
    assert s is not None
    assert meq(mmul(s, t.real.gamma(s)), c)


def test_finite_subgroup_coboundary_loop():
    # mu_2 inside split G_m as a zero dimensional quasi-torus with two
    # components; -1 is not a norm from mu_2 itself
    tower = FieldTower()
    t = split_gm(tower)
    minus = t.lam([tower.from_rational(-1)])
    q = QuasiTorusDatum(t, [[2]], [[1]],
                        component_torus=None,
                        component_reps=[meye(tower, 2), minus])
    assert h2_is_coboundary(q, minus) is None
    s = h2_is_coboundary(q, meye(tower, 2))
    assert s is not None


def test_characters_to_lattice_map():
    tower = FieldTower()
    t = split_gm(tower)
    # A = mu_2 is the kernel of the character t -> t^2
    partial, qtau = characters_to_lattice_map(t, [[2]])
    assert partial == [[2]]
    assert qtau == [[1]]
    res = h2_quasitorus(QuasiTorusDatum(t, partial, qtau))
    assert res.order() == 2


def test_embedding_independence():
    # mu_2 in split G_m vs mu_2 embedded diagonally in the induced torus
    tower = FieldTower()
    t1 = split_gm(tower)
    q1 = QuasiTorusDatum(t1, [[2]], [[1]])
    t2 = induced_gm(tower)
    # X_*(T2) = Z^2 with swap; A = mu_2 diagonal: quotient lattice has basis
    # u = (1,1)/.. : cocharacters map by e1 -> (1,0), e2 -> (0,1) with
    # X_*(T') spanned by (1/2)(e1+e2) and e1: e1 = v, e2 = 2u - v
    q2 = QuasiTorusDatum(t2, [[0, 1], [2, -1]], [[1, 2], [0, -1]])
    r1 = h2_quasitorus(q1)
    r2 = h2_quasitorus(q2)
    assert r1.order() == r2.order() == 2


def test_invalid_real_structure_rejected():
    tower = FieldTower()
    basis = [mat_from_ints(tower, [[1, 0], [0, 0]])]
    swap = mat_from_ints(tower, [[0, 1], [1, 0]])
    with pytest.raises(TorusError) as err:
        build_presentation(basis, RealStructure(swap, tower))
    assert err.value.code == "invalid-real-structure"


def test_root_of_minus_one():
    tower = FieldTower()
    for m in (1, 2, 3, 4, 6, 8, 12):
        y = root_of_minus_one(tower, m)
        assert y ** m == -1


def test_root_of_minus_one_wrong_root_is_coded_error(monkeypatch):
    tower = FieldTower()
    monkeypatch.setattr(tower, "sqrt", lambda x: tower.one())
    with pytest.raises(TorusError) as err:
        root_of_minus_one(tower, 4)
    assert err.value.code == "root-verification-failed"
