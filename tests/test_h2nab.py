from fractions import Fraction

import pytest

from realcoh import h2nab
from realcoh.field import FieldTower
from realcoh.h2nab import (
    H2Error,
    act,
    chevalley_cover,
    delta,
    make_cocycle2,
    neutralize_reductive,
    root_of_unity,
    _mono_solve,
)
from realcoh.lattice import diagonal_form, snf
from realcoh.linalg import mat_from_ints, meq, meye, minverse, mmul
from realcoh.reductive import build_reductive
from realcoh.torus import (QuasiTorusDatum, build_presentation,
                          h2_is_coboundary, h2_quasitorus)


def sl2r(tower):
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    f = mat_from_ints(tower, [[0, 0], [1, 0]])
    return build_reductive([h, e, f], meye(tower, 2), tower)


def split_gm(tower):
    return build_reductive([mat_from_ints(tower, [[1]])], meye(tower, 1),
                           tower)


def gl2_basis(tower):
    return [mat_from_ints(tower, [[int(i == a and j == b) for j in range(2)]
                                  for i in range(2)])
            for a in range(2) for b in range(2)]


# -- cocycle type, delta, act ------------------------------------------------------


def test_delta_trivial_lift():
    tower = FieldTower()
    basis = gl2_basis(tower)
    c = delta(meye(tower, 2), meye(tower, 2), basis, tower)
    assert meq(c.a, meye(tower, 2))
    m = [[tower.from_rational(3), tower.i()], [tower.zero(), tower.one()]]
    assert meq(c.f(m), [[x.conj() for x in row] for row in m])


def test_delta_real_involution():
    tower = FieldTower()
    basis = gl2_basis(tower)
    sym = mat_from_ints(tower, [[0, 1], [1, 0]])
    c = delta(sym, meye(tower, 2), basis, tower)
    assert meq(c.a, meye(tower, 2))


def test_delta_rotation_gives_minus_one():
    tower = FieldTower()
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    c = delta(rot, meye(tower, 2), [rot], tower)
    assert meq(c.a, mat_from_ints(tower, [[-1, 0], [0, -1]]))
    assert meq(c.f(rot), rot)


def test_act_is_left_action():
    tower = FieldTower()
    basis = gl2_basis(tower)
    b = [[tower.from_rational(2), tower.i()],
         [tower.zero(), tower.one()]]
    c = delta(b, meye(tower, 2), basis, tower)
    s1 = mat_from_ints(tower, [[1, 3], [0, 1]])
    s2 = [[tower.i(), tower.zero()], [tower.one(), tower.one()]]
    lhs = act(s1, act(s2, c))
    rhs = act(mmul(s1, s2), c)
    assert meq(lhs.a, rhs.a) and meq(lhs.m_f, rhs.m_f)


def test_delta_commutes_with_act():
    tower = FieldTower()
    basis = gl2_basis(tower)
    b = [[tower.one(), tower.i()], [tower.zero(), tower.from_rational(-1)]]
    s = [[tower.from_rational(2), tower.one()],
         [tower.i(), tower.one()]]
    lhs = delta(mmul(s, b), meye(tower, 2), basis, tower)
    rhs = act(s, delta(b, meye(tower, 2), basis, tower))
    assert meq(lhs.a, rhs.a) and meq(lhs.m_f, rhs.m_f)


def test_make_cocycle_rejects_bad_pair():
    tower = FieldTower()
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    a = [[tower.from_rational(2), tower.zero()],
         [tower.zero(), tower.from_rational(Fraction(1, 2))]]
    with pytest.raises(H2Error) as err:
        make_cocycle2(tower, [h, e], a, meye(tower, 2))
    assert err.value.code == "not-cocycle"


# -- integer helpers --------------------------------------------------------------


def test_snf_any_handles_rank_deficiency():
    for mat in ([[0, 0], [0, 0]], [[2, 4], [1, 2]], [[6]], [[0]],
                [[2, 3, 5], [4, 6, 10]]):
        a, p, q = diagonal_form(mat)
        rows, cols = len(mat), len(mat[0])
        prod = [[sum(p[i][k] * mat[k][j] for k in range(rows))
                 for j in range(cols)] for i in range(rows)]
        prod = [[sum(prod[i][k] * q[k][j] for k in range(cols))
                 for j in range(cols)] for i in range(rows)]
        assert prod == a
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert a[i][j] == 0


def test_mono_solve_needs_the_diagonal_form(monkeypatch):
    # on diag(2, 3) squares have any root and cubes only the root of 1;
    # the Smith form diag(1, 6) would ask for a sixth root of -1
    tower = FieldTower()
    emat = [[2, 0], [0, 3]]
    for target in ([-1, 1], [2, 1]):
        t = [tower.from_rational(x) for x in target]
        u = _mono_solve(emat, t, tower)
        assert u is not None and [u[0] ** 2, u[1] ** 3] == t
    monkeypatch.setattr(h2nab, "diagonal_form", snf)
    assert _mono_solve(emat, [-tower.one(), tower.one()], tower) is None


def test_mono_solve_square_root_system():
    tower = FieldTower()
    # y1^2 = 4 and trivial second equation
    u = _mono_solve([[2], [0]], [tower.from_rational(4)], tower)
    assert u is not None
    got = u[0] * u[0]
    assert got == 4
    # inconsistent zero row
    assert _mono_solve([[0]], [tower.from_rational(4)], tower) is None


# -- covers ------------------------------------------------------------------------


def test_chevalley_cover_sl2_center():
    tower = FieldTower()
    g = sl2r(tower)
    center = chevalley_cover(g)
    assert len(center) == 2
    minus = mat_from_ints(tower, [[-1, 0], [0, -1]])
    assert any(meq(z, meye(tower, 2)) for z in center)
    assert any(meq(z, minus) for z in center)


# -- neutralization: reductive ----------------------------------------------------


def test_neutralize_trivial_cocycle():
    tower = FieldTower()
    g = sl2r(tower)
    basis = [mat_from_ints(tower, m) for m in
             ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])]
    c = make_cocycle2(tower, basis, meye(tower, 2), meye(tower, 2))
    res = neutralize_reductive(g, c)
    assert res.neutral and meq(res.witness, meye(tower, 2))


def test_split_gm_minus_one_not_neutral():
    tower = FieldTower()
    g = split_gm(tower)
    c = make_cocycle2(tower, [mat_from_ints(tower, [[1]])],
                      mat_from_ints(tower, [[-1]]), meye(tower, 1))
    res = neutralize_reductive(g, c)
    assert not res.neutral and res.witness is None
    # the verdict rests on H^2 of the split torus: order 2, and the class of
    # -1 is not a coboundary
    pres = build_presentation([mat_from_ints(tower, [[1]])], meye(tower, 1),
                              tower)
    datum = QuasiTorusDatum(pres, [[]], [], pres, [meye(tower, 1)])
    assert h2_quasitorus(datum).order() == 2
    assert h2_is_coboundary(datum, mat_from_ints(tower, [[-1]])) is None


def test_sl2_minus_one_is_neutral():
    tower = FieldTower()
    g = sl2r(tower)
    basis = [mat_from_ints(tower, m) for m in
             ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])]
    minus = mat_from_ints(tower, [[-1, 0], [0, -1]])
    # oracle: the rotation by a quarter turn neutralizes (-1, conj) directly
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    assert meq(mmul(mmul(w, w), minus), meye(tower, 2))
    c = make_cocycle2(tower, basis, minus, meye(tower, 2))
    res = neutralize_reductive(g, c, center=chevalley_cover(g))
    assert res.neutral
    d = res.witness
    assert meq(mmul(mmul(d, c.f(d)), c.a), meye(tower, 2))


def test_conjugator_hint_restores_cartan():
    tower = FieldTower()
    g = sl2r(tower)
    basis = [mat_from_ints(tower, m) for m in
             ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])]
    u = mat_from_ints(tower, [[1, 1], [0, 1]])
    a = mmul(u, u)
    c = make_cocycle2(tower, basis, a, u)
    center = chevalley_cover(g)
    with pytest.raises(H2Error) as err:
        neutralize_reductive(g, c, center=center)
    assert err.value.code == "conjugator-unavailable"
    res = neutralize_reductive(g, c, center=center,
                               conjugator_hint=minverse(u, tower))
    assert res.neutral
    d = res.witness
    assert meq(mmul(mmul(d, c.f(d)), c.a), meye(tower, 2))


def test_root_of_unity():
    tower = FieldTower()
    for n in (1, 2, 3, 4, 6, 8, 12):
        z = root_of_unity(tower, n)
        assert z ** n == 1 and all(z ** k != 1 for k in range(1, n))


def test_root_of_unity_wrong_root_is_coded_error(monkeypatch):
    tower = FieldTower()
    monkeypatch.setattr(tower, "sqrt", lambda x: tower.one())
    with pytest.raises(H2Error) as err:
        root_of_unity(tower, 8)
    assert err.value.code == "root-of-unity-verification-failed"
