from fractions import Fraction

import pytest

from realcoh import h2nab, linalg
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
from realcoh.linalg import (RealStructure, mat_from_ints, mconj, meq, meye,
                            minverse, mmul, mscale)
from realcoh.reductive import build_reductive
from realcoh.torus import (QuasiTorusDatum, build_presentation,
                          h2_is_coboundary, h2_quasitorus)


def sl2r(tower):
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    f = mat_from_ints(tower, [[0, 0], [1, 0]])
    return build_reductive([h, e, f], RealStructure(meye(tower, 2), tower))


def split_gm(tower):
    return build_reductive([mat_from_ints(tower, [[1]])],
                           RealStructure(meye(tower, 1), tower))


def gl2_basis(tower):
    return [mat_from_ints(tower, [[int(i == a and j == b) for j in range(2)]
                                  for i in range(2)])
            for a in range(2) for b in range(2)]


# -- cocycle type, delta, act ------------------------------------------------------


def test_delta_trivial_lift():
    tower = FieldTower()
    basis = gl2_basis(tower)
    c = delta(meye(tower, 2), RealStructure(meye(tower, 2), tower), basis)
    assert meq(c.a, meye(tower, 2))
    m = [[tower.from_rational(3), tower.i()], [tower.zero(), tower.one()]]
    assert meq(c.real.gamma(m), [[x.conj() for x in row] for row in m])


def test_delta_real_involution():
    tower = FieldTower()
    basis = gl2_basis(tower)
    sym = mat_from_ints(tower, [[0, 1], [1, 0]])
    c = delta(sym, RealStructure(meye(tower, 2), tower), basis)
    assert meq(c.a, meye(tower, 2))


def test_delta_rotation_gives_minus_one():
    tower = FieldTower()
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    c = delta(rot, RealStructure(meye(tower, 2), tower), [rot])
    assert meq(c.a, mat_from_ints(tower, [[-1, 0], [0, -1]]))
    assert meq(c.real.gamma(rot), rot)


def test_act_is_left_action():
    tower = FieldTower()
    basis = gl2_basis(tower)
    b = [[tower.from_rational(2), tower.i()],
         [tower.zero(), tower.one()]]
    c = delta(b, RealStructure(meye(tower, 2), tower), basis)
    s1 = mat_from_ints(tower, [[1, 3], [0, 1]])
    s2 = [[tower.i(), tower.zero()], [tower.one(), tower.one()]]
    lhs = act(s1, act(s2, c))
    rhs = act(mmul(s1, s2), c)
    assert meq(lhs.a, rhs.a) and meq(lhs.real.nsigma, rhs.real.nsigma)


def test_delta_commutes_with_act():
    tower = FieldTower()
    basis = gl2_basis(tower)
    b = [[tower.one(), tower.i()], [tower.zero(), tower.from_rational(-1)]]
    s = [[tower.from_rational(2), tower.one()],
         [tower.i(), tower.one()]]
    lhs = delta(mmul(s, b), RealStructure(meye(tower, 2), tower), basis)
    rhs = act(s, delta(b, RealStructure(meye(tower, 2), tower), basis))
    assert meq(lhs.a, rhs.a) and meq(lhs.real.nsigma, rhs.real.nsigma)


def test_make_cocycle_rejects_bad_pair():
    tower = FieldTower()
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    a = [[tower.from_rational(2), tower.zero()],
         [tower.zero(), tower.from_rational(Fraction(1, 2))]]
    with pytest.raises(H2Error) as err:
        make_cocycle2([h, e], a, RealStructure(meye(tower, 2), tower))
    assert err.value.code == "not-cocycle"


def test_make_cocycle_rejects_a_moved_by_f():
    # a = i is scalar, so f^2 = 1 = inn(a) on the basis, but f(a) = -i
    tower = FieldTower()
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    a = mscale(tower.i(), meye(tower, 2))
    with pytest.raises(H2Error) as err:
        make_cocycle2([h], a, RealStructure(meye(tower, 2), tower))
    assert err.value.code == "not-cocycle"
    assert "f(a)" in str(err.value)


def _formed_verdict(lie_basis, a, m, tower):
    """The two cocycle identities checked with f(x) = M conj(x) M^-1 and
    a^-1 formed: None when both hold, else the message tag of the first
    that fails."""
    m_inv = minverse(m, tower)

    def f(x):
        return mmul(mmul(m, mconj(x)), m_inv)

    if not meq(f(a), a):
        return "f(a)"
    a_inv = minverse(a, tower)
    if any(not meq(f(f(x)), mmul(mmul(a, x), a_inv)) for x in lie_basis):
        return "f^2"
    return None


def test_make_cocycle_checks_match_the_formed_map():
    """make_cocycle2 accepts exactly the pairs that pass the identities with
    f and a^-1 formed, and names the same failing identity; N runs over
    structures with N conj(N) = 1 and = -1, and complex rebasings of both."""
    tower = FieldTower()
    i = tower.i()
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    p = [[tower.from_rational(2), i], [tower.one(), tower.one()]]
    p_bar_inv = minverse(mconj(p), tower)
    structures = [meye(tower, 2), w]
    structures += [mmul(mmul(p, n), p_bar_inv) for n in structures]
    pairs = [mat_from_ints(tower, m) for m in (
        [[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[1, 1], [0, 1]],
        [[0, 1], [-1, 0]])]
    pairs += [mscale(i, meye(tower, 2)), mmul(p, w),
              [[tower.from_rational(2), tower.zero()],
               [tower.zero(), tower.from_rational(Fraction(1, 2))]]]
    bases = [gl2_basis(tower), [mat_from_ints(tower, [[1, 0], [0, -1]])]]
    seen = set()
    for m in structures:
        for a in pairs:
            for basis in bases:
                want = _formed_verdict(basis, a, m, tower)
                seen.add(want)
                if want is None:
                    c = make_cocycle2(basis, a, RealStructure(m, tower))
                    assert c.a is a and c.real.nsigma is m
                    continue
                with pytest.raises(H2Error) as err:
                    make_cocycle2(basis, a, RealStructure(m, tower))
                assert err.value.code == "not-cocycle"
                assert want in str(err.value)
    assert seen == {None, "f(a)", "f^2"}


def test_make_cocycle_inverts_only_a(monkeypatch):
    """On criterion 06's cocycle (-1, conj) of SL_2, and on every cocycle
    its neutralization forms from it, make_cocycle2 forms one inverse."""
    tower = FieldTower()
    g = sl2r(tower)
    minus = mat_from_ints(tower, [[-1, 0], [0, -1]])
    inversions = []

    def counting(a, tw):
        inversions.append(a)
        return minverse(a, tw)

    monkeypatch.setattr(h2nab, "minverse", counting)
    monkeypatch.setattr(linalg, "minverse", counting)
    per_call = []

    def make(*args):
        before = len(inversions)
        c = make_cocycle2(*args)
        per_call.append(len(inversions) - before)
        return c

    monkeypatch.setattr(h2nab, "make_cocycle2", make)
    c = h2nab.make_cocycle2(g.datum.basis, minus,
                            RealStructure(meye(tower, 2), tower))
    assert neutralize_reductive(g, c, center=chevalley_cover(g)).neutral
    assert len(per_call) > 1 and max(per_call) <= 1


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
    c = make_cocycle2(basis, meye(tower, 2),
                      RealStructure(meye(tower, 2), tower))
    res = neutralize_reductive(g, c)
    assert res.neutral and meq(res.witness, meye(tower, 2))


def test_split_gm_minus_one_not_neutral():
    tower = FieldTower()
    g = split_gm(tower)
    c = make_cocycle2([mat_from_ints(tower, [[1]])],
                      mat_from_ints(tower, [[-1]]),
                      RealStructure(meye(tower, 1), tower))
    res = neutralize_reductive(g, c)
    assert not res.neutral and res.witness is None
    # the verdict rests on H^2 of the split torus: order 2, and the class of
    # -1 is not a coboundary
    pres = build_presentation([mat_from_ints(tower, [[1]])],
                              RealStructure(meye(tower, 1), tower))
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
    c = make_cocycle2(basis, minus, RealStructure(meye(tower, 2), tower))
    res = neutralize_reductive(g, c, center=chevalley_cover(g))
    assert res.neutral
    d = res.witness
    assert meq(mmul(mmul(d, c.real.gamma(d)), c.a), meye(tower, 2))


def test_conjugator_hint_restores_cartan():
    tower = FieldTower()
    g = sl2r(tower)
    basis = [mat_from_ints(tower, m) for m in
             ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])]
    u = mat_from_ints(tower, [[1, 1], [0, 1]])
    a = mmul(u, u)
    c = make_cocycle2(basis, a, RealStructure(u, tower))
    center = chevalley_cover(g)
    with pytest.raises(H2Error) as err:
        neutralize_reductive(g, c, center=center)
    assert err.value.code == "conjugator-unavailable"
    res = neutralize_reductive(g, c, center=center,
                               conjugator_hint=minverse(u, tower))
    assert res.neutral
    d = res.witness
    assert meq(mmul(mmul(d, c.real.gamma(d)), c.a), meye(tower, 2))


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
