from fractions import Fraction

import pytest

from realcoh.field import FieldTower
from realcoh.linalg import (RealStructure, mat_from_ints, meq, meye,
                            minverse, mmul)
from realcoh.nonreductive import (
    NonReductiveError,
    build_levi_split,
    h1_connected,
    sansuc_lift,
    sansuc_transport,
    solve_problem2_connected,
)


def affine_gm(tower):
    # {[[t, a], [0, 1]]}: multiplicative group acting on the affine line
    d = mat_from_ints(tower, [[1, 0], [0, 0]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    return build_levi_split([d, e], RealStructure(meye(tower, 2), tower))


def sl2_semidirect(tower):
    # sl(2) acting on the plane, inside gl(3)
    h = mat_from_ints(tower, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    x = mat_from_ints(tower, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    y = mat_from_ints(tower, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    e1 = mat_from_ints(tower, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    e2 = mat_from_ints(tower, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    return build_levi_split([h, x, y, e1, e2],
                            RealStructure(meye(tower, 3), tower))


def translation(tower, a, b):
    one = tower.one()
    zero = tower.zero()
    return [[one, zero, a], [zero, one, b], [zero, zero, one]]


def test_affine_structure_and_classes():
    tower = FieldTower()
    g = affine_gm(tower)
    assert len(g.u_rows) == 1
    assert len(g.levi.s_basis + g.levi.t_basis) == 1
    res = h1_connected(g)
    assert res.order() == 1
    assert meq(res.representatives[0], meye(tower, 2))


def test_sl2_semidirect_classes():
    tower = FieldTower()
    g = sl2_semidirect(tower)
    assert len(g.u_rows) == 2
    assert len(g.levi.s_basis + g.levi.t_basis) == 3
    assert h1_connected(g).order() == 1


def test_sansuc_lift_trivial():
    tower = FieldTower()
    g = affine_gm(tower)
    elem = mat_from_ints(tower, [[3, 0], [0, 1]])
    # 3 is gamma-fixed but not a cocycle in G_m; lift only fixes the
    # unipotent discrepancy, which is absent here
    cocycle = mat_from_ints(tower, [[1, 0], [0, 1]])
    assert meq(sansuc_lift(g, cocycle), cocycle)
    with pytest.raises(NonReductiveError):
        sansuc_lift(g, elem)


def test_sansuc_lift_shifts_affine_part():
    tower = FieldTower()
    g = affine_gm(tower)
    a = tower.from_rational(3) + 2 * tower.i()
    one = tower.one()
    zero = tower.zero()
    elem = [[one, a], [zero, one]]
    out = sansuc_lift(g, elem)
    # exact cocycle with the same image modulo the radical
    assert meq(mmul(out, g.real.gamma(out)), meye(tower, 2))
    s = mmul(out, minverse(elem, tower))
    u = mmul(elem, g.real.gamma(elem))
    # the correcting shift satisfies s^2 = u^-1
    assert meq(mmul(s, s), minverse(u, tower))
    # and the corrected entry is the imaginary part of a
    assert out[0][1] == 2 * tower.i()


def test_sansuc_lift_projection_roundtrip():
    tower = FieldTower()
    g = sl2_semidirect(tower)
    gbar = mat_from_ints(tower, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    gbar = mmul(gbar, gbar)  # -1 in the rotation block: a cocycle
    c = translation(tower, tower.from_rational(5), tower.i())
    elem = mmul(c, gbar)
    out = sansuc_lift(g, elem)
    assert meq(mmul(out, g.real.gamma(out)), meye(tower, 3))
    assert meq(g.project(out), gbar)


def test_sansuc_transport():
    tower = FieldTower()
    g = sl2_semidirect(tower)
    v = tower.i()
    z = translation(tower, v, 2 * v)
    zprime = meye(tower, 3)
    # the images in the quotient agree already, so sbar = 1 works there
    s = sansuc_transport(g, z, zprime, meye(tower, 3))
    out = mmul(mmul(minverse(s, tower), z), g.real.gamma(s))
    assert meq(out, zprime)


def test_problem2_translation_cocycle():
    tower = FieldTower()
    g = sl2_semidirect(tower)
    res = h1_connected(g)
    z = translation(tower, tower.i(), -3 * tower.i())
    idx, s = solve_problem2_connected(g, z, classes=res)
    assert idx == 0
    out = mmul(mmul(minverse(s, tower), z), g.real.gamma(s))
    assert meq(out, res.representatives[idx])


def test_problem2_mixed_coboundary():
    tower = FieldTower()
    g = sl2_semidirect(tower)
    res = h1_connected(g)
    m = [[tower.from_rational(2), tower.zero(), tower.i()],
         [tower.zero(), tower.from_rational(Fraction(1, 2)), tower.zero()],
         [tower.zero(), tower.zero(), tower.one()]]
    z = mmul(minverse(m, tower), g.real.gamma(m))
    idx, s = solve_problem2_connected(g, z, classes=res)
    assert idx == 0
    out = mmul(mmul(minverse(s, tower), z), g.real.gamma(s))
    assert meq(out, res.representatives[idx])


def test_problem2_representatives_pairwise_distinct():
    tower = FieldTower()
    g = sl2_semidirect(tower)
    res = h1_connected(g)
    for j, z in enumerate(res.representatives):
        idx, _ = solve_problem2_connected(g, z, classes=res)
        assert idx == j


def test_rejects_non_cocycle():
    tower = FieldTower()
    g = affine_gm(tower)
    bad = mat_from_ints(tower, [[2, 0], [0, 1]])
    with pytest.raises(NonReductiveError) as err:
        solve_problem2_connected(g, bad)
    assert err.value.code == "not-cocycle"
