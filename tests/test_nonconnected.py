from fractions import Fraction

import pytest

from realcoh.field import FieldTower
from realcoh.linalg import (RealStructure, mat_from_ints, meq, meye,
                            minverse, mmul)
from realcoh.nonconnected import (
    NonConnectedError,
    build_nonconnected,
    h1_nonconnected,
    solve_problem2_nonconnected,
    torus_shortcut,
)

Z2_TABLE = [[0, 1], [1, 0]]
Z2_ID = [0, 1]


def mu2(tower):
    return build_nonconnected(
        [], RealStructure(meye(tower, 1), tower),
        [mat_from_ints(tower, [[1]]), mat_from_ints(tower, [[-1]])],
        Z2_TABLE, Z2_ID)


def o2(tower):
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    refl = mat_from_ints(tower, [[1, 0], [0, -1]])
    return build_nonconnected([rot], RealStructure(meye(tower, 2), tower),
                              [meye(tower, 2), refl],
                              Z2_TABLE, Z2_ID)


def so3_basis(tower):
    return [mat_from_ints(tower, m) for m in (
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    )]


def o3(tower):
    basis = so3_basis(tower)
    minus = mat_from_ints(tower, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    return build_nonconnected(basis, RealStructure(meye(tower, 3), tower),
                              [meye(tower, 3), minus],
                              Z2_TABLE, Z2_ID)


def torus_normalizer_split(tower):
    # diagonal torus of the 2x2 special linear group plus the quarter turn
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    return build_nonconnected([h], RealStructure(meye(tower, 2), tower),
                              [meye(tower, 2), w], Z2_TABLE, Z2_ID)


def torus_normalizer_compact(tower):
    # same group with the real structure x -> w conj(x) w^-1 (the compact
    # form; N conj(N) = -1 is central)
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    return build_nonconnected([h], RealStructure(w, tower),
                              [meye(tower, 2), w], Z2_TABLE, Z2_ID)


# -- class counts ------------------------------------------------------------------


def test_mu2_two_classes():
    tower = FieldTower()
    res = h1_nonconnected(mu2(tower))
    assert res.order() == 2
    assert not res.blocked and not res.non_lifting


def test_o2_three_classes():
    tower = FieldTower()
    g = o2(tower)
    res = h1_nonconnected(g)
    assert res.order() == 3
    assert not res.blocked and not res.non_lifting
    for z in res.representatives:
        assert meq(mmul(z, g.real.gamma(z)), meye(tower, 2))


def test_o3_four_classes():
    tower = FieldTower()
    g = o3(tower)
    res = h1_nonconnected(g)
    assert res.order() == 4
    assert not res.blocked and not res.non_lifting
    for z in res.representatives:
        assert meq(mmul(z, g.real.gamma(z)), meye(tower, 3))


def test_connected_group_reduces_to_torus_pipeline():
    tower = FieldTower()
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    g = build_nonconnected([rot], RealStructure(meye(tower, 2), tower),
                           [meye(tower, 2)], [[0]], [0])
    res = h1_nonconnected(g)
    assert res.order() == 2  # the circle group has two classes


def test_torus_normalizer_split_merges_orbit():
    tower = FieldTower()
    res = h1_nonconnected(torus_normalizer_split(tower))
    # one class over the identity component (multiplicative-group
    # triviality) and one over the quarter-turn component: its twisted
    # torus is compact with two classes, merged by the component action
    assert res.order() == 2
    assert not res.blocked and not res.non_lifting
    wclass = res.classes[1]
    assert len(wclass.x_reps) == 2 and len(wclass.kept) == 1


def test_torus_normalizer_compact_blocked_component():
    tower = FieldTower()
    res = h1_nonconnected(torus_normalizer_compact(tower))
    # the quarter-turn component has h = -1 over a split twisted torus:
    # no lift, so only the two identity-component classes remain
    assert res.order() == 2
    assert res.non_lifting == [1]
    assert not res.blocked


# -- torus shortcut ----------------------------------------------------------------


def test_shortcut_real_involution_lifts_as_is():
    tower = FieldTower()
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    refl = mat_from_ints(tower, [[1, 0], [0, -1]])
    out = torus_shortcut([rot], RealStructure(meye(tower, 2), tower), refl)
    assert out is not None
    ghat, s = out
    assert meq(s, meye(tower, 2)) and meq(ghat, refl)


def test_shortcut_quarter_turn_lifts_in_split_form():
    tower = FieldTower()
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    out = torus_shortcut([h], RealStructure(meye(tower, 2), tower), w)
    assert out is not None
    ghat, _ = out
    gg = mmul(ghat, [[x.conj() for x in row] for row in ghat])
    assert meq(gg, meye(tower, 2))


def test_shortcut_blocked_in_compact_form():
    tower = FieldTower()
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    assert torus_shortcut([h], RealStructure(w, tower), w) is None


# -- equivalence -------------------------------------------------------------------


def test_problem2_self_classification():
    tower = FieldTower()
    for make in (mu2, o2, o3, torus_normalizer_split,
                 torus_normalizer_compact):
        g = make(tower)
        res = h1_nonconnected(g)
        for j, z in enumerate(res.representatives):
            idx, b = solve_problem2_nonconnected(g, z, classes=res)
            assert idx == j
            out = mmul(mmul(minverse(b, tower), z), g.real.gamma(b))
            assert meq(out, res.representatives[idx])


def test_problem2_twisted_o2():
    tower = FieldTower()
    g = o2(tower)
    res = h1_nonconnected(g)
    # a complex point of the identity component: [[a, b], [-b, a]],
    # a^2 + b^2 = 1
    a = tower.from_rational(Fraction(5, 4))
    b = tower.i() * tower.from_rational(Fraction(3, 4))
    twist = [[a, b], [-b, a]]
    for j, z in enumerate(res.representatives):
        zt = mmul(mmul(minverse(twist, tower), z), g.real.gamma(twist))
        idx, wit = solve_problem2_nonconnected(g, zt, classes=res)
        assert idx == j
        out = mmul(mmul(minverse(wit, tower), zt), g.real.gamma(wit))
        assert meq(out, res.representatives[idx])


def test_problem2_twisted_across_component():
    tower = FieldTower()
    g = torus_normalizer_split(tower)
    res = h1_nonconnected(g)
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    d = [[tower.from_rational(3), tower.zero()],
         [tower.zero(), tower.from_rational(Fraction(1, 3))]]
    for twist in (d, mmul(w, d)):
        for j, z in enumerate(res.representatives):
            zt = mmul(mmul(minverse(twist, tower), z), g.real.gamma(twist))
            idx, wit = solve_problem2_nonconnected(g, zt, classes=res)
            assert idx == j
            out = mmul(mmul(minverse(wit, tower), zt), g.real.gamma(wit))
            assert meq(out, res.representatives[idx])


def test_problem2_rejects_non_cocycle():
    tower = FieldTower()
    g = o2(tower)
    bad = mat_from_ints(tower, [[2, 0], [0, 1]])
    with pytest.raises(NonConnectedError) as err:
        solve_problem2_nonconnected(g, bad)
    assert err.value.code == "not-cocycle"


# -- input validation --------------------------------------------------------------


def test_rejects_inconsistent_table():
    tower = FieldTower()
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    refl = mat_from_ints(tower, [[1, 0], [0, -1]])
    # table claims the reflection squares to the reflection's component
    with pytest.raises(Exception):
        build_nonconnected([rot], RealStructure(meye(tower, 2), tower),
                           [meye(tower, 2), refl],
                           [[0, 1], [1, 1]], Z2_ID)


def test_rejects_non_normalizing_representative():
    tower = FieldTower()
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    bad = mat_from_ints(tower, [[1, 1], [0, 1]])
    with pytest.raises(NonConnectedError) as err:
        build_nonconnected([rot], RealStructure(meye(tower, 2), tower),
                           [meye(tower, 2), bad],
                           Z2_TABLE, Z2_ID)
    assert err.value.code in ("representative-does-not-normalize",
                              "pi0-data-inconsistent")
