import json

import pytest

from realcoh import reductive
from realcoh.catalog import CatalogError, get, list_names
from realcoh.h2nab import chevalley_cover
from realcoh.liealg import exp_nilpotent
from realcoh.linalg import (mconj, meq, meye, minverse, mmul, mscale, msub,
                            mtranspose)
from realcoh.nonconnected import h1_nonconnected
from realcoh.nonreductive import h1_connected
from realcoh.reductive import (ReductiveError, cartan_decomposition,
                               h1_connected_reductive)
from realcoh.torus import h1_torus

# heavier entries (so(4,5) and friends) are exercised by the acceptance
# suite; this file keeps to the entries that build in a few seconds
LIGHT = [
    "torus:e", "torus:f", "torus:d", "torus:fe", "torus:fd",
    "so(1,2)", "so(2,3)",
    "sl(2,r)", "sl(3,r)",
    "su(2,0)", "su(1,1)",
    "sp(4,r)",
    "o(2)", "o(3)", "mu2", "n-sl2-t", "n-sl2-t-compact",
    "gm-affine", "sl2-c2",
]

# |H^1(R, G)| from the classification, not from the code under test:
# 2^(compact factors) for a torus; the quadratic forms of dimension p+q and
# discriminant (-1)^q for SO(p,q); the hermitian forms of rank p+q and
# discriminant (-1)^q for SU(p,q); 1 for SL_n, Sp_2n and groups whose
# reductive quotient is one of them or split G_m; O(n) lists all forms of
# dimension n, mu2 is R^*/R^*^2, and N(T) of SL_2 has 2 classes in either
# real structure.
ORDERS = {
    "torus:e": 1, "torus:f": 2, "torus:d": 1, "torus:fe": 2, "torus:fd": 2,
    "so(1,2)": 2, "so(2,3)": 3, "sl(2,r)": 1, "sl(3,r)": 1,
    "su(2,0)": 2, "su(1,1)": 1, "sp(4,r)": 1,
    "o(2)": 3, "o(3)": 4, "mu2": 2, "n-sl2-t": 2, "n-sl2-t-compact": 2,
    "gm-affine": 1, "sl2-c2": 1,
}


def class_count(entry):
    if entry.kind == "torus":
        return h1_torus(entry.group).order()
    if entry.kind == "reductive":
        return h1_connected_reductive(entry.group).order()
    if entry.kind == "nonreductive":
        return h1_connected(entry.group).order()
    return h1_nonconnected(entry.group).order()


@pytest.mark.parametrize("name", LIGHT)
def test_entry_matches_expected_count(name):
    entry = get(name)
    assert class_count(entry) == ORDERS[name]


def test_list_names_all_resolve_lazily():
    names = list_names()
    assert len(names) == len(set(names))
    # every listed name parses; only the quick ones are built here
    for name in names:
        if name in LIGHT:
            assert get(name).name == name


def test_basis_is_gamma_fixed():
    for name in ("so(2,3)", "su(1,1)", "sp(4,r)"):
        entry = get(name)
        from realcoh.linalg import minverse
        nsinv = minverse(entry.nsigma, entry.tower)
        for m in entry.lie_basis:
            img = mmul(mmul(entry.nsigma,
                            [[x.conj() for x in row] for row in m]), nsinv)
            assert meq(img, m)


def test_emit_json_round_trip():
    entry = get("o(2)")
    data = json.loads(entry.to_json())
    assert data["name"] == "o(2)"
    assert data["kind"] == "nonconnected"
    assert data["n"] == 2
    assert data["pi0_table"] == [[0, 1], [1, 0]]
    assert len(data["component_reps"]) == 2
    # deterministic byte output
    assert entry.to_json() == get("o(2)").to_json()


def test_case_and_space_insensitive():
    entry = get(" SO(1, 2) ".replace(" ", " "))
    assert entry.name == "so(1,2)"


def test_unknown_name_raises():
    with pytest.raises(CatalogError) as err:
        get("e8-split")
    assert err.value.code == "unknown-name"
    with pytest.raises(CatalogError):
        get("torus:x")
    with pytest.raises(CatalogError):
        get("so(9,9)")


def test_su_cover_center_order():
    assert len(chevalley_cover(get("su(2,0)").group)) == 2


def test_torus_expected_orders():
    for word in ("fe", "d", "fd", "ffd", "eef"):
        assert class_count(get(f"torus:{word}")) == 2 ** word.count("f")


@pytest.mark.parametrize("p,q", [(n - q, q) for n in range(3, 10)
                                 for q in range(n + 1)])
def test_so_pq_matches_quadratic_form_count(p, q):
    # H^1(R, SO(p,q)) lists the quadratic forms of dimension p+q with the
    # discriminant of (p, q): signatures (p+q-q', q') with q' = q (mod 2)
    want = sum(1 for qq in range(p + q + 1) if qq % 2 == q % 2)
    assert class_count(get(f"so({p},{q})")) == want


@pytest.mark.parametrize("name,torus", [("so(1,1)", "torus:e"),
                                        ("so(2,0)", "torus:f"),
                                        ("so(0,2)", "torus:f")])
def test_abelian_so_pq_points_to_torus(name, torus):
    with pytest.raises(CatalogError) as err:
        get(name)
    assert err.value.code == "unknown-name"
    assert torus in str(err.value)


# dim k of the computed Cartan decomposition: so(p) + so(q) for so(p,q),
# so(n) for sl(n,r), s(u(p) + u(q)) for su(p,q), u(2) for sp(4,r), so(3) for
# o(3) and so(2) for the Levi factor sl(2,r) of sl2-c2
DIM_K = {
    "so(1,2)": 1, "so(2,3)": 4, "so(3,4)": 9, "so(4,5)": 16,
    "sl(2,r)": 1, "sl(3,r)": 3, "sl(4,r)": 6,
    "su(2,0)": 3, "su(1,1)": 1, "su(3,0)": 8, "su(2,1)": 4,
    "sp(4,r)": 4, "o(3)": 3, "sl2-c2": 1,
}


@pytest.mark.parametrize("name", sorted(DIM_K))
def test_cartan_decomposition_closed_forms(name):
    entry = get(name)
    group = entry.group if entry.kind == "reductive" else entry.group.reductive
    datum = group.datum
    full = datum.sc.basis_rows()
    s_rows = datum.sc.product_space(full, full)
    k_rows, p_rows = cartan_decomposition(datum, s_rows)
    assert len(k_rows) == DIM_K[name]
    assert len(k_rows) + len(p_rows) == len(s_rows)
    minus = -entry.tower.one()
    for m in datum.rows_to_mats(k_rows):
        assert meq(mtranspose(mconj(m)), mscale(minus, m))
    for m in datum.rows_to_mats(p_rows):
        assert meq(mtranspose(mconj(m)), m)


# -- one real structure per group ---------------------------------------------------


def _reductive_parts(entry) -> list:
    """(group, class list) of every reductive group a catalog entry holds:
    itself, its reductive part, or the identity component of a
    non-connected group and its twists by the lifted component classes."""
    g = entry.group
    if entry.kind == "reductive":
        return [(g, h1_connected_reductive(g))]
    if entry.kind == "nonreductive":
        return [(g.reductive, h1_connected(g))]
    if entry.kind == "nonconnected" and g.mode == "reductive":
        parts = [(g.reductive, h1_connected_reductive(g.reductive))]
        return parts + [(cc.tw_group, cc.tw_classes)
                        for cc in h1_nonconnected(g).classes]
    return []


def _real_unipotent(g):
    """exp(m) for the first nilpotent m among the basis elements of Lie(G)
    and their sums and differences, or None; m is real, and so is exp(m)."""
    basis = g.datum.basis
    minus = -g.tower.one()
    candidates = list(basis) + [
        msub(x, mscale(sign, y)) for sign in (minus, -minus)
        for i, x in enumerate(basis) for y in basis[i + 1:]]
    for m in candidates:
        p = m
        for _ in range(g.datum.n):
            p = mmul(p, m)
        if all(x.is_zero() for row in p for x in row) and \
                any(not x.is_zero() for row in m for x in row):
            return exp_nilpotent(m, g.tower)
    return None


@pytest.mark.parametrize("name", list_names())
def test_group_layers_share_one_real_structure(name, monkeypatch):
    """The group, its torus and its reductive part hold the very structure
    built from the entry's N_sigma, and, for the light entries, every
    presentation of a torus T' that Problem 2 builds gets the group's own
    structure."""
    entry = get(name)
    g = entry.group
    assert g.real.nsigma is entry.nsigma
    if entry.kind == "reductive":
        assert g.torus.real is g.real
    elif entry.kind == "nonreductive":
        assert g.reductive.real is g.real
        assert g.reductive.torus.real is g.real
    elif entry.kind == "nonconnected":
        part = {"torus": g.torus, "reductive": g.reductive}.get(g.mode)
        assert part is None or part.real is g.real
        if g.mode == "reductive":
            assert g.reductive.torus.real is g.real
        for cc in h1_nonconnected(g).classes:
            part = cc.pres_hat if cc.mode == "torus" else cc.tw_group
            assert part is None or part.real is cc.real

    if name not in LIGHT:
        return
    handed = []
    build = reductive.build_presentation

    def recording(lie_basis, real, *args, **kwargs):
        handed.append(real)
        return build(lie_basis, real, *args, **kwargs)

    monkeypatch.setattr(reductive, "build_presentation", recording)
    for group, classes in _reductive_parts(entry):
        u = _real_unipotent(group)
        if u is None:
            continue
        u_inv = minverse(u, group.tower)
        for z in classes.representatives:
            # u is real, so u^-1 z u is a cocycle in the class of z; its
            # semisimple part may lie outside T, in a torus T' of its own
            try:
                reductive.solve_problem2_reductive(
                    group, mmul(mmul(u_inv, z), u), classes=classes)
            except ReductiveError as err:
                assert err.code == "conjugator-unavailable"
            assert all(real is group.real for real in handed)
    # so(1,2) and so(2,3) build a T' presentation on this path
    assert handed or name not in ("so(1,2)", "so(2,3)")
