import dataclasses
import random
import sys
import time
from fractions import Fraction

import pytest

import realcoh.reductive as reductive
from realcoh import catalog
from realcoh.field import FieldTower, format_element
from realcoh.liealg import (
    LieError,
    SCAlgebra,
    exp_nilpotent,
    in_span,
    rref_rows,
    span_eq,
)
from realcoh.linalg import (
    RealStructure,
    echelon_reduce,
    left_kernel,
    mat_from_ints,
    mconj,
    meq,
    meye,
    minverse,
    mmul,
    mscale,
    msub,
    mtranspose,
    mzeros,
    solve_left,
    vmat,
)
from realcoh.reductive import (
    ReductiveError,
    build_reductive,
    h1_connected_reductive,
    realify_torus_conjugator,
    solve_problem2_reductive,
    trivialize_cocycle,
    weyl_action,
    weyl_walk,
)
from realcoh.torus import (
    TorusError,
    cocycle_signs,
    h1_torus,
    mono_apply,
    normalizer_action,
)


# -- fixtures ---------------------------------------------------------------------


def sl2r(tower):
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    f = mat_from_ints(tower, [[0, 0], [1, 0]])
    return build_reductive([h, e, f], RealStructure(meye(tower, 2), tower))


def iota(m, tower):
    """Block embedding g -> diag(g, (g^T)^-1) of 2x2 matrices."""
    inv = minverse(mtranspose(m), tower)
    zero = tower.zero()
    out = [[zero] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            out[i][j] = m[i][j]
            out[2 + i][2 + j] = inv[i][j]
    return out


def su2(tower):
    i = tower.i()
    one = tower.one()
    zero = tower.zero()
    b1 = [[i, zero], [zero, -i]]
    b2 = [[zero, one], [-one, zero]]
    b3 = [[zero, i], [i, zero]]
    basis = [iota(m, tower) for m in (b1, b2, b3)]
    nsig = [[zero] * 4 for _ in range(4)]
    for j in range(2):
        nsig[j][2 + j] = one
        nsig[2 + j][j] = one
    return build_reductive(basis, RealStructure(nsig, tower))


def so23_basis(tower):
    # antisymmetric-with-respect-to-diag(1,1,-1,-1,-1) matrices e_ij, i < j,
    # in lexicographic order
    sig = [1, 1, -1, -1, -1]
    basis = []
    for i in range(5):
        for j in range(i + 1, 5):
            rows = [[0] * 5 for _ in range(5)]
            rows[i][j] = sig[j]
            rows[j][i] = -sig[i]
            basis.append(mat_from_ints(tower, rows))
    return basis


def so23(tower):
    return build_reductive(so23_basis(tower),
                           RealStructure(meye(tower, 5), tower))


# -- structure --------------------------------------------------------------------


def test_sl2r_structure():
    tower = FieldTower()
    g = sl2r(tower)
    t = g.torus
    assert (t.k, t.l, t.r) == (1, 0, 0)
    assert len(_generated(g, g.weyl)) == 2
    assert len(_generated(g, g.w0)) == 2
    assert h1_torus(t).order() == 2


def test_su2_structure():
    tower = FieldTower()
    g = su2(tower)
    t = g.torus
    assert (t.k, t.l, t.r) == (1, 0, 0)
    assert len(_generated(g, g.weyl)) == 2
    assert len(_generated(g, g.w0)) == 2
    # compact: the maximal compact torus is the whole fundamental torus
    assert len(g.t0_rows) == len(g.t_rows) == 1


def test_so23_structure():
    tower = FieldTower()
    g = so23(tower)
    t = g.torus
    assert (t.k, t.l, t.r) == (2, 0, 0)
    assert h1_torus(t).order() == 4
    assert len(_generated(g, g.weyl)) == 8
    assert len(g.root.roots) == 8
    a = g.root.cartan_matrix
    assert a[0][0] == a[1][1] == 2
    assert a[0][1] * a[1][0] == 2


def test_rejects_non_theta_stable_algebra():
    # so(3) conjugated by a rational unitriangular matrix: a compact real
    # form that theta(X) = -X^T does not map into itself
    tower = FieldTower()
    u = mat_from_ints(tower, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    u_inv = minverse(u, tower)
    basis = [mmul(mmul(u, mat_from_ints(tower, m)), u_inv) for m in (
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    )]
    with pytest.raises(ReductiveError) as err:
        build_reductive(basis, RealStructure(meye(tower, 3), tower))
    assert err.value.code == "cartan-decomposition-unavailable"


def test_rejects_theta_not_preserving_real_form():
    # sl(2,r) conjugated by h = [[1, i], [0, 1]], real for N = h conj(h)^-1:
    # the complex span sl(2,c) is closed under theta, but theta does not
    # map the real points to real points
    tower = FieldTower()
    one, zero, i = tower.one(), tower.zero(), tower.i()
    h = [[one, i], [zero, one]]
    h_inv = minverse(h, tower)
    basis = [mmul(mmul(h, mat_from_ints(tower, m)), h_inv) for m in (
        [[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]])]
    nsigma = [[one, i + i], [zero, one]]
    with pytest.raises(ReductiveError) as err:
        build_reductive(basis, RealStructure(nsigma, tower))
    assert err.value.code == "cartan-decomposition-unavailable"


# -- class counts -----------------------------------------------------------------


def test_sl2r_one_class():
    tower = FieldTower()
    g = sl2r(tower)
    res = h1_connected_reductive(g)
    assert res.order() == 1
    assert meq(res.representatives[0], meye(tower, 2))


def test_su2_two_classes():
    tower = FieldTower()
    g = su2(tower)
    res = h1_connected_reductive(g)
    assert res.order() == 2
    minus = [[-x for x in row] for row in meye(tower, 4)]
    assert any(meq(z, minus) for z in res.representatives)


def test_so23_three_classes():
    tower = FieldTower()
    g = so23(tower)
    res = h1_connected_reductive(g)
    assert res.order() == 3
    ident = meye(tower, 5)
    for z in res.representatives:
        assert meq(mmul(z, g.real.gamma(z)), ident)


def test_so23_count_independent_of_cartan_choice():
    # k = so(2) + so(3) = span{e01, e23, e24, e34}.  The greedy rule picks
    # span{e01, e23} from the lexicographic basis; with e24 listed before
    # e23 it picks span{e01, e24}, another Cartan subalgebra of k
    tower = FieldTower()
    basis = so23_basis(tower)
    basis[7], basis[8] = basis[8], basis[7]
    g = build_reductive(basis, RealStructure(meye(tower, 5), tower))
    default = so23(tower)

    def t0_span(group):
        return rref_rows([[x for row in m for x in row]
                          for m in group.datum.rows_to_mats(group.t0_rows)])

    assert not span_eq(t0_span(g), t0_span(default))
    res = h1_connected_reductive(g)
    assert res.order() == 3
    assert all(g.real.is_cocycle(z) for z in res.representatives)


def test_action_well_defined_under_representative_change():
    # replacing n by n * t for t in T(C) does not change the induced
    # permutation of the sign-pattern classes
    tower = FieldTower()
    g = sl2r(tower)
    res = h1_torus(g.torus)
    e = next(w for w in g.w0 if w.word)
    t = g.torus.lam([tower.from_rational(2) + tower.i()])
    n2 = mmul(e.n, t)
    for z in res.representatives:
        z1 = mmul(mmul(minverse(e.n, tower), z), g.real.gamma(e.n))
        z2 = mmul(mmul(minverse(n2, tower), z), g.real.gamma(n2))
        _, s1, _ = trivialize_cocycle(g.torus, z1)
        _, s2, _ = trivialize_cocycle(g.torus, z2)
        assert s1 == s2


def test_weyl_table_is_permutation_table():
    tower = FieldTower()
    g = so23(tower)
    table = weyl_action(g)
    for perm in table.perms:
        assert sorted(perm) == list(range(4))
    # (+,+) and (-,-) give the same real form, the mixed patterns do not
    assert table.orbits == [[0, 3], [1], [2]]


# -- W_0 generating set -----------------------------------------------------------

# every reductive catalog entry, and the non-connected or non-reductive
# entries that carry a reductive part
REDUCTIVE_NAMES = ["so(1,2)", "so(2,3)", "so(3,4)", "so(4,5)", "sl(2,r)",
                   "sl(3,r)", "sl(4,r)", "su(2,0)", "su(1,1)", "su(3,0)",
                   "su(2,1)", "sp(4,r)"]
REDUCTIVE_PART_NAMES = ["o(3)", "gm-affine", "sl2-c2"]


def catalog_reductive(name):
    entry = catalog.get(name, FieldTower())
    return entry.group if entry.kind == "reductive" else entry.group.reductive


# groups with t0 != t, by name, with (|W|, |W_0|): W_0 is the fixed group of
# the diagram flip, of type B(r - 1) for so(p,q) of rank r with p and q odd,
# and C(n // 2) for sl(n,r).  so(p,q) with p + q > 9 is built from its basis
UNEQUAL_RANK = {"sl(3,r)": (6, 2), "sl(4,r)": (24, 8), "sl(5,r)": (120, 8),
                "sl(6,r)": (720, 48), "sl(7,r)": (5040, 48),
                "sl(8,r)": (40320, 384), "so(1,3)": (4, 2),
                "so(1,5)": (24, 8), "so(3,3)": (24, 8), "so(3,5)": (192, 48),
                "so(5,5)": (1920, 384), "so(3,7)": (1920, 384),
                "so(5,7)": (23040, 3840)}


def closed_form_order(name):
    """|H^1(R, G)| from the classification: 1 for SL_n and Sp_2n; for
    SO(p,q) the quadratic forms of dimension p + q, and for SU(p,q) the
    hermitian forms of rank p + q, with the discriminant of (p, q):
    signatures (p + q - q', q') with q' = q (mod 2)."""
    if name.startswith(("sl(", "sp(")):
        return 1
    p, q = (int(x) for x in name[3:-1].split(","))
    return sum(1 for qq in range(p + q + 1) if qq % 2 == q % 2)


W_ENUMERATION_LIMIT = 10000


def listed_group(name):
    """A catalog group, or so(p,q) past the catalog range from its basis."""
    if name.startswith("so("):
        p, q = (int(x) for x in name[3:-1].split(","))
        if p + q > 9:
            tower = FieldTower()
            return build_reductive(catalog._sopq_data(p, q, tower),
                                   RealStructure(meye(tower, p + q), tower))
    return catalog_reductive(name)


def _action(g, n):
    """Matrix of Ad(n) on the fundamental Cartan subalgebra t, in rows on
    g.t_rows: row j holds the coordinates of n t_j n^-1."""
    ninv = minverse(n, g.tower)
    return [echelon_reduce(g.datum.coords(mmul(mmul(n, m), ninv)),
                           g.t_rows)[0]
            for m in g.datum.rows_to_mats(g.t_rows)]


def _root_perm(g):
    """The map from a matrix a on t, as _action gives it, to its
    permutation of g.root.roots: alpha goes to the root a * alpha.  W acts
    faithfully on the roots, so it keys the elements of W."""
    index = {tuple(r): i for i, r in enumerate(g.root.roots)}
    return lambda a: tuple(index[tuple(vmat(r, mtranspose(a)))]
                           for r in g.root.roots)


def _generated(g, elements):
    """The group generated by the given Weyl elements, enumerated on the
    test side: root permutation -> (action on t, word), closed under right
    multiplication by the generators; the product of the representatives of
    elements[i] for i in word represents the element (_representative).
    The action of an element is formed only when it is new."""
    perm = _root_perm(g)
    start = tuple(range(len(g.root.roots)))
    out = {start: (meye(g.tower, len(g.t_rows)), [])}
    gens = [(a, perm(a)) for a in (_action(g, e.n) for e in elements)]
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            a, word = out[key]
            for i, (sa, sp) in enumerate(gens):
                k = tuple(sp[j] for j in key)
                if k not in out:
                    out[k] = (mmul(sa, a), word + [i])
                    nxt.append(k)
        frontier = nxt
    return out


def _representative(g, elements, word):
    n = meye(g.tower, g.datum.n)
    for i in word:
        n = mmul(n, elements[i].n)
    return n


def _in_w0(g):
    """The test whether the element with a given action on t maps t0 onto
    itself."""
    t0 = [echelon_reduce(v, g.t_rows)[0] for v in g.t0_rows]
    span = rref_rows(t0)
    return lambda action: all(in_span(vmat(u, action), span) for u in t0)


def _stabilizer(g):
    """The elements of the test-side W that map t0 onto itself, as root
    permutation -> representative.  W fixes the center pointwise, so they
    are the ones that map that0, the part of t0 in the derived algebra,
    onto itself."""
    in_w0 = _in_w0(g)
    return {k: _representative(g, g.weyl, word)
            for k, (a, word) in _generated(g, g.weyl).items() if in_w0(a)}


def _reference_orbits(g, w0):
    """W_0-orbits of the H^1(T) patterns, each orbit read off by twisting
    one representative by every element of the test-side W_0, given as
    root permutation -> representative."""
    res = h1_torus(g.torus)
    index_of = {tuple(p): i for i, p in enumerate(res.sign_patterns)}
    twists = [(minverse(n, g.tower), g.real.gamma(n)) for n in w0.values()]
    orbits, done = [], set()
    for i, z in enumerate(res.representatives):
        if i in done:
            continue
        orbit = set()
        for ninv, gn in twists:
            zt = mmul(mmul(ninv, z), gn)
            orbit.add(index_of[tuple(trivialize_cocycle(g.torus, zt)[1])])
        orbits.append(sorted(orbit))
        done |= orbit
    return orbits


@pytest.mark.parametrize("name", REDUCTIVE_NAMES + REDUCTIVE_PART_NAMES
                         + [n for n in UNEQUAL_RANK if n not in
                            REDUCTIVE_NAMES])
def test_w0_generators_give_the_w0_orbits(name):
    """The generators read off theta generate the test-side W_0, and their
    orbits on H^1(T) are the ones of that W_0.  W is enumerated where it has
    at most W_ENUMERATION_LIMIT elements; past that, the group the
    generators give lies in W_0 and has the order of W_0.  No case takes
    more than 3 s on a 2-core x86-64 host with Python 3.11; the budget is
    60 s."""
    start = time.perf_counter()
    g = listed_group(name)
    assert g is not None
    assert len(g.w0) <= len(g.root.x_gens)
    order_w, order_w0 = UNEQUAL_RANK.get(name, (None, None))
    table = weyl_action(g)
    assert len(table.perms) == len(g.w0)
    if order_w is None or order_w <= W_ENUMERATION_LIMIT:
        w0 = _stabilizer(g)
        assert _generated(g, g.w0).keys() == w0.keys()
        assert order_w0 in (None, len(w0))
        assert table.orbits == _reference_orbits(g, w0)
    else:
        generated = _generated(g, g.w0)
        assert len(generated) == order_w0
        assert all(map(_in_w0(g), (a for a, _ in generated.values())))
    if name in REDUCTIVE_NAMES or name in UNEQUAL_RANK:
        assert len(table.orbits) == closed_form_order(name)
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize("name", [n for n in REDUCTIVE_NAMES
                                  + REDUCTIVE_PART_NAMES
                                  if n not in [*UNEQUAL_RANK, "gm-affine"]])
def test_equal_rank_w0_is_the_simple_reflections(name):
    # t0 = t: W_0 = W, and its generators are the simple reflections
    # themselves, in their order (gm-affine, a split torus, has no roots)
    g = catalog_reductive(name)
    assert len(g.t0_rows) == len(g.t_rows)
    assert len(g.w0) == len(g.weyl)
    assert all(a is b for a, b in zip(g.w0, g.weyl))


@pytest.mark.parametrize("code", ["theta-not-diagram", "real-root"])
def test_positive_system_theta_does_not_keep_is_refused(monkeypatch, code):
    """so(3,3) with the roots ordered by their values on t alone, where
    theta does not map the simple roots to simple roots; and with a root
    that vanishes on t0 (a zero one) added to its roots."""
    root_system = reductive.root_system

    def patched(datum, t_mats, c, cinv, t0_coords):
        k = len(t_mats)
        if code == "theta-not-diagram":
            return root_system(datum, t_mats, c, cinv, meye(datum.tower, k))
        rd = root_system(datum, t_mats, c, cinv, t0_coords)
        return dataclasses.replace(
            rd, roots=rd.roots + [[datum.tower.zero()] * k])

    monkeypatch.setattr(reductive, "root_system", patched)
    with pytest.raises(ReductiveError) as err:
        listed_group("so(3,3)")
    assert err.value.code == code


def _theta_c(g, m):
    """The C-linear extension to g(C) of theta(X) = -conj(X)^T on the real
    Lie algebra, at m: theta of each gamma-fixed basis matrix, combined with
    the coordinates of m."""
    out = mzeros(g.tower, g.datum.n, g.datum.n)
    for c, x in zip(g.datum.coords(m), g.datum.basis):
        if not c.is_zero():
            out = msub(out, mscale(c, mtranspose(mconj(x))))
    return out


def _weight(a, b):
    """c with a = c * b, for a nonzero b, or None."""
    i, j = next((i, j) for i, row in enumerate(b)
                for j, x in enumerate(row) if not x.is_zero())
    c = a[i][j] / b[i][j]
    return c if meq(a, mscale(c, b)) else None


def _proportional(a, b):
    """a = c * b for a nonzero c."""
    c = _weight(a, b)
    return c is not None and not c.is_zero()


@pytest.mark.parametrize("name", REDUCTIVE_NAMES + REDUCTIVE_PART_NAMES
                         + [n for n in UNEQUAL_RANK if n not in
                            REDUCTIVE_NAMES])
def test_theta_permutes_the_simple_roots(name):
    """theta maps each simple root space onto a simple root space, and the
    positive roots (the roots with nonnegative coordinates on the simple
    roots) onto themselves; its action on t is read on the test side."""
    g = listed_group(name)
    root = g.root
    if not root.roots:   # a torus, whose center theta need not preserve
        return
    images = [_theta_c(g, x) for x in root.x_gens]
    targets = [[j for j, y in enumerate(root.x_gens) if _proportional(im, y)]
               for im in images]
    assert sorted(t for t, in targets) == list(range(len(root.x_gens)))
    theta_t = [echelon_reduce(g.datum.coords(_theta_c(g, m)), g.t_rows)
               for m in g.datum.rows_to_mats(g.t_rows)]
    assert all(all(x.is_zero() for x in rest) for _, rest in theta_t)
    cols = mtranspose([sol for sol, _ in theta_t])
    # the simple roots: the weights of x_i, [t_m, x_i] = alpha_i(t_m) x_i
    t_mats = g.datum.rows_to_mats(g.t_rows)
    simple = [[_weight(_dense_bracket(t, x), x) for t in t_mats]
              for x in root.x_gens]
    positive = set()
    for r in root.roots:
        rats = [x.as_rational() for x in solve_left(simple, r, g.tower)]
        assert all(x.denominator == 1 for x in rats)
        assert all(x >= 0 for x in rats) or all(x <= 0 for x in rats)
        if all(x >= 0 for x in rats):
            positive.add(tuple(r))
    assert len(positive) * 2 == len(root.roots)
    assert {tuple(vmat(list(r), cols)) for r in positive} == positive


@pytest.mark.parametrize("name", REDUCTIVE_NAMES + REDUCTIVE_PART_NAMES)
def test_coordinate_twist_matches_dense_twist(name):
    """For every generator e of W_0 and every sign pattern eps, the
    coordinate twist mono_apply(x, W_e) * c_e of x = mu(eps) is the dense
    matrix twist n^-1 * mu(eps) * gamma(n), and its signs are those of
    trivialize_cocycle on that matrix, at the place weyl_action puts them."""
    g = catalog_reductive(name)
    t = g.torus
    table = weyl_action(g)
    assert table.patterns == h1_torus(t).sign_patterns
    for e, perm in zip(g.w0, table.perms):
        w, c = normalizer_action(t, e.n, e.n_inv)
        ninv, gn = minverse(e.n, g.tower), g.real.gamma(e.n)
        for i, pattern in enumerate(table.patterns):
            x = t.mu_to_lam(t.pattern_mu(pattern))
            twisted = [a * b for a, b in zip(mono_apply(x, w), c)]
            dense = mmul(mmul(ninv, t.lam(x)), gn)
            assert meq(t.lam(twisted), dense)
            signs = cocycle_signs(t, twisted)[0]
            assert signs == trivialize_cocycle(t, dense)[1]
            assert table.patterns[perm[i]] == signs


def test_weyl_action_twists_no_matrix(monkeypatch):
    # the W_0 action is read in torus coordinates: no matrix twist and no
    # trivialization witness
    g = catalog_reductive("so(2,3)")

    def refuse(*args):
        raise AssertionError("weyl_action twisted a matrix")

    monkeypatch.setattr(reductive, "_twist", refuse)
    monkeypatch.setattr(reductive, "trivialize_cocycle", refuse)
    assert weyl_action(g).orbits == [[0, 3], [1], [2]]


@pytest.mark.parametrize("name,bad", [("so(2,3)", "unipotent"),
                                      ("sl(3,r)", "simple-reflection")])
def test_weyl_action_rejects_a_non_normalizer(name, bad):
    """A W_0 generator whose representative does not normalize T (a root
    group element), or whose gamma-displacement n^-1 gamma(n) leaves T (a
    simple reflection of sl(3,r) outside W_0), is refused."""
    g = catalog_reductive(name)
    if bad == "unipotent":
        n = exp_nilpotent(g.root.x_gens[0], g.tower)
        e = reductive.WeylElement([0], n, g.w0[0].perm)
    else:
        e = g.weyl[0]
    with pytest.raises(TorusError) as err:
        weyl_action(dataclasses.replace(g, w0=[e]))
    assert err.value.code == "not-normalizer"


def test_t0_check_rejects_a_split_torus(monkeypatch):
    """sl(2,r) with k and p exchanged: the greedy rule grows t_0 inside p,
    a split line, and the compactness check refuses it."""
    entry = catalog.get("sl(2,r)", FieldTower())
    decompose = reductive.cartan_decomposition

    def swapped(datum, s_rows):
        k_rows, p_rows = decompose(datum, s_rows)
        return p_rows, k_rows

    monkeypatch.setattr(reductive, "cartan_decomposition", swapped)
    with pytest.raises(ReductiveError) as err:
        build_reductive(entry.lie_basis,
                        RealStructure(entry.nsigma, entry.tower))
    assert err.value.code == "t0-not-compact"


@pytest.mark.parametrize("name,order_w,order_w0",
                         [("sl(3,r)", 6, 2), ("sl(4,r)", 24, 8)],
                         ids=["sl(3,r)-6", "sl(4,r)-24"])
def test_w0_generators_when_w0_is_not_w(name, order_w, order_w0):
    # t_0 != t: W_0 is a proper subgroup of W, so the simple reflections,
    # which generate W, are no substitute for a generating set of W_0
    g = catalog_reductive(name)
    w_keys = _generated(g, g.weyl).keys()
    w0_keys = _stabilizer(g).keys()
    assert (len(w_keys), len(w0_keys)) == (order_w, order_w0)
    assert _generated(g, g.w0).keys() == w0_keys


# -- root data, checked with dense matrix brackets --------------------------------

# Cartan type of the root system of each entry's reductive part
ROOT_TYPES = {"so(1,2)": ("B", 1), "so(2,3)": ("B", 2), "so(3,4)": ("B", 3),
              "so(4,5)": ("B", 4), "sl(2,r)": ("A", 1), "sl(3,r)": ("A", 2),
              "sl(4,r)": ("A", 3), "su(2,0)": ("A", 1), "su(1,1)": ("A", 1),
              "su(3,0)": ("A", 2), "su(2,1)": ("A", 2), "sp(4,r)": ("C", 2),
              "o(3)": ("B", 1), "sl2-c2": ("A", 1)}
# (number of roots, determinant of the Cartan matrix) of each type of rank r
TYPE_INVARIANTS = {"A": lambda r: (r * (r + 1), r + 1),
                   "B": lambda r: (2 * r * r, 2),
                   "C": lambda r: (2 * r * r, 2),
                   "D": lambda r: (2 * r * (r - 1), 4)}


def _dense_bracket(x, y):
    """xy - yx, every entry summed over the whole row and column."""
    n = len(x)
    zero = x[0][0].tower.zero()
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = out[i][j] + x[i][k] * y[k][j] - y[i][k] * x[k][j]
    return out


def _int_det(a):
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _int_det([row[:j] + row[j + 1:]
                                               for row in a[1:]])
               for j in range(len(a)))


def _eigenspace_dim(g, ad_t, alpha):
    """dim {X in g : [t_m, X] = alpha_m X for every m}, from the dense
    brackets ad_t[m][b] = [t_m, X_b] of the basis matrices X_b."""
    rows = []
    for b, x in enumerate(g.datum.basis):
        rows.append([u - a * v for m, a in enumerate(alpha)
                     for ru, rv in zip(ad_t[m][b], x)
                     for u, v in zip(ru, rv)])
    keep = [j for j in range(len(rows[0]))
            if any(not row[j].is_zero() for row in rows)]
    if not keep:
        return len(rows)
    return len(left_kernel([[row[j] for j in keep] for row in rows],
                           g.tower))


@pytest.mark.parametrize("name", REDUCTIVE_NAMES + ["o(3)", "sl2-c2"])
def test_root_data_against_dense_brackets(name):
    g = catalog_reductive(name)
    datum, root = g.datum, g.root
    t_mats = datum.rows_to_mats(g.t_rows)
    ad_t = [[_dense_bracket(t, x) for x in datum.basis] for t in t_mats]
    keys = {tuple(format_element(x) for x in alpha) for alpha in root.roots}
    assert len(keys) == len(root.roots)
    # each root has a line of root vectors, and with t they fill g
    for alpha in root.roots:
        assert _eigenspace_dim(g, ad_t, alpha) == 1
    assert len(root.roots) + len(g.t_rows) == datum.dim
    # x_i and y_i are root vectors for opposite roots
    for x, y in zip(root.x_gens, root.y_gens):
        brackets = [_dense_bracket(t, x) for t in t_mats]
        alphas = [alpha for alpha in root.roots if all(
            meq(br, [[a * v for v in row] for row in x])
            for br, a in zip(brackets, alpha))]
        assert len(alphas) == 1
        for t, a in zip(t_mats, alphas[0]):
            assert meq(_dense_bracket(t, y), [[-a * v for v in row]
                                              for row in y])
    kind, rank = ROOT_TYPES[name]
    n_roots, det = TYPE_INVARIANTS[kind](rank)
    assert len(root.cartan_matrix) == rank
    assert len(root.roots) == n_roots
    assert _int_det(root.cartan_matrix) == det


def test_cartan_check_rejects_a_torus_smaller_than_its_centralizer(
        monkeypatch):
    """sl(3,r): k = so(3) has rank 1, so t_0 is a line, while a Cartan
    subalgebra has dimension 2.  With the centralizer of t_0 in g replaced
    by t_0 itself, t is toral but its zero weight space is larger than t.
    Only that call is replaced: build_reductive makes it on the whole
    algebra, while center_of makes its own calls on the whole algebra."""
    entry = catalog.get("sl(3,r)", FieldTower())
    assert len(entry.group.t_rows) == 2
    centralizer = SCAlgebra.centralizer
    replaced = []

    def t0_as_t(self, a, b):
        caller = sys._getframe(1).f_code.co_name
        if caller == "build_reductive" and len(a) == self.dim and \
                0 < len(b) < self.dim:
            replaced.append(len(b))
            return rref_rows(b)
        return centralizer(self, a, b)

    monkeypatch.setattr(SCAlgebra, "centralizer", t0_as_t)
    with pytest.raises(LieError) as err:
        build_reductive(entry.lie_basis,
                        RealStructure(entry.nsigma, entry.tower))
    assert err.value.code == "cartan-failed"
    assert replaced == [1]


def test_so55_unequal_rank_count():
    # so(5,5): rank so(5) + rank so(5) = 4 < 5 = rank so(10), so only 3 of
    # the 5 simple reflections lie in W_0 and they do not generate it (the
    # count would be 9); the generators read off theta give the
    # quadratic-form count, signatures (10 - q', q') with q' odd
    tower = FieldTower()
    basis = catalog._sopq_data(5, 5, tower)
    g = build_reductive(basis, RealStructure(meye(tower, 10), tower))
    res = h1_connected_reductive(g)
    assert res.order() == 5
    for z in res.representatives:
        assert g.real.is_cocycle(z)


def test_weyl_walk_visits_w_once_in_breadth_first_order():
    g = so23(FieldTower())
    walk = list(weyl_walk(g))
    assert walk[0].word == []
    assert [len(e.word) for e in walk] == sorted(len(e.word) for e in walk)
    perm = _root_perm(g)
    keys = {perm(_action(g, e.n)) for e in walk}
    assert len(walk) == len(keys) == 8
    assert keys == _generated(g, g.weyl).keys()


def test_weyl_walk_limit_is_a_coded_error(monkeypatch):
    g = so23(FieldTower())
    monkeypatch.setattr(reductive, "WEYL_WALK_LIMIT", 5)
    with pytest.raises(ReductiveError) as err:
        list(weyl_walk(g))
    assert err.value.code == "weyl-too-large"


# -- equivalence witnesses --------------------------------------------------------


def unimodular_diagonalizer(m2, tower):
    """Determinant-one eigenvector matrix of a 2x2 matrix with distinct
    eigenvalues; requires the top-right entry to be nonzero unless the
    matrix is already diagonal."""
    p, q = m2[0][0], m2[0][1]
    r, s = m2[1][0], m2[1][1]
    if q.is_zero() and r.is_zero():
        return meye(tower, 2)
    assert not q.is_zero()
    tr = p + s
    disc = tr * tr - 4 * (p * s - q * r)
    if disc.is_positive():
        root = tower.sqrt(disc)
    else:
        root = tower.i() * tower.sqrt(-disc)
    d1 = (tr + root) / 2
    d2 = (tr - root) / 2
    det = q * (d2 - d1)
    inv = det.inverse()
    return [[q * inv, q], [(d1 - p) * inv, d2 - p]]


def check_witness(g, cocycle, res, idx, h):
    out = mmul(mmul(minverse(h, g.tower), cocycle), g.real.gamma(h))
    assert meq(out, res.representatives[idx])


def test_problem2_sl2r_torus_twist():
    tower = FieldTower()
    g = sl2r(tower)
    res = h1_connected_reductive(g)
    s = g.torus.lam([tower.from_rational(2)])
    cocycle = mmul(minverse(s, tower), g.real.gamma(s))
    idx, h = solve_problem2_reductive(g, cocycle, classes=res)
    assert idx == 0
    check_witness(g, cocycle, res, idx, h)


def test_problem2_sl2r_minus_identity():
    # -1 lies in the compact torus but is killed by the Weyl action
    tower = FieldTower()
    g = sl2r(tower)
    res = h1_connected_reductive(g)
    minus = mat_from_ints(tower, [[-1, 0], [0, -1]])
    idx, h = solve_problem2_reductive(g, minus, classes=res)
    assert idx == 0
    check_witness(g, minus, res, idx, h)


def test_problem2_sl2r_semisimple_outside_fundamental_torus():
    # diag(i, -i) is a cocycle whose centralizer is the split diagonal
    # torus; the general centralizer path applies with no conjugation
    tower = FieldTower()
    g = sl2r(tower)
    res = h1_connected_reductive(g)
    i = tower.i()
    cocycle = [[i, tower.zero()], [tower.zero(), -i]]
    idx, h = solve_problem2_reductive(g, cocycle, classes=res)
    assert idx == 0
    check_witness(g, cocycle, res, idx, h)


def test_problem2_sl2r_unipotent_part():
    tower = FieldTower()
    g = sl2r(tower)
    res = h1_connected_reductive(g)
    i = tower.i()
    one = tower.one()
    cocycle = [[-one, -i], [tower.zero(), -one]]
    assert meq(mmul(cocycle, g.real.gamma(cocycle)), meye(tower, 2))
    idx, h = solve_problem2_reductive(g, cocycle, classes=res)
    assert idx == 0
    check_witness(g, cocycle, res, idx, h)


def test_problem2_su2_central_and_twisted():
    tower = FieldTower()
    g = su2(tower)
    res = h1_connected_reductive(g)
    minus = [[-x for x in row] for row in meye(tower, 4)]
    idx_minus, h = solve_problem2_reductive(g, minus, classes=res)
    check_witness(g, minus, res, idx_minus, h)
    # twist by a non-real torus element: same class, nontrivial witness
    t = g.torus.lam([tower.from_rational(2)])
    cocycle = mmul(mmul(minverse(t, tower), minus), g.real.gamma(t))
    idx, h = solve_problem2_reductive(g, cocycle, classes=res)
    assert idx == idx_minus
    check_witness(g, cocycle, res, idx, h)


def test_problem2_so23_roundtrip():
    tower = FieldTower()
    g = so23(tower)
    res = h1_connected_reductive(g)
    u1 = tower.from_rational(2) + tower.i()
    u2 = tower.from_rational(3)
    t = g.torus.lam([u1, u2])
    tinv = minverse(t, tower)
    for want, z in enumerate(res.representatives):
        cocycle = mmul(mmul(tinv, z), g.real.gamma(t))
        idx, h = solve_problem2_reductive(g, cocycle, classes=res)
        assert idx == want
        check_witness(g, cocycle, res, idx, h)


@pytest.mark.parametrize("name", REDUCTIVE_NAMES)
def test_problem2_trivializes_a_torus_cocycle_once(name, monkeypatch):
    """A cocycle in T is semisimple: the solver trivializes it once, in T,
    and reaches neither Jordan nor a second trivialization.  The inputs
    are the listed representatives and a seeded twist of each by a complex
    point of T, which keeps its class."""
    g = catalog_reductive(name)
    tower, t = g.tower, g.torus
    res = h1_connected_reductive(g)
    rng = random.Random(2021)
    inputs = list(enumerate(res.representatives))
    for want, z in enumerate(res.representatives):
        s = t.lam([tower.from_rational(rng.randint(1, 3))
                   + rng.randint(-2, 2) * tower.i() for _ in range(t.d)])
        inputs.append((want, mmul(mmul(minverse(s, tower), z),
                                  g.real.gamma(s))))
    calls = []

    def counted(*args):
        calls.append(args)
        return trivialize_cocycle(*args)

    def refuse(*args):
        raise AssertionError("Jordan decomposition of a cocycle in T")

    monkeypatch.setattr(reductive, "jordan", refuse)
    monkeypatch.setattr(reductive, "trivialize_cocycle", counted)
    for want, z in inputs:
        calls.clear()
        idx, h = solve_problem2_reductive(g, z, classes=res)
        assert idx == want
        assert len(calls) == 1
        check_witness(g, z, res, idx, h)


def test_problem2_su2_needs_conjugator():
    # a twist of -1 by a unipotent of SL(2, C) produces a cocycle whose
    # compact centralizer torus is not inside T: without a hint the solver
    # reports the conjugator gap, with the diagonalizing hint it succeeds
    tower = FieldTower()
    g = su2(tower)
    res = h1_connected_reductive(g)
    i = tower.i()
    one = tower.one()
    zero = tower.zero()
    m = [[one, i], [zero, one]]
    r = iota(m, tower)
    minus = [[-x for x in row] for row in meye(tower, 4)]
    cocycle = mmul(mmul(minverse(r, tower), minus), g.real.gamma(r))
    with pytest.raises(ReductiveError) as err:
        solve_problem2_reductive(g, cocycle, classes=res)
    assert err.value.code == "conjugator-unavailable"
    # hint: diagonalize the semisimple part, then carry the diagonal torus
    # onto T with the eigenvector matrix of its Lie algebra generator
    s2 = [row[:2] for row in cocycle[:2]]
    t2 = [row[:2] for row in g.datum.rows_to_mats(g.t_rows)[0][:2]]
    q_s = unimodular_diagonalizer(s2, tower)
    q_t = unimodular_diagonalizer(t2, tower)
    hint = iota(mmul(q_s, minverse(q_t, tower)), tower)
    idx, h = solve_problem2_reductive(g, cocycle, classes=res,
                                      conjugator_hint=hint)
    minus_idx = next(k for k, z in enumerate(res.representatives)
                     if meq(z, minus))
    assert idx == minus_idx
    check_witness(g, cocycle, res, idx, h)


def test_realify_torus_conjugator_su2():
    tower = FieldTower()
    g = su2(tower)
    # a non-real torus element normalizes T_0 trivially; realification
    # must return a gamma-fixed element inducing the same conjugation
    conj = g.torus.lam([tower.from_rational(2)])
    t0_mats = g.datum.rows_to_mats(g.t0_rows)
    g_r = realify_torus_conjugator(g, t0_mats, conj, weyl_action(g))
    assert meq(g.real.gamma(g_r), g_r)
