import random

import pytest
from hypothesis import given, settings, strategies as st

from realcoh import lattice
from realcoh.lattice import (
    LatticeError,
    det,
    diagonal_form,
    gamma_decompose,
    hnf,
    identity,
    kernel_basis,
    mat_inverse,
    mat_mul,
    perp,
    purify,
    snf,
    solve_integer,
    transpose,
)


def _is_hnf(h):
    pivots = []
    for row in h:
        j = next((c for c, x in enumerate(row) if x != 0), None)
        assert j is not None
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for i, ji in enumerate(pivots):
        for k in range(i):
            assert 0 <= h[k][ji] < h[i][ji]
    return True


def test_hnf_identity():
    h, p = hnf(identity(2))
    assert h == identity(2) and p == identity(2)


def test_hnf_worked_example():
    b = [[2, 4], [1, 3]]
    h, p = hnf(b)
    assert h == [[1, 1], [0, 2]]
    assert mat_mul(p, b) == h
    assert abs(det(p)) == 1


def test_hnf_single_row():
    h, p = hnf([[0, 5]])
    assert h == [[0, 5]] and p == [[1]]


def test_hnf_rank_deficient():
    with pytest.raises(LatticeError) as err:
        hnf([[1, 2], [2, 4]])
    assert err.value.code == "rank-deficient"


def test_snf_examples():
    a, p, q = snf([[2, 0], [0, 4]])
    assert a == [[2, 0], [0, 4]]
    a, p, q = snf([[2, 4], [1, 3]])
    assert a == [[1, 0], [0, 2]]
    assert mat_mul(mat_mul(p, [[2, 4], [1, 3]]), q) == a
    a, p, q = snf([[2, 0]])
    assert a == [[2, 0]]
    a, p, q = snf([[2, 4], [1, 2]])
    assert a == [[1, 0], [0, 0]]
    assert mat_mul(mat_mul(p, [[2, 4], [1, 2]]), q) == a


def test_diagonal_form_keeps_what_snf_repairs():
    # diag(2, 3) is already diagonal; only the Smith divisibility repair
    # changes it
    a, p, q = diagonal_form([[2, 0], [0, 3]])
    assert (a, p, q) == ([[2, 0], [0, 3]], identity(2), identity(2))
    a, p, q = snf([[2, 0], [0, 3]])
    assert a == [[1, 0], [0, 6]]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_diagonal_form_certificates_random(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    rank = rng.randint(0, min(m, n))
    # an m x rank times rank x n product has rank at most `rank`
    b = [[0] * n for _ in range(m)]
    if rank:
        b = mat_mul([[rng.randint(-4, 4) for _ in range(rank)]
                     for _ in range(m)],
                    [[rng.randint(-4, 4) for _ in range(n)]
                     for _ in range(rank)])
    a, p, q = diagonal_form(b)
    assert mat_mul(mat_mul(p, b), q) == a
    assert abs(det(p)) == 1 and abs(det(q)) == 1
    assert all(a[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    d = [a[i][i] for i in range(min(m, n))]
    nonzero = [x for x in d if x]
    assert all(x > 0 for x in nonzero) and d[:len(nonzero)] == nonzero


def test_purify():
    closure, quot = purify([[2, 0]])
    h, _ = hnf(closure)
    assert h == [[1, 0]]
    assert len(quot) == 1
    closure, quot = purify([[1, 1]])
    h, _ = hnf(closure)
    assert h == [[1, 1]]


def test_purify_kernel_plane():
    # integral solutions of x+y+z=0
    k = kernel_basis([[1], [1], [1]])
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0


def test_perp():
    assert perp([[1, 0]], 2) == [[0, 1]]
    assert perp([], 2) == identity(2)
    p = perp([[1, 1]], 2)
    assert p == [[1, -1]] or p == [[-1, 1]]


def test_perp_perp_is_pure_closure():
    basis = [[2, 4, 6], [0, 2, 2]]
    pp = perp(perp(basis, 3), 3)
    closure, _ = purify(basis)
    h1, _ = hnf(pp)
    h2, _ = hnf(closure)
    assert h1 == h2


def test_gamma_decompose_trivial():
    res = gamma_decompose(identity(2))
    assert res.counts == (2, 0, 0)


def test_gamma_decompose_minus():
    res = gamma_decompose([[-1, 0], [0, -1]])
    assert res.counts == (0, 2, 0)


def test_gamma_decompose_swap():
    res = gamma_decompose([[0, 1], [1, 0]])
    assert res.counts == (0, 0, 1)


def test_gamma_decompose_glued():
    # tau = [[1,0],[1,-1]]: fixed vector exists, and an f with odd defect
    tau = [[1, 0], [1, -1]]
    res = gamma_decompose(tau)
    assert mat_mul(tau, tau) == identity(2)
    assert res.counts == (0, 0, 1)


def test_gamma_decompose_wrong_basis_is_coded_error(monkeypatch):
    # a unimodular "fixed" vector that tau negates
    monkeypatch.setattr(lattice, "_decompose_rec", lambda tau, tau_t:
                        ([[1]], [], []))
    with pytest.raises(LatticeError) as err:
        gamma_decompose([[-1]])
    assert err.value.code == "decomposition-verification-failed"


def test_gamma_decompose_wrong_correction_is_coded_error(monkeypatch):
    # an off-by-one multiple of e in the correction of f
    multiple_of = lattice._multiple_of
    monkeypatch.setattr(lattice, "_multiple_of",
                        lambda v, e: multiple_of(v, e) + 1)
    with pytest.raises(LatticeError) as err:
        gamma_decompose([[0, 1], [1, 0]])
    assert err.value.code == "decomposition-verification-failed"


def test_solve_integer():
    mat = [[2, 0], [3, 1]]
    v = solve_integer(mat, [5, 1])
    assert v is not None
    assert [sum(v[i] * mat[i][j] for i in range(2)) for j in range(2)] == [5, 1]
    assert solve_integer([[2, 0]], [1, 0]) is None


def _random_unimodular(rng, n):
    m = identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def _random_involution(rng, n):
    # conjugate a random canonical block form by a random unimodular matrix
    diag = []
    kinds = []
    while len(diag) < n:
        kind = rng.choice(["e", "f", "p"] if len(diag) + 2 <= n else ["e", "f"])
        kinds.append(kind)
        diag.append(kind)
        if kind == "p":
            diag.append(None)
    tau = [[0] * n for _ in range(n)]
    i = 0
    counts = [0, 0, 0]
    for kind in kinds:
        if kind == "e":
            tau[i][i] = 1
            counts[0] += 1
            i += 1
        elif kind == "f":
            tau[i][i] = -1
            counts[1] += 1
            i += 1
        else:
            tau[i][i + 1] = 1
            tau[i + 1][i] = 1
            counts[2] += 1
            i += 2
    u = _random_unimodular(rng, n)
    uinv = mat_inverse(u)
    return mat_mul(mat_mul(u, tau), uinv), tuple(counts)


def test_gamma_decompose_random_invariant_counts():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        tau, base_counts = _random_involution(rng, n)
        res = gamma_decompose(tau)
        # e/f counts can trade against pairs only via the invariants:
        # rank of fixed sublattice = e + t, rank of negated = f + t
        e, f, t = res.counts
        be, bf, bt = base_counts
        assert e + t == be + bt
        assert f + t == bf + bt
        assert e + f + 2 * t == n
        # the pair count itself is an invariant of the lattice
        assert t == bt


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_hnf_snf_certificates_random(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    n = rng.randint(m, 5)
    while True:
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        try:
            h, p = hnf(b)
            break
        except LatticeError:
            continue
    assert mat_mul(p, b) == h
    assert abs(det(p)) == 1
    _is_hnf(h)
    a, pp, q = snf(b)
    assert mat_mul(mat_mul(pp, b), q) == a
    assert abs(det(pp)) == 1 and abs(det(q)) == 1
    d = [a[i][i] for i in range(m)]
    assert all(x > 0 for x in d)
    assert all(d[i + 1] % d[i] == 0 for i in range(m - 1))
    for i in range(m):
        for j in range(n):
            if i != j:
                assert a[i][j] == 0
    # uniqueness under rebasing
    u = _random_unimodular(rng, m)
    h2, _ = hnf(mat_mul(u, b))
    assert h2 == h
    a2, _, _ = snf(mat_mul(u, b))
    assert [a2[i][i] for i in range(m)] == d
