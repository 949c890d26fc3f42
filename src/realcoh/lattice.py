"""Integer-matrix normal forms with certificates and involution lattices.

Matrices are lists of rows of Python ints; a lattice is the row span of a
full-row-rank matrix.  Hermite normal form follows the row convention with
pivot columns strictly increasing, positive pivots and reduced entries above
the pivots.  All transformation certificates (P for HNF, P and Q for the
Smith and diagonal forms) are returned so downstream computations can be
checked by exact identities.  The module holds one copy of each integer
kernel: one HNF elimination, one diagonalizing elimination (Smith form with
its divisibility repair, diagonal form without) and one rational
Gauss-Jordan (inverse and determinant).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .field import RealcohError


class LatticeError(RealcohError):
    pass


# -- plain integer matrix helpers ----------------------------------------------


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list, b: list) -> list:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out

def vec_mat(v: list, a: list) -> list:
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def _gauss_jordan(a: list) -> tuple:
    """(inverse, determinant) of a square rational matrix, by Gauss-Jordan
    elimination over Fractions; the inverse is None when a is singular."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    det_a = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det_a = -det_a
        det_a *= work[col][col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work], det_a


def rational_inverse(a: list) -> list:
    """Inverse of a square rational matrix, as Fractions.

    Raises LatticeError("singular") when a is not invertible."""
    inverse, _ = _gauss_jordan(a)
    if inverse is None:
        raise LatticeError("singular")
    return inverse


def mat_inverse(a: list) -> list:
    """Inverse of an integer matrix with det +-1 (exact, checked)."""
    out = []
    for row in rational_inverse(a):
        if any(v.denominator != 1 for v in row):
            raise LatticeError("not-unimodular")
        out.append([int(v) for v in row])
    return out


def det(a: list) -> int:
    """Determinant of a square integer matrix."""
    return int(_gauss_jordan(a)[1])


def content(v: list) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


# -- Hermite normal form --------------------------------------------------------


def hnf(b: list) -> tuple:
    """Row Hermite normal form H = P*B with unimodular P.

    Requires full row rank; raises LatticeError("rank-deficient") otherwise.
    """
    h, p = _hnf_allow_rank(b)
    if not all(any(row) for row in h):
        raise LatticeError("rank-deficient")
    return h, p


def _hnf_allow_rank(b: list) -> tuple:
    """HNF that tolerates rank deficiency (zero rows at the bottom)."""
    m = len(b)
    n = len(b[0]) if m else 0
    h = [list(row) for row in b]
    p = identity(m)
    row = 0
    for col in range(n):
        if row == m:
            break
        piv = None
        for r in range(row, m):
            if h[r][col] != 0:
                if piv is None or abs(h[r][col]) < abs(h[piv][col]):
                    piv = r
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        p[row], p[piv] = p[piv], p[row]
        # clear below the pivot with euclidean steps
        while True:
            done = True
            for r in range(row + 1, m):
                if h[r][col] != 0:
                    q = h[r][col] // h[row][col]
                    h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                    p[r] = [x - q * y for x, y in zip(p[r], p[row])]
                    if h[r][col] != 0:
                        h[row], h[r] = h[r], h[row]
                        p[row], p[r] = p[r], p[row]
                        done = False
            if done:
                break
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            p[row] = [-x for x in p[row]]
        # reduce the entries above the pivot into [0, pivot)
        for r in range(row):
            q = h[r][col] // h[row][col]
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                p[r] = [x - q * y for x, y in zip(p[r], p[row])]
        row += 1
    return h, p


# -- Smith normal form -----------------------------------------------------------


def snf(b: list) -> tuple:
    """Smith normal form A = P*B*Q with unimodular P, Q.

    Accepts any integer matrix.  The nonzero diagonal entries come first,
    positive, with d_i | d_{i+1}; zero entries follow.
    """
    return _diagonalize(b, divisibility=True)


def diagonal_form(b: list) -> tuple:
    """Diagonal form A = P*B*Q with unimodular P, Q, without the Smith
    divisibility repair.

    Accepts any integer matrix.  The diagonal is nonnegative, with its zero
    entries last, but d_i need not divide d_{i+1}: diag(2, 3) stays
    diag(2, 3), where snf gives diag(1, 6).
    """
    return _diagonalize(b, divisibility=False)


def _diagonalize(b: list, divisibility: bool) -> tuple:
    """(A, P, Q) with A = P*B*Q diagonal, by pivot-at-a-time elimination.

    With divisibility, an earlier diagonal entry that fails to divide a
    later one is repaired by folding the later column into the earlier one
    and eliminating again from there.
    """
    m = len(b)
    n = len(b[0]) if m else 0
    a = [list(row) for row in b]
    p = identity(m)
    q = identity(n)

    def row_op(r1, r2, k):
        a[r1] = [x - k * y for x, y in zip(a[r1], a[r2])]
        p[r1] = [x - k * y for x, y in zip(p[r1], p[r2])]

    def col_op(c1, c2, k):
        for r in range(m):
            a[r][c1] -= k * a[r][c2]
        for r in range(n):
            q[r][c1] -= k * q[r][c2]

    def row_swap(r1, r2):
        a[r1], a[r2] = a[r2], a[r1]
        p[r1], p[r2] = p[r2], p[r1]

    def col_swap(c1, c2):
        for r in range(m):
            a[r][c1], a[r][c2] = a[r][c2], a[r][c1]
        for r in range(n):
            q[r][c1], q[r][c2] = q[r][c2], q[r][c1]

    def eliminate(t: int) -> bool:
        """Clear row t and column t except the (t, t) pivot."""
        while True:
            piv = None
            for r in range(t, m):
                for c in range(t, n):
                    if a[r][c] != 0 and (piv is None or abs(a[r][c]) < abs(a[piv[0]][piv[1]])):
                        piv = (r, c)
            if piv is None:
                return False
            if piv[0] != t:
                row_swap(t, piv[0])
            if piv[1] != t:
                col_swap(t, piv[1])
            for r in range(t + 1, m):
                if a[r][t] != 0:
                    row_op(r, t, a[r][t] // a[t][t])
            for c in range(t + 1, n):
                if a[t][c] != 0:
                    col_op(c, t, a[t][c] // a[t][t])
            if all(a[r][t] == 0 for r in range(t + 1, m)) and \
                    all(a[t][c] == 0 for c in range(t + 1, n)):
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            p[t] = [-x for x in p[t]]
        return True

    t = 0
    while t < m:
        if not eliminate(t):
            break
        back = None
        if divisibility:
            for s in range(t):
                if a[t][t] % a[s][s] != 0:
                    back = s
                    break
        if back is not None:
            col_op(back, t, -1)
            t = back
            continue
        t += 1
    return a, p, q


# -- derived lattice operations ---------------------------------------------------


def purify(b: list) -> tuple:
    """Pure closure of the row span of b.

    Returns (closure_basis, quotient_basis): the first m rows u^1..u^m of
    Q^{-1} span the smallest pure lattice containing the row span, and the
    remaining rows map to a basis of the quotient of Z^n by it.
    """
    a, p, q = snf(b)
    m = len(b)
    qinv = mat_inverse(q)
    return qinv[:m], qinv[m:]


def kernel_basis(mat: list) -> list:
    """Basis (rows) of the pure lattice {v : v * mat = 0} for an n x k matrix."""
    n = len(mat)
    if n == 0:
        return []
    nonzero_rows = [r for r in mat if any(x != 0 for x in r)]
    if not nonzero_rows:
        return identity(n)
    # v*mat = 0 iff v is orthogonal to the column lattice; the nonzero HNF
    # rows c of mat^T are a basis of it.  With A = P*c*Q in Smith form,
    # v * c^T = 0 iff the first r coordinates of v * Q^{-T} vanish, so the
    # last n - r columns of Q are a basis of the kernel.
    ht, _ = _hnf_allow_rank(transpose(mat))
    c = [row for row in ht if any(x != 0 for x in row)]
    r = len(c)
    _a, _p, q = snf(c)
    basis = transpose(q)[r:]
    if not basis:
        return []
    h, _ = hnf(basis)
    return h


def perp(basis: list, n: int) -> list:
    """All integer vectors orthogonal to the rows of basis inside Z^n."""
    if not basis:
        return identity(n)
    return kernel_basis(transpose(basis))


def solve_integer(mat: list, target: list):
    """One integer solution v of v * mat = target, or None.

    mat is n x k; target length k.
    """
    n = len(mat)
    h0, p0 = _hnf_allow_rank(mat)
    rank = sum(1 for r in h0 if any(x != 0 for x in r))
    h0 = h0[:rank]
    # express target over h0 by back substitution
    t = list(target)
    coeffs = [0] * len(h0)
    for idx, row in enumerate(h0):
        j = next(c for c, x in enumerate(row) if x != 0)
        if t[j] % row[j] != 0:
            return None
        k = t[j] // row[j]
        coeffs[idx] = k
        t = [x - k * y for x, y in zip(t, row)]
    if any(x != 0 for x in t):
        return None
    # pull back through the row operations: h0 = P0 * mat
    v = [0] * n
    for idx, k in enumerate(coeffs):
        if k:
            v = [x + k * y for x, y in zip(v, p0[idx])]
    return v


# -- Gamma-lattice canonical decomposition ---------------------------------------


@dataclass
class CanonicalGammaBasis:
    e_vectors: list
    f_vectors: list
    gh_pairs: list  # list of (g, h) tuples
    change_of_basis: list  # rows are the new basis in the old coordinates

    @property
    def counts(self):
        return (len(self.e_vectors), len(self.f_vectors), len(self.gh_pairs))


def _apply(tau_t: list, v: list) -> list:
    """tau acting on a coefficient row vector (tau_t = T transposed)."""
    return vec_mat(v, tau_t)


def _verify(holds: bool) -> None:
    if not holds:
        raise LatticeError("decomposition-verification-failed",
                           "a canonical basis vector has the wrong image "
                           "under tau")


def gamma_decompose(tau: list) -> CanonicalGammaBasis:
    """Canonical basis of (Z^m, tau) with tau an involution.

    Returns vectors e (fixed), f (negated) and pairs (g, h) swapped by tau,
    together with the unimodular change of basis stacking them as rows.
    """
    m = len(tau)
    ident = identity(m)
    if mat_mul(tau, tau) != ident:
        raise LatticeError("not-involution")
    tau_t = transpose(tau)
    e_list, f_list, gh_list = _decompose_rec(tau, tau_t)
    change = e_list + f_list + [v for pair in gh_list for v in pair]
    inv = mat_inverse(change)  # raises if not unimodular
    # verify block shapes
    for v in e_list:
        _verify(_apply(tau_t, v) == v)
    for v in f_list:
        _verify(_apply(tau_t, v) == [-x for x in v])
    for g, h in gh_list:
        _verify(_apply(tau_t, g) == h and _apply(tau_t, h) == g)
    return CanonicalGammaBasis(e_list, f_list, gh_list, change)


def _decompose_rec(tau: list, tau_t: list):
    m = len(tau)
    ident = identity(m)
    if m == 1:
        v = [1]
        if tau[0][0] == 1:
            return [v], [], []
        return [], [v], []
    minus = [[-x for x in row] for row in tau]
    if minus == ident:
        return [], identity(m), []
    # a primitive fixed vector e
    fix = kernel_basis([[tau_t[i][j] - ident[i][j] for j in range(m)] for i in range(m)])
    e = min(fix)
    c = content(e)
    e = [x // c for x in e]
    if _apply(tau_t, e) != e:
        e = [-x for x in e]
    _verify(_apply(tau_t, e) == e)
    # Smith form of the single row e
    a, p, q = snf([e])
    qinv = mat_inverse(q)
    u = qinv  # rows u^1..u^m; u^1 spans L' up to sign
    # tau on Z^m / L' in the basis u^2..u^m
    tprime = []
    for i in range(1, m):
        img = _apply(tau_t, u[i])
        coeffs = vec_mat(img, q)  # coordinates in the u-basis
        tprime.append(coeffs[1:])
    tprime = transpose(tprime)  # column convention for the recursive call
    sub = _decompose_rec(tprime, transpose(tprime))
    lift = lambda w: [sum(w[k] * u[k + 1][j] for k in range(m - 1)) for j in range(m)]
    e_list = [lift(w) for w in sub[0]]
    f_list = [lift(w) for w in sub[1]]
    gh_list = [(lift(g), lift(h)) for g, h in sub[2]]
    # step (5): lifted e_i are exactly fixed
    for v in e_list:
        _verify(_apply(tau_t, v) == v)
    # step (6): correct the h of each pair by a multiple of e
    fixed_pairs = []
    for g, h in gh_list:
        diff = [x - y for x, y in zip(_apply(tau_t, g), h)]
        l = _multiple_of(diff, e)
        h2 = [x + l * y for x, y in zip(h, e)]
        _verify(_apply(tau_t, g) == h2 and _apply(tau_t, h2) == g)
        fixed_pairs.append((g, h2))
    gh_list = fixed_pairs
    # step (7): correct each f by a multiple of e, splitting on parity
    plain_f, odd_f = [], []
    for f in f_list:
        diff = [x + y for x, y in zip(_apply(tau_t, f), f)]  # = l*e
        l = _multiple_of(diff, e)
        k, rem = divmod(l, 2)
        f2 = [x - k * y for x, y in zip(f, e)]
        if rem == 0:
            _verify(_apply(tau_t, f2) == [-x for x in f2])
            plain_f.append(f2)
        else:
            _verify(_apply(tau_t, f2) == [-x + y for x, y in zip(f2, e)])
            odd_f.append(f2)
    # step (8): pair one odd f with e, fold the rest
    if not odd_f:
        return e_list + [e], plain_f, gh_list
    f1 = odd_f[0]
    for f in odd_f[1:]:
        f2 = [x - y for x, y in zip(f, f1)]
        _verify(_apply(tau_t, f2) == [-x for x in f2])
        plain_f.append(f2)
    g = f1
    h = [-x + y for x, y in zip(f1, e)]
    return e_list, plain_f, gh_list + [(g, h)]


def _multiple_of(v: list, e: list) -> int:
    """The integer l with v = l*e (e nonzero)."""
    for a, b in zip(v, e):
        if b != 0:
            l = a // b
            break
    else:
        raise LatticeError("zero-vector")
    if [l * x for x in e] != v:
        raise LatticeError("not-a-multiple")
    return l
