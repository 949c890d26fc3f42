"""Exact linear algebra over a square-root-closed number field.

Matrices are lists of rows of FieldElement values.  Vectors are rows and act
on the left, v |-> v*M, matching the integer-lattice conventions used
elsewhere.  Everything is exact; singularity and rank questions are decided
by exact zero tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .field import FieldError, FieldTower


def mzeros(tower: FieldTower, r: int, c: int) -> list:
    zero = tower.zero()
    return [[zero] * c for _ in range(r)]


def meye(tower: FieldTower, n: int) -> list:
    out = mzeros(tower, n, n)
    one = tower.one()
    for i in range(n):
        out[i][i] = one
    return out


def mat_from_ints(tower: FieldTower, rows: list) -> list:
    return [[tower.from_rational(Fraction(x)) for x in row] for row in rows]


def msub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(c, a: list) -> list:
    return [[c * x for x in row] for row in a]


def _nonzero(row: list) -> list:
    """The (column, entry) pairs of the nonzero entries of a row."""
    if not row:
        return []
    zero = row[0].tower.zero()
    return [(j, x) for j, x in enumerate(row) if x is not zero]


def _check_shape(m: list, rows: int, cols: int) -> None:
    """FieldError("shape-mismatch") unless m has `rows` rows of length
    `cols`."""
    if len(m) != rows or any(len(row) != cols for row in m):
        raise FieldError("shape-mismatch",
                         f"expected a {rows}x{cols} matrix")


def _row_combination(v: list, m: list, pairs: list, cols: int) -> list:
    """v*m over the nonzero entries of v.  pairs[k] holds the _nonzero
    pairs of m[k], made when a nonzero v[k] first needs them, so the row of
    a zero coefficient is never scanned."""
    zero = m[0][0].tower.zero()
    out = [None] * cols
    for k, x in enumerate(v):
        if x is zero:
            continue
        row = pairs[k]
        if row is None:
            row = pairs[k] = _nonzero(m[k])
        for j, y in row:
            p = x * y
            out[j] = p if out[j] is None else out[j] + p
    return [zero if y is None else y for y in out]


def mmul(a: list, b: list) -> list:
    """a*b.  Row k of b is scanned once, and only when some row of a has a
    nonzero entry in column k."""
    cols = len(b[0]) if b else 0
    _check_shape(a, len(a), len(b))
    _check_shape(b, len(b), cols)
    if not cols:
        return [[] for _ in a]
    pairs = [None] * len(b)
    return [_row_combination(row, b, pairs, cols) for row in a]


def _diagonal_of(c: list, mat: list):
    """The diagonal entries of D = C^-1 * mat * C, or None when D is not
    diagonal.

    D is read from mat * C = C * D with one product.  Every column of C is
    an rref row (liealg.joint_eigenspaces), so its first nonzero entry is a
    unit pivot, and column j of mat * C holds D_j there; every other entry
    of that column must be exactly D_j times the entry of C.  C^-1 is not
    used."""
    mc = mmul(mat, c)
    zero = c[0][0].tower.zero() if c else None
    out = []
    for j in range(len(c)):
        dj = None
        for i, row in enumerate(c):
            x = row[j]
            if x is zero:
                if mc[i][j] is not zero:
                    return None
            elif dj is None:
                dj = mc[i][j]
            elif mc[i][j] != dj * x:
                return None
        out.append(dj)
    return out


def vmat(v: list, m: list) -> list:
    """v*m, the combination sum_i v_i * m_i of the rows; the row of a zero
    coefficient is never scanned."""
    cols = len(m[0]) if m else 0
    _check_shape(m, len(v), cols)
    if not cols:
        return []
    return _row_combination(v, m, [None] * len(m), cols)


def echelon_reduce(v: list, basis: list) -> tuple:
    """(c, r) with v = c*basis + r, for basis rows in reduced echelon form
    with unit pivots (as liealg.rref_rows returns them).

    The pivots must increase strictly from row to row: each row's pivot is
    sought only after the previous one, so one call scans each column at
    most once.  A row with no nonzero entry past the previous pivot raises
    FieldError("not-echelon").

    c holds the entries of v in the pivot columns, and r vanishes exactly
    when v lies in the span; c is then the coordinate vector of v."""
    if not basis:
        return [], list(v)
    coeffs = []
    width = len(v)
    j = 0
    for row in basis:
        while j < width and row[j].is_zero():
            j += 1
        if j == width:
            raise FieldError("not-echelon",
                             "basis pivots do not increase from row to row")
        coeffs.append(v[j])
        j += 1
    return coeffs, [x - y for x, y in zip(v, vmat(coeffs, basis))]


def mconj(a: list) -> list:
    return [[x.conj() for x in row] for row in a]


def mtranspose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def meq(a: list, b: list) -> bool:
    """Equal shapes and equal entries."""
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def mtrace(a: list):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def row_reduce(a: list) -> tuple:
    """Reduced row echelon form.  Returns (rref, pivot columns).

    Gauss-Jordan over the nonzero entries only.  Each row is held as
    {column: nonzero entry}: the pivot search is a lookup, the pivot row is
    scaled over its nonzero entries, and clearing the pivot column changes
    another row only in the pivot row's nonzero columns, deleting the
    entries that cancel.  The rows turn dense again at the end; the input
    is not changed."""
    m = len(a)
    n = len(a[0]) if a else 0
    _check_shape(a, m, n)
    if not n:
        return [[] for _ in a], []
    zero, one = a[0][0].tower.zero(), a[0][0].tower.one()
    rows = [{j: x for j, x in enumerate(row) if x is not zero} for row in a]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if c in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r].pop(c).inverse()
        scaled = [(j, x * inv) for j, x in rows[r].items()]
        rows[r] = dict(scaled)
        rows[r][c] = one
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            f = row.pop(c)
            for j, y in scaled:
                d = row.get(j, zero) - f * y
                if d is zero:
                    del row[j]
                else:
                    row[j] = d
        pivots.append(c)
        r += 1
        if r == m:
            break
    dense = []
    for row in rows:
        out = [zero] * n
        for j, x in row.items():
            out[j] = x
        dense.append(out)
    return dense, pivots


def row_reduce_transform(a: list, tower: FieldTower) -> tuple:
    """(rref, transform, pivot columns) with transform * a = rref, from one
    reduction of the augmented matrix [a | 1].  A row of `a` that depends on
    the others gets its pivot in the identity block, so fewer pivots than
    rows come back exactly when the rows are dependent."""
    n = len(a[0]) if a else 0
    ident = meye(tower, len(a))
    aug, pivots = row_reduce([list(r) + e for r, e in zip(a, ident)])
    return ([r[:n] for r in aug], [r[n:] for r in aug],
            [c for c in pivots if c < n])


def _is_invertible(a: list) -> bool:
    """a is square and has full rank."""
    _check_shape(a, len(a), len(a))
    return len(row_reduce(a)[1]) == len(a)


def minverse(a: list, tower: FieldTower) -> list:
    _, trans, pivots = row_reduce_transform(a, tower)
    if len(pivots) < len(a):
        raise FieldError("singular")
    return trans


def left_kernel(a: list, tower: FieldTower) -> list:
    """Basis of {v : v*a = 0} as rows."""
    m = len(a)
    if m == 0:
        return []
    at = mtranspose(a)
    rref, pivots = row_reduce(at)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        v = [tower.zero()] * m
        v[j] = tower.one()
        for r, c in enumerate(pivots):
            v[c] = -rref[r][j]
        basis.append(v)
    return basis


def solve_left(a: list, target: list, tower: FieldTower):
    """One solution v of v*a = target, or None."""
    m = len(a)
    if m == 0:
        return [] if all(x.is_zero() for x in target) else None
    at = mtranspose(a)
    n = len(at)
    aug = [list(at[i]) + [target[i]] for i in range(n)]
    rref, pivots = row_reduce(aug)
    if m in pivots:
        return None
    v = [tower.zero()] * m
    for r, c in enumerate(pivots):
        v[c] = rref[r][m]
    return v


def charpoly(a: list, tower: FieldTower) -> list:
    """Characteristic polynomial det(xI - a), coefficients low to high.

    Faddeev-LeVerrier recursion; exact since the field has characteristic 0.
    """
    n = len(a)
    coeffs = [tower.zero()] * n + [tower.one()]
    m = [list(row) for row in a]
    for k in range(1, n + 1):
        c = mtrace(m) / (-k)
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            m[i][i] = m[i][i] + c
        m = mmul(a, m)
    return coeffs


class RealStructure:
    """The anti-regular map gamma(g) = N * conj(g) * N^-1 given by N = N_sigma.

    N is checked to be invertible once, on first use: by its rank, or by
    its inverse if gamma or twist formed it first.  is_cocycle and carries
    check their identities in the inverse-free forms z * N * conj(z) = N
    and s * rep * N = z * N * conj(s).  N * conj(N) may differ from 1 (see
    defect), as for structures twisted by a component representative; the
    identities below are exact."""

    def __init__(self, nsigma: list, tower: FieldTower):
        self.nsigma = nsigma
        self.tower = tower

    @cached_property
    def _size(self) -> int:
        """n = size of N, checked invertible by rank or a prior minverse."""
        if "_inverse" not in self.__dict__ and not _is_invertible(self.nsigma):
            raise FieldError("singular")
        return len(self.nsigma)

    @cached_property
    def _inverse(self) -> list:
        return minverse(self.nsigma, self.tower)

    def gamma(self, g: list) -> list:
        return mmul(mmul(self.nsigma, mconj(g)), self._inverse)

    def is_cocycle(self, z: list) -> bool:
        """z * gamma(z) = 1, checked as z * N * conj(z) = N."""
        _check_shape(z, self._size, self._size)
        return meq(mmul(mmul(z, self.nsigma), mconj(z)), self.nsigma)

    def carries(self, s: list, z: list, rep: list) -> bool:
        """s^-1 * z * gamma(s) = rep, checked as s * rep * N = z * N * conj(s)
        with s invertible by its rank; no inverse is formed."""
        n = self._size
        for m in (s, z, rep):
            _check_shape(m, n, n)
        return meq(mmul(mmul(s, rep), self.nsigma),
                   mmul(mmul(z, self.nsigma), mconj(s))) \
            and _is_invertible(s)

    def twist(self, s: list, z: list, s_inv: list = None) -> list:
        """s^-1 * z * gamma(s), the cocycle z moved by s; s_inv is s^-1
        when the caller already holds it."""
        if s_inv is None:
            s_inv = minverse(s, self.tower)
        return mmul(mmul(s_inv, z), self.gamma(s))

    @cached_property
    def _columns(self) -> list:
        """The (row, entry) pairs of the nonzero entries of each column of
        N."""
        cols = [[] for _ in self.nsigma]
        for i, row in enumerate(self.nsigma):
            for j, x in _nonzero(row):
                cols[j].append((i, x))
        return cols

    @cached_property
    def _rows(self) -> list:
        return [_nonzero(row) for row in self.nsigma]

    def fixes(self, m: list) -> bool:
        """gamma(m) = m, e.g. m is a real Lie algebra basis element: the
        entries of N * conj(m) - m * N, summed over the nonzero entries of
        m and of N, all vanish."""
        self._size  # a singular N raises FieldError("singular"), as gamma
        acc = {}
        for l, row in enumerate(m):
            for j, x in _nonzero(row):
                xc = x.conj()
                for i, y in self._columns[l]:
                    p = y * xc
                    acc[i, j] = acc[i, j] + p if (i, j) in acc else p
                for k, y in self._rows[j]:
                    p = x * y
                    acc[l, k] = acc[l, k] - p if (l, k) in acc else -p
        return all(x.is_zero() for x in acc.values())

    def defect(self) -> list:
        """N * conj(N): gamma^2 is conjugation by it, so it is 1 for a
        real-structure matrix."""
        return mmul(self.nsigma, mconj(self.nsigma))

    def inner(self, g: list) -> "RealStructure":
        """The structure inn(g) o gamma, given by g * N."""
        return RealStructure(mmul(g, self.nsigma), self.tower)
