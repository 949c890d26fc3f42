"""Tate cohomology of Gamma-modules and hypercohomology of short complexes.

Gamma = Gal(C/R) has order 2, so cohomology is 2-periodic: H^k is H^1 for odd
k and H^2 for even k.  Modules are finitely presented abelian groups with an
involution; all kernels and images are computed over Z via Hermite and Smith
normal forms with certificates, so every class representative and witness is
exact.  Conventions: elements are integer row vectors of generator
coefficients; a homomorphism is a matrix whose i-th row is the image of the
i-th generator, acting by v |-> v*M.

Also provides brute-force H^1 of finite (possibly nonabelian) Gamma-groups,
with witness retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .field import RealcohError
from .lattice import (
    _hnf_allow_rank,
    identity,
    kernel_basis,
    mat_inverse,
    mat_mul,
    snf,
    solve_integer,
    vec_mat,
)


class CohomologyError(RealcohError):
    pass


def _lattice_rows(rows: list) -> list:
    """Nonzero HNF rows of a generating set (possibly empty)."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return []
    h, _ = _hnf_allow_rank(rows)
    return [r for r in h if any(x != 0 for x in r)]


def _in_lattice(v: list, rows: list) -> bool:
    if not any(v):
        return True
    if not rows:
        return False
    return solve_integer(rows, v) is not None


def _reduce_mod(v: list, hrows: list) -> list:
    """Canonical representative of v modulo the lattice spanned by HNF rows."""
    v = list(v)
    for row in hrows:
        j = next(c for c, x in enumerate(row) if x != 0)
        q = v[j] // row[j]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return v


class GammaModule:
    """Finitely presented abelian group with an involution.

    rels rows are relations among the generators; gamma is the involution in
    the rows-are-images convention.
    """

    def __init__(self, gamma: list, rels: list | None = None, check: bool = True):
        self.n = len(gamma)
        self.gamma = gamma
        self.rels = [list(r) for r in (rels or [])]
        self._rel_h = _lattice_rows(self.rels)
        if check:
            sq = mat_mul(gamma, gamma)
            for i in range(self.n):
                row = [sq[i][j] - (1 if i == j else 0) for j in range(self.n)]
                if not _in_lattice(row, self._rel_h):
                    raise CohomologyError("not-involution")
            for r in self.rels:
                if not _in_lattice(vec_mat(r, gamma), self._rel_h):
                    raise CohomologyError("gamma-not-well-defined")

    @classmethod
    def free(cls, tau: list) -> "GammaModule":
        return cls(tau, [])

    @classmethod
    def finite(cls, orders: list, tau: list) -> "GammaModule":
        n = len(orders)
        rels = [[orders[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return cls(tau, rels)

    def reduce(self, v: list) -> list:
        return _reduce_mod(v, self._rel_h)

    def d(self, k: int) -> list:
        """Matrix of the coboundary operator d^k = gamma - (-1)^k."""
        s = -1 if k % 2 == 0 else 1
        return [
            [self.gamma[i][j] + (s if i == j else 0) for j in range(self.n)]
            for i in range(self.n)
        ]


@dataclass
class ShortComplex:
    """Short complex A1 --partial--> A0 of Gamma-modules."""

    a1: GammaModule
    a0: GammaModule
    partial: list  # n1 x n0, rows-are-images

    def __post_init__(self):
        # equivariance of the boundary map
        lhs = mat_mul(self.a1.gamma, self.partial)
        rhs = mat_mul(self.partial, self.a0.gamma)
        for i in range(self.a1.n):
            row = [lhs[i][j] - rhs[i][j] for j in range(self.a0.n)]
            if not _in_lattice(row, self.a0._rel_h):
                raise CohomologyError("boundary-not-equivariant")
        for r in self.a1.rels:
            if not _in_lattice(vec_mat(r, self.partial), self.a0._rel_h):
                raise CohomologyError("boundary-not-well-defined")

    @property
    def n(self) -> int:
        return self.a1.n + self.a0.n

    def total_module(self) -> GammaModule:
        n1, n0 = self.a1.n, self.a0.n
        gamma = [[0] * (n1 + n0) for _ in range(n1 + n0)]
        for i in range(n1):
            for j in range(n1):
                gamma[i][j] = self.a1.gamma[i][j]
        for i in range(n0):
            for j in range(n0):
                gamma[n1 + i][n1 + j] = self.a0.gamma[i][j]
        rels = [r + [0] * n0 for r in self.a1.rels] + \
               [[0] * n1 + r for r in self.a0.rels]
        return GammaModule(gamma, rels, check=False)

    def big_d(self, k: int) -> list:
        """Matrix of D^k(a1, a0) = (d^{k+1} a1, d^k a0 - (-1)^k partial a1)."""
        n1, n0 = self.a1.n, self.a0.n
        d1 = self.a1.d(k + 1)
        d0 = self.a0.d(k)
        sign = 1 if k % 2 == 0 else -1
        out = [[0] * (n1 + n0) for _ in range(n1 + n0)]
        for i in range(n1):
            for j in range(n1):
                out[i][j] = d1[i][j]
            # the off-diagonal block is -(-1)^k * partial
            for j in range(n0):
                out[i][n1 + j] = -sign * self.partial[i][j]
        for i in range(n0):
            for j in range(n0):
                out[n1 + i][n1 + j] = d0[i][j]
        return out


class Subquotient:
    """The finite group (Z-lattice)/(B-lattice) inside Z^n."""

    def __init__(self, n: int, z_gens: list, b_gens: list):
        self.n = n
        self.z_rows = _lattice_rows(z_gens)
        self.b_rows = _lattice_rows(b_gens)
        for b in self.b_rows:
            if not _in_lattice(b, self.z_rows):
                raise CohomologyError("image-not-in-kernel")
        r = len(self.z_rows)
        # coordinates of the B generators in the Z basis
        coords = []
        for b in self.b_rows:
            c = self._coords(b)
            coords.append(c)
        # structure via SNF of the relation matrix padded to full rank
        if r == 0:
            self.invariants = []
            self._q = []
            self._qinv = []
            return
        rows = _lattice_rows(coords)
        if len(rows) < r:
            raise CohomologyError("infinite-quotient")
        a, p, q = snf(rows)
        self.invariants = [a[i][i] for i in range(r) if a[i][i] != 1]
        self._q = q
        self._qinv = mat_inverse(q)
        self._d = [a[i][i] for i in range(r)]

    def _coords(self, v: list) -> list:
        """Exact coordinates of v in the Z basis (HNF back substitution)."""
        c = [0] * len(self.z_rows)
        v = list(v)
        for idx, row in enumerate(self.z_rows):
            j = next(cc for cc, x in enumerate(row) if x != 0)
            if v[j] % row[j] != 0:
                raise CohomologyError("not-in-kernel")
            k = v[j] // row[j]
            c[idx] = k
            v = [x - k * y for x, y in zip(v, row)]
        if any(x != 0 for x in v):
            raise CohomologyError("not-in-kernel")
        return c

    def order(self) -> int:
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def class_key(self, v: list) -> tuple:
        """Canonical label of the class of v (a cocycle)."""
        c = self._coords(v)
        if not self.z_rows:
            return ()
        w = vec_mat(c, self._q)
        return tuple(w[i] % self._d[i] for i in range(len(self._d)))

    def is_zero_class(self, v: list) -> bool:
        return all(x == 0 for x in self.class_key(v))

    def representatives(self) -> list:
        """One cocycle per class, in a deterministic order."""
        if not self.z_rows:
            return [[0] * self.n]
        reps = []
        ranges = [range(d) for d in self._d]
        for w in product(*ranges):
            c = vec_mat(list(w), self._qinv)
            v = [0] * self.n
            for idx, k in enumerate(c):
                if k:
                    v = [x + k * y for x, y in zip(v, self.z_rows[idx])]
            reps.append(v)
        return reps


@dataclass
class CohomologyResult:
    representatives: list
    subquotient: Subquotient   # its invariants are the elementary divisors

    def order(self) -> int:
        return self.subquotient.order()


def _kernel_gens(n: int, mat: list, target_rels: list) -> list:
    """Generators of {v in Z^n : v*mat lies in the target relation lattice}."""
    stacked = [list(mat[i]) for i in range(n)] + [list(r) for r in target_rels]
    ker = kernel_basis(stacked)
    return [row[:n] for row in ker]


def tate(module: GammaModule, k: int) -> CohomologyResult:
    """Tate cohomology H^k of a Gamma-module, with representatives."""
    n = module.n
    dk = module.d(k)
    dprev = module.d(k - 1)
    z = _kernel_gens(n, dk, module.rels) + module.rels
    b = list(dprev) + module.rels
    sq = Subquotient(n, z, b)
    reps = [module.reduce(r) for r in sq.representatives()]
    return CohomologyResult(reps, sq)


def hyper(complex_: ShortComplex, k: int) -> CohomologyResult:
    """Tate hypercohomology H^k(A1 -> A0), with representatives as pairs."""
    n = complex_.n
    total = complex_.total_module()
    dk = complex_.big_d(k)
    dprev = complex_.big_d(k - 1)
    z = _kernel_gens(n, dk, total.rels) + total.rels
    b = list(dprev) + total.rels
    sq = Subquotient(n, z, b)
    reps = [total.reduce(r) for r in sq.representatives()]
    return CohomologyResult(reps, sq)


# -- connecting maps -----------------------------------------------------------


@dataclass
class ShortExactSequence:
    """0 -> A -> B -> C -> 0 of Gamma-modules (rows-are-images maps)."""

    a: GammaModule
    b: GammaModule
    c: GammaModule
    i: list  # nA x nB
    j: list  # nB x nC

    def __post_init__(self):
        self.verify()

    def verify(self):
        # i equivariant and injective, j equivariant and surjective, im i = ker j
        for mat, src, dst in ((self.i, self.a, self.b), (self.j, self.b, self.c)):
            lhs = mat_mul(src.gamma, mat)
            rhs = mat_mul(mat, dst.gamma)
            for x in range(src.n):
                row = [lhs[x][y] - rhs[x][y] for y in range(dst.n)]
                if not _in_lattice(row, dst._rel_h):
                    raise CohomologyError("not-exact", "map not equivariant")
            for r in src.rels:
                if not _in_lattice(vec_mat(r, mat), dst._rel_h):
                    raise CohomologyError("not-exact", "map not well defined")
        comp = mat_mul(self.i, self.j)
        for x in range(self.a.n):
            if not _in_lattice(comp[x], self.c._rel_h):
                raise CohomologyError("not-exact", "j o i nonzero")
        # injectivity of i: kernel of i inside relations of A
        ker_i = _kernel_gens(self.a.n, self.i, self.b.rels)
        for v in ker_i:
            if not _in_lattice(v, self.a._rel_h):
                raise CohomologyError("not-exact", "i not injective")
        # surjectivity of j: every generator of C has a preimage
        for g in identity(self.c.n):
            if self._lift_j(g) is None:
                raise CohomologyError("not-exact", "j not surjective")
        # ker j = im i
        ker_j = _kernel_gens(self.b.n, self.j, self.c.rels)
        im_i_rows = _lattice_rows(list(self.i) + self.b.rels)
        for v in ker_j:
            if not _in_lattice(v, im_i_rows):
                raise CohomologyError("not-exact", "ker j exceeds im i")

    def _lift_j(self, c_elt: list):
        stacked = [list(r) for r in self.j] + [list(r) for r in self.c.rels]
        sol = solve_integer(stacked, c_elt)
        if sol is None:
            return None
        return sol[: self.b.n]

    def _pullback_i(self, b_elt: list):
        stacked = [list(r) for r in self.i] + [list(r) for r in self.b.rels]
        sol = solve_integer(stacked, b_elt)
        if sol is None:
            return None
        return sol[: self.a.n]


def connecting(seq: ShortExactSequence, c_elt: list, k: int) -> list:
    """delta^k applied to a k-cocycle of C; returns a (k+1)-cocycle of A."""
    b = seq._lift_j(c_elt)
    if b is None:
        raise CohomologyError("lift-failed")
    a_img = vec_mat(b, seq.b.d(k))
    a = seq._pullback_i(a_img)
    if a is None:
        raise CohomologyError("not-exact", "d(lift) not in A")
    return seq.a.reduce(a)


@dataclass
class ComplexSES:
    """Short exact sequence of short complexes, componentwise."""

    ca: ShortComplex
    cb: ShortComplex
    cc: ShortComplex
    i1: list
    i0: list
    j1: list
    j0: list

    def __post_init__(self):
        ShortExactSequence(self.ca.a1, self.cb.a1, self.cc.a1, self.i1, self.j1)
        ShortExactSequence(self.ca.a0, self.cb.a0, self.cc.a0, self.i0, self.j0)
        # the maps must commute with the boundaries
        for (m1, m0, src, dst) in (
            (self.i1, self.i0, self.ca, self.cb),
            (self.j1, self.j0, self.cb, self.cc),
        ):
            lhs = mat_mul(src.partial, m0)
            rhs = mat_mul(m1, dst.partial)
            for x in range(src.a1.n):
                row = [lhs[x][y] - rhs[x][y] for y in range(dst.a0.n)]
                if not _in_lattice(row, dst.a0._rel_h):
                    raise CohomologyError("not-exact", "squares do not commute")

    def total_i(self) -> list:
        return _block_diag(self.i1, self.i0)

    def total_j(self) -> list:
        return _block_diag(self.j1, self.j0)


def _block_diag(m1: list, m0: list) -> list:
    r1, c1 = len(m1), len(m1[0]) if m1 else 0
    r0, c0 = len(m0), len(m0[0]) if m0 else 0
    out = [[0] * (c1 + c0) for _ in range(r1 + r0)]
    for i in range(r1):
        for j in range(c1):
            out[i][j] = m1[i][j]
    for i in range(r0):
        for j in range(c0):
            out[r1 + i][c1 + j] = m0[i][j]
    return out


def connecting_hyper(ses: ComplexSES, c_pair: list, k: int) -> list:
    """delta^k for hypercohomology: lift, apply D^k, pull back."""
    jt = ses.total_j()
    it = ses.total_i()
    total_c = ses.cc.total_module()
    total_b = ses.cb.total_module()
    total_a = ses.ca.total_module()
    stacked = [list(r) for r in jt] + [list(r) for r in total_c.rels]
    sol = solve_integer(stacked, c_pair)
    if sol is None:
        raise CohomologyError("lift-failed")
    b = sol[: ses.cb.n]
    img = vec_mat(b, ses.cb.big_d(k))
    stacked = [list(r) for r in it] + [list(r) for r in total_b.rels]
    sol = solve_integer(stacked, img)
    if sol is None:
        raise CohomologyError("not-exact", "D(lift) not in subcomplex")
    return total_a.reduce(sol[: ses.ca.n])


# -- finite Gamma-groups ---------------------------------------------------------


def _is_index_list(row, n: int) -> bool:
    return isinstance(row, list) and len(row) == n and \
        all(type(x) is int and 0 <= x < n for x in row)


class FiniteGammaGroup:
    """Finite group given by a multiplication table with a gamma-involution."""

    def __init__(self, table: list, gamma: list):
        if not (isinstance(table, list)
                and all(_is_index_list(row, len(table)) for row in table)
                and _is_index_list(gamma, len(table))):
            raise CohomologyError(
                "bad-input", "the table must be n x n and gamma of length n, "
                "with entries in 0..n-1")
        self.table = table
        self.gamma = gamma
        self.size = len(table)
        self.e = self._find_identity()
        self.inv = [next(j for j in range(self.size) if table[i][j] == self.e)
                    for i in range(self.size)]
        self._check()

    def _find_identity(self) -> int:
        for e in range(self.size):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.size)):
                return e
        raise CohomologyError("no-identity")

    def _check(self):
        n = self.size
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise CohomologyError("not-associative")
        g = self.gamma
        for a in range(n):
            if g[g[a]] != a:
                raise CohomologyError("gamma-not-involutive")
            for b in range(n):
                if g[self.table[a][b]] != self.table[g[a]][g[b]]:
                    raise CohomologyError("gamma-not-automorphism")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


@dataclass
class FiniteH1Result:
    representatives: list     # one per class

    def order(self) -> int:
        return len(self.representatives)


def h1_finite(group: FiniteGammaGroup, bound: int = 10 ** 6) -> FiniteH1Result:
    """Brute-force H^1 of a finite Gamma-group."""
    if group.size > bound:
        raise CohomologyError("size-bound")
    z1 = [a for a in range(group.size)
          if group.mul(a, group.gamma[a]) == group.e]
    seen = set()
    reps = []
    for z in z1:
        if z in seen:
            continue
        reps.append(z)
        # search over the twisted action: cur -> t^{-1} * cur * gamma(t)
        seen.add(z)
        frontier = [z]
        while frontier:
            cur = frontier.pop()
            for t in range(group.size):
                nxt = group.mul(
                    group.mul(group.inv[t], cur), group.gamma[t]
                )
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return FiniteH1Result(reps)
