"""Exact Lie algebra algorithms: Levi-type decompositions, Cartan
subalgebras, conjugation of Cartan subalgebras, Jordan decomposition, and
joint eigenspaces of commuting semisimple operators.

Matrices live in gl(n) over a square-root-closed field tower.  Internally
most algorithms run on structure-constant algebras; elements are coordinate
row vectors with respect to a fixed basis, and linear maps act on the right
(rows-are-images), matching the conventions of the rest of the package.

The Jordan decomposition needs no eigenvalue: the semisimple part is found
by Newton's iteration, inside the field of the matrix entries.  Only
joint_eigenspaces splits polynomials, and so may extend the tower.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .field import (
    FieldTower,
    RealcohError,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    split_poly,
)
from .linalg import (
    _diagonal_of,
    _nonzero,
    charpoly,
    echelon_reduce,
    left_kernel,
    mconj,
    meq,
    meye,
    minverse,
    mmul,
    msub,
    mtrace,
    mtranspose,
    mzeros,
    row_reduce,
    row_reduce_transform,
    solve_left,
    vmat,
)


class LieError(RealcohError):
    pass


# -- coordinate subspaces --------------------------------------------------------


def rref_rows(vectors: list) -> list:
    """Reduced nonzero basis rows of the span of the given row vectors."""
    if not vectors:
        return []
    rows, pivots = row_reduce(vectors)
    return rows[: len(pivots)]


def in_span(v: list, basis: list) -> bool:
    """Whether v lies in the span of the rref_rows basis."""
    return all(x.is_zero() for x in echelon_reduce(v, basis)[1])


def span_coords(v: list, basis: list, code: str) -> list:
    """Coordinates of v in the rref_rows basis; LieError(code) when v lies
    outside the span."""
    sol, rest = echelon_reduce(v, basis)
    if any(not x.is_zero() for x in rest):
        raise LieError(code)
    return sol


def span_eq(a: list, b: list) -> bool:
    return len(a) == len(b) and all(in_span(v, b) for v in a)


def span_intersect(a: list, b: list, tower: FieldTower) -> list:
    if not a or not b:
        return []
    stacked = [list(r) for r in a] + [[-x for x in r] for r in b]
    return rref_rows([vmat(c[:len(a)], a)
                      for c in left_kernel(stacked, tower)])


def span_sum(a: list, b: list) -> list:
    return rref_rows(list(a) + list(b))


def _restrict(op: list, basis: list) -> list:
    """Matrix of the operator op on the span of the rref_rows basis, which
    op must map into itself."""
    return [span_coords(vmat(row, op), basis, "not-invariant")
            for row in basis]


# -- structure constant algebras -------------------------------------------------


class SCAlgebra:
    """Lie algebra given by structure constants on a fixed basis.

    brackets maps each pair a < b to {c: coefficient} of [e_a, e_b] (an
    absent pair is zero); only the nonzero terms are kept, and [e_b, e_a]
    is their negation."""

    def __init__(self, dim: int, brackets: dict, tower: FieldTower,
                 check: bool = False):
        self.tower = tower
        self.dim = dim
        # the nonzero (c, coefficient) pairs of each [e_a, e_b]
        self._terms = terms = [[[] for _ in range(dim)] for _ in range(dim)]
        for (a, b), ab in brackets.items():
            nz = [(c, x) for c, x in ab.items() if not x.is_zero()]
            terms[a][b] = nz
            terms[b][a] = [(c, -x) for c, x in nz]
        if check:
            self._check()

    def _check(self):
        e = self.basis_rows()
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                ab = self.bracket(e[a], e[b])
                for c in range(b + 1, self.dim):
                    jac = [x + y + z for x, y, z in zip(
                        self.bracket(ab, e[c]),
                        self.bracket(self.bracket(e[b], e[c]), e[a]),
                        self.bracket(self.bracket(e[c], e[a]), e[b]))]
                    if any(not x.is_zero() for x in jac):
                        raise LieError("jacobi-fails")

    def _e(self, i: int) -> list:
        v = [self.tower.zero()] * self.dim
        v[i] = self.tower.one()
        return v

    def basis_rows(self) -> list:
        return [self._e(i) for i in range(self.dim)]

    def _bracket_terms(self, u_nz: list, v_nz: list) -> dict:
        """{c: coefficient} of [u, v] from the nonzero (index, entry) pairs
        of u and v; a coefficient may cancel to zero."""
        acc = {}
        for a, x in u_nz:
            row = self._terms[a]
            for b, y in v_nz:
                terms = row[b]
                if not terms:
                    continue
                f = x * y
                for c, s in terms:
                    acc[c] = acc[c] + f * s if c in acc else f * s
        return acc

    def bracket(self, u: list, v: list) -> list:
        acc = self._bracket_terms(_nonzero(u), _nonzero(v))
        zero = self.tower.zero()
        return [acc.get(c, zero) for c in range(self.dim)]

    def ad(self, u: list) -> list:
        """Matrix of ad(u) acting on coordinate rows, v |-> coords([u, v])."""
        return [self.bracket(u, self._e(j)) for j in range(self.dim)]

    def product_space(self, a: list, b: list) -> list:
        """rref_rows basis of [span(a), span(b)]; the nonzero entries of each
        vector are read once and zero brackets are dropped."""
        b_nz = [_nonzero(y) for y in b]
        zero = self.tower.zero()
        vecs = []
        for x in a:
            x_nz = _nonzero(x)
            for y_nz in b_nz:
                acc = self._bracket_terms(x_nz, y_nz)
                if any(not v.is_zero() for v in acc.values()):
                    vecs.append([acc.get(c, zero) for c in range(self.dim)])
        return rref_rows(vecs)

    def derived_series(self, a: list) -> list:
        series = [rref_rows(a)]
        while series[-1]:
            nxt = self.product_space(series[-1], series[-1])
            if span_eq(nxt, series[-1]):
                break
            series.append(nxt)
        return series

    def lower_central_series(self, a: list) -> list:
        series = [rref_rows(a)]
        while series[-1]:
            nxt = self.product_space(series[0], series[-1])
            if span_eq(nxt, series[-1]):
                break
            series.append(nxt)
        return series

    def killing(self, u: list, v: list):
        m = mmul(self.ad(u), self.ad(v))
        acc = self.tower.zero()
        for i in range(self.dim):
            acc = acc + m[i][i]
        return acc

    def radical(self) -> list:
        """Solvable radical: Killing-orthogonal of the derived subalgebra."""
        derived = self.product_space(self.basis_rows(), self.basis_rows())
        if not derived:
            return self.basis_rows()
        gram = [[self.killing(self._e(i), d) for d in derived]
                for i in range(self.dim)]
        return left_kernel(gram, self.tower)

    def centralizer(self, a: list, b: list) -> list:
        """{x in span(a) : [x, y] = 0 for all y in span(b)}.

        Row i of the linear system holds the brackets [a_i, b_j] side by
        side; only the columns with a nonzero entry are kept, since a zero
        column adds no condition."""
        if not a:
            return []
        if not b:
            return rref_rows(a)
        b_nz = [_nonzero(y) for y in b]
        rows, cols = [], set()
        for x in a:
            x_nz = _nonzero(x)
            row = {}
            for j, y_nz in enumerate(b_nz):
                for c, v in self._bracket_terms(x_nz, y_nz).items():
                    if not v.is_zero():
                        row[j, c] = v
            rows.append(row)
            cols.update(row)
        if not cols:
            return rref_rows(a)
        cols = sorted(cols)
        zero = self.tower.zero()
        system = [[row.get(col, zero) for col in cols] for row in rows]
        return rref_rows([vmat(k, a) for k in left_kernel(system, self.tower)])

    def center_of(self, a: list) -> list:
        return self.centralizer(a, a)

    # -- quotients and subalgebras ---------------------------------------------

    def quotient(self, ideal: list):
        """Quotient algebra by an ideal.

        Returns (algebra, proj, lift): proj maps coordinate rows of self to
        quotient coordinates, lift picks coset representatives.
        """
        ib = rref_rows(ideal)
        pivots = [next(c for c, x in enumerate(row) if not x.is_zero())
                  for row in ib]
        free = [j for j in range(self.dim) if j not in pivots]

        def proj(v):
            red = echelon_reduce(v, ib)[1]
            return [red[j] for j in free]

        def lift(w):
            v = [self.tower.zero()] * self.dim
            for idx, j in enumerate(free):
                v[j] = w[idx]
            return v

        m = len(free)
        brackets = {(a, b): dict(enumerate(
            proj(self.bracket(self._e(free[a]), self._e(free[b])))))
            for a in range(m) for b in range(a + 1, m)}
        return SCAlgebra(m, brackets, self.tower), proj, lift

    def subalgebra(self, rows: list):
        """Algebra on the span of rows (must be closed under the bracket).

        Returns (algebra, embed, coords): embed maps sub-coordinates to
        self-coordinates, coords inverts it on the subspace.
        """
        basis = rref_rows(rows)
        m = len(basis)

        def embed(w):
            return vmat(w, basis)

        def coords(v):
            return span_coords(v, basis, "not-in-subalgebra")

        brackets = {(a, b): dict(enumerate(
            coords(self.bracket(basis[a], basis[b]))))
            for a in range(m) for b in range(a + 1, m)}
        return SCAlgebra(m, brackets, self.tower), embed, coords

    # -- Fitting decomposition --------------------------------------------------

    def generalized_kernel(self, op: list, space: list) -> list:
        """Generalized 0-eigenspace of the operator op restricted to space."""
        basis = rref_rows(space)
        if not basis:
            return []
        restr = _restrict(op, basis)
        power = meye(self.tower, len(basis))
        for _ in basis:
            power = mmul(power, restr)
        return rref_rows([vmat(c, basis)
                          for c in left_kernel(power, self.tower)])

    def fitting(self, a: list, h: list) -> tuple:
        """Fitting decomposition of span(a) relative to the nilpotent
        subalgebra span(h): (null component, one component)."""
        a = rref_rows(a)
        h = rref_rows(h)
        a0 = a
        while True:
            nxt = a0
            for y in h:
                nxt = self.generalized_kernel(self.ad(y), nxt)
            if span_eq(nxt, a0):
                break
            a0 = nxt
        a1 = a
        while True:
            nxt = rref_rows([self.bracket(y, v) for y in h for v in a1])
            if span_eq(nxt, a1):
                break
            a1 = nxt
        if h and a1 and span_intersect(a0, a1, self.tower):
            raise LieError("fitting-failed")
        if len(a0) + len(a1) != len(a):
            raise LieError("fitting-failed")
        return a0, a1

    def fitting_null_of_element(self, x: list) -> list:
        return self.generalized_kernel(self.ad(x), self.basis_rows())

    # -- Cartan subalgebras -----------------------------------------------------

    def _draws(self, n: int):
        """The one fixed pseudo-random draw: 200 vectors of n integers in
        [0, 2*dim), from random.Random(0)."""
        rng = random.Random(0)
        omega = 2 * max(self.dim, 1)
        for _ in range(200):
            yield [self.tower.from_rational(rng.randrange(omega))
                   for _ in range(n)]

    def cartan_subalgebra(self) -> list:
        """A Cartan subalgebra, from one fixed draw: the null component of
        the first drawn element whose null component is a Cartan
        subalgebra.  The same algebra always gives the same answer."""
        if self.dim == 0:
            return []
        for x in self._draws(self.dim):
            if all(t.is_zero() for t in x):
                continue
            h = self.fitting_null_of_element(x)
            if self._confirm_cartan(h):
                return h
        raise LieError("cartan-not-found")

    def _confirm_cartan(self, h: list) -> bool:
        if not self.is_nilpotent_space(h):
            return False
        try:
            a0, _ = self.fitting(self.basis_rows(), h)
        except LieError:
            return False
        return span_eq(a0, h)

    def is_nilpotent_space(self, h: list) -> bool:
        if not h:
            return True
        series = self.lower_central_series(h)
        return not series[-1]

    def regular_element(self, h: list) -> list:
        """x in the Cartan subalgebra h with null component exactly h."""
        h = rref_rows(h)
        for c in self._draws(len(h)):
            x = vmat(c, h)
            if any(not t.is_zero() for t in x) and \
                    span_eq(self.fitting_null_of_element(x), h):
                return x
        raise LieError("regular-not-found")

    # -- exp(ad x) --------------------------------------------------------------

    def exp_ad(self, x: list) -> list:
        """Operator exp(ad x) on coordinate rows; ad x must be nilpotent."""
        return exp_nilpotent(self.ad(x), self.tower)

    def apply_operator(self, op: list, space: list) -> list:
        return rref_rows([vmat(v, op) for v in space])


# -- Levi decomposition (abstract) -----------------------------------------------


def levi_subalgebra(alg: SCAlgebra) -> list:
    """Rows spanning a semisimple complement to the radical."""
    rad = alg.radical()
    if not rad:
        return alg.basis_rows()
    series = alg.derived_series(rad)
    ideal = series[-1] if series[-1] else series[-2]
    # ideal is the last nonzero term of the derived series: abelian, and an
    # ideal of the whole algebra
    quot, proj, lift = alg.quotient(ideal)
    sbar = levi_subalgebra(quot)
    reps = [lift(w) for w in sbar]
    m = len(reps)
    p = len(ideal)
    ib = rref_rows(ideal)

    def icoords(v):
        return span_coords(v, ib, "not-in-ideal")

    # structure constants of the quotient Levi on the chosen representatives
    sc = [[span_coords(quot.bracket(sbar[a], sbar[b]), sbar, "levi-not-closed")
           for b in range(m)] for a in range(m)]
    if m == 0 or p == 0:
        return rref_rows(reps)
    # unknowns u_a in the ideal correcting reps to close under the bracket
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    ncols = len(pairs) * p
    rows = []
    tower = alg.tower
    zero = tower.zero()
    for a in range(m):
        for k in range(p):
            row = [zero] * ncols
            for pi, (x, y) in enumerate(pairs):
                contrib = [zero] * p
                if x == a:
                    # -[rep_y, i_k] term from -ad(rep_y)(u_x) with sign
                    contrib = [c - d for c, d in zip(
                        contrib, icoords(alg.bracket(reps[y], ib[k])))]
                if y == a:
                    contrib = [c + d for c, d in zip(
                        contrib, icoords(alg.bracket(reps[x], ib[k])))]
                if not sc[x][y][a].is_zero():
                    contrib[k] = contrib[k] - sc[x][y][a]
                for j in range(p):
                    row[pi * p + j] = contrib[j]
            rows.append(row)
    target = []
    for (x, y) in pairs:
        z = alg.bracket(reps[x], reps[y])
        z = [zi - ri for zi, ri in zip(z, vmat(sc[x][y], reps))]
        target.extend([-t for t in icoords(z)])
    sol = solve_left(rows, target, tower)
    if sol is None:
        raise LieError("levi-correction-failed")
    out = rref_rows([[vi + bi for vi, bi in zip(
        reps[a], vmat(sol[a * p:(a + 1) * p], ib))] for a in range(m)])
    # verify closure
    for x in out:
        for y in out:
            if not in_span(alg.bracket(x, y), out):
                raise LieError("levi-not-closed")
    return out


def compose_exp(alg: SCAlgebra, zs: list) -> list:
    """Operator exp(ad z_1) o ... o exp(ad z_k); the last z is applied first."""
    op = meye(alg.tower, alg.dim)
    for z in zs:
        op = mmul(alg.exp_ad(z), op)
    return op


# -- conjugating Cartan subalgebras of a solvable algebra ------------------------


def conj_cartan_solvable_sc(alg: SCAlgebra, h1: list, h2: list) -> list:
    """Elements x_1..x_k of [b,b] with exp(ad x_1)...exp(ad x_k)(h1) = h2."""
    tower = alg.tower
    h1 = rref_rows(h1)
    h2 = rref_rows(h2)
    if span_eq(h1, h2):
        return []
    b = alg.basis_rows()
    series = alg.derived_series(b)
    if series[-1]:
        raise LieError("not-solvable")
    ideal = series[-2]
    if span_eq(span_sum(h2, ideal), b):
        # the one-component of b relative to h2 is then an abelian ideal,
        # and b = h1 (+) b1(h2) = h2 (+) b1(h2)
        ideal = alg.fitting(b, h2)[1]
        if not ideal:
            raise LieError("conjugation-failed")
        u = alg.regular_element(h2)
        stacked = h1 + ideal
        sol = solve_left(stacked, u, tower)
        if sol is None:
            raise LieError("conjugation-failed")
        y = vmat(sol[len(h1):], ideal)
        rows = [alg.bracket(v, u) for v in ideal]
        zc = solve_left(rows, y, tower)
        if zc is None:
            raise LieError("conjugation-failed")
        z = vmat(zc, ideal)
        if not span_eq(alg.apply_operator(alg.exp_ad(z), h1), h2):
            raise LieError("conjugation-failed")
        return [z]
    # recurse in the quotient, then inside h2 + ideal
    quot, proj, _lift = alg.quotient(ideal)
    xs_bar = conj_cartan_solvable_sc(
        quot, [proj(v) for v in h1], [proj(v) for v in h2])
    derived = alg.product_space(b, b)
    proj_der = [proj(v) for v in derived]
    xs = []
    for xb in xs_bar:
        sol = solve_left(proj_der, xb, tower)
        if sol is None:
            raise LieError("conjugation-failed")
        xs.append(vmat(sol, derived))
    h0 = alg.apply_operator(compose_exp(alg, xs), h1)
    a = span_sum(h2, ideal)
    sub, embed, coords = alg.subalgebra(a)
    ys_sub = conj_cartan_solvable_sc(
        sub, [coords(v) for v in h0], [coords(v) for v in h2])
    ys = [embed(y) for y in ys_sub]
    result = ys + xs
    if not span_eq(alg.apply_operator(compose_exp(alg, result), h1), h2):
        raise LieError("conjugation-failed")
    return result


def cartan_containing_torus(alg: SCAlgebra, t_rows: list) -> list:
    """A Cartan subalgebra of alg containing the toral subalgebra t_rows."""
    zc = alg.centralizer(alg.basis_rows(), t_rows)
    sub, embed, _coords = alg.subalgebra(zc)
    h = rref_rows([embed(v) for v in sub.cartan_subalgebra()])
    for v in t_rows:
        if not in_span(v, h):
            raise LieError("cartan-not-found")
    return h


def align_cartan_sc(alg: SCAlgebra, h0: list, s: list, t: list,
                    n: list) -> tuple:
    """(h_s, h, x_1..x_k): h is a Cartan subalgebra containing h_s (+) t,
    and the nilpotent x_i conjugate h0 onto h."""
    tower = alg.tower
    h0 = rref_rows(h0)
    rad = span_sum(t, n)
    _quot, proj, _lift = alg.quotient(rad)
    s_rref = rref_rows(s)
    sproj = [proj(v) for v in s_rref]
    h_s = []
    for v in h0:
        sol = solve_left(sproj, proj(v), tower)
        if sol is None:
            raise LieError("alignment-failed")
        h_s.append(vmat(sol, s_rref))
    h_s = rref_rows(h_s)
    u = span_sum(h_s, t)
    h = cartan_containing_torus(alg, u)
    if not alg._confirm_cartan(h):
        raise LieError("alignment-failed")
    b = span_sum(h, rad)
    bsub, bembed, bcoords = alg.subalgebra(b)
    xs = [bembed(x) for x in conj_cartan_solvable_sc(
        bsub, [bcoords(v) for v in h0], [bcoords(v) for v in h])]
    n_rref = rref_rows(n)
    for x in xs:
        if not in_span(x, n_rref):
            raise LieError("alignment-failed")
    if not span_eq(alg.apply_operator(compose_exp(alg, xs), h0), h):
        raise LieError("alignment-failed")
    return h_s, h, xs


# -- matrix-level Lie algebra data -----------------------------------------------


def _flatten(mat: list) -> list:
    return [x for row in mat for x in row]


class LieAlgebraDatum:
    """A Lie subalgebra of gl(n) given by a basis of matrices.

    A matrix enters as the map {i*n + j: entry} of its nonzero entries.  The
    flattened basis is reduced once, and only the sparse forms are kept:
    the rref row of each pivot column, the nonzero entries of each rref row
    off its pivot, and the nonzero entries of each transform row.  The
    structure constants and from_coords use the nonzero entries of the
    basis matrices, kept row by row."""

    def __init__(self, basis: list, tower: FieldTower,
                 check_jacobi: bool = False):
        if not basis:
            raise LieError("empty-basis")
        self.tower = tower
        self.basis = basis
        self.n = n = len(basis[0])
        self.dim = dim = len(basis)
        rref, trans, pivots = row_reduce_transform(
            [_flatten(m) for m in basis], tower)
        if len(pivots) != dim:
            raise LieError("dependent-basis")
        self._pivot_row = {p: r for r, p in enumerate(pivots)}
        self._rref = [[(j, x) for j, x in _nonzero(row) if j != p]
                      for row, p in zip(rref, pivots)]
        self._trans = [_nonzero(row) for row in trans]
        self._rows = rows = [[_nonzero(row) for row in m] for m in basis]
        brackets = {}
        for a in range(dim):
            for b in range(a + 1, dim):
                acc = {}
                for i, row in enumerate(rows[a]):
                    for k, x in row:
                        for j, y in rows[b][k]:
                            t = i * n + j
                            p = x * y
                            acc[t] = acc[t] + p if t in acc else p
                for i, row in enumerate(rows[b]):
                    for k, x in row:
                        for j, y in rows[a][k]:
                            t = i * n + j
                            p = x * y
                            acc[t] = acc[t] - p if t in acc else -p
                brackets[a, b] = self._reduce(acc)
        self.sc = SCAlgebra(dim, brackets, tower, check=check_jacobi)

    def _reduce(self, v: dict) -> dict:
        """Coordinates {index: coefficient} of the matrix with flat entries
        v ({i*n + j: entry}); an absent index is zero either way.  Raises
        LieError("not-in-algebra") when the matrix lies outside the span.

        The coefficients of the rref rows are the entries of v at the
        pivots, so v lies in the span exactly when they reproduce v off the
        pivots; the transform rows turn them into coordinates."""
        rest, coeffs = {}, []
        for t, x in v.items():
            r = self._pivot_row.get(t)
            if r is None:
                rest[t] = x
            elif not x.is_zero():
                coeffs.append((r, x))
        for r, c in coeffs:
            for t, y in self._rref[r]:
                p = c * y
                rest[t] = rest[t] - p if t in rest else -p
        if any(not x.is_zero() for x in rest.values()):
            raise LieError("not-in-algebra")
        out = {}
        for r, c in coeffs:
            for j, y in self._trans[r]:
                p = c * y
                out[j] = out[j] + p if j in out else p
        return out

    @cached_property
    def real_form(self) -> bool:
        """Whether the span is closed under entrywise conjugation."""
        return all(self.contains(mconj(m)) for m in self.basis)

    def coords(self, mat: list) -> list:
        n = self.n
        return self.entry_coords({i * n + j: x for i, row in enumerate(mat)
                                  for j, x in _nonzero(row)})

    def entry_coords(self, v: dict) -> list:
        """Coordinates of the matrix with flat entries v ({i*n + j: entry});
        raises LieError("not-in-algebra") when it lies outside the span."""
        out = self._reduce(v)
        zero = self.tower.zero()
        return [out.get(c, zero) for c in range(self.dim)]

    def entries(self, v: list) -> dict:
        """The flat entries {i*n + j: entry} of sum_b v_b X_b, summed over
        the nonzero entries of each X_b; an entry that cancels stays, as a
        zero."""
        n = self.n
        out = {}
        for c, rows in zip(v, self._rows):
            if c.is_zero():
                continue
            for i, row in enumerate(rows):
                for j, y in row:
                    t = i * n + j
                    p = c * y
                    out[t] = out[t] + p if t in out else p
        return out

    def contains(self, mat: list) -> bool:
        try:
            self.coords(mat)
            return True
        except LieError:
            return False

    def from_coords(self, v: list) -> list:
        """The matrix sum_b v_b X_b, from the nonzero entries of each X_b."""
        n = self.n
        out = mzeros(self.tower, n, n)
        for t, x in self.entries(v).items():
            out[t // n][t % n] = x
        return out

    def mats_to_rows(self, mats: list) -> list:
        return [self.coords(m) for m in mats]

    def rows_to_mats(self, rows: list) -> list:
        return [self.from_coords(v) for v in rows]


@dataclass
class LeviDecomposition:
    s_basis: list
    t_basis: list
    n_basis: list


def _nilpotent_matrix(mat: list) -> bool:
    n = len(mat)
    power = mat
    for _ in range(n):
        if all(x.is_zero() for row in power for x in row):
            return True
        power = mmul(power, mat)
    return all(x.is_zero() for row in power for x in row)


def levi_decompose(datum: LieAlgebraDatum) -> LeviDecomposition:
    alg = datum.sc
    tower = datum.tower
    s_rows = levi_subalgebra(alg)
    rad = alg.radical()
    # nilpotent part of the radical: radical elements trace-orthogonal to
    # the whole algebra in the ambient representation
    n_rows = []
    if rad:
        rad_mats = datum.rows_to_mats(rad)
        gram = [[mtrace(mmul(rm, bm)) for bm in datum.basis]
                for rm in rad_mats]
        n_rows = [vmat(c, rad) for c in left_kernel(gram, tower)]
    n_rows = rref_rows(n_rows)
    # torus part: semisimple parts of a Cartan subalgebra of the
    # centralizer of the Levi subalgebra inside the radical
    zr = alg.centralizer(rad, s_rows)
    t_rows = []
    if zr:
        sub, embed, _coords = alg.subalgebra(zr)
        for v in sub.cartan_subalgebra():
            mat = datum.from_coords(embed(v))
            sm, _ = additive_jordan(mat, tower)
            t_rows.append(datum.coords(sm))
    t_rows = rref_rows(t_rows)
    _verify_levi(datum, s_rows, t_rows, n_rows)
    return LeviDecomposition(
        datum.rows_to_mats(s_rows),
        datum.rows_to_mats(t_rows),
        datum.rows_to_mats(n_rows),
    )


def _verify_levi(datum: LieAlgebraDatum, s_rows: list, t_rows: list,
                 n_rows: list):
    alg = datum.sc
    tower = datum.tower
    if len(s_rows) + len(t_rows) + len(n_rows) != alg.dim or \
            len(rref_rows(s_rows + t_rows + n_rows)) != alg.dim:
        raise LieError("decomposition-failed", "not a direct sum")
    for x in s_rows:
        for y in t_rows:
            if any(not v.is_zero() for v in alg.bracket(x, y)):
                raise LieError("decomposition-failed", "[s,t] != 0")
    for x in t_rows:
        for y in t_rows:
            if any(not v.is_zero() for v in alg.bracket(x, y)):
                raise LieError("decomposition-failed", "t not abelian")
    n_span = rref_rows(n_rows)
    for x in alg.basis_rows():
        for y in n_rows:
            if not in_span(alg.bracket(x, y), n_span):
                raise LieError("decomposition-failed", "n not an ideal")
    for y in n_rows:
        if not _nilpotent_matrix(datum.from_coords(y)):
            raise LieError("decomposition-failed", "n not nilpotent")
    for y in t_rows:
        mat = datum.from_coords(y)
        _, npart = additive_jordan(mat, tower)
        if any(not x.is_zero() for row in npart for x in row):
            raise LieError("decomposition-failed", "t not toral")
    # reductive part: nondegenerate trace form on s + t
    red = s_rows + t_rows
    if red:
        mats = datum.rows_to_mats(red)
        gram = [[mtrace(mmul(a, b)) for b in mats] for a in mats]
        if left_kernel(gram, tower):
            raise LieError("decomposition-failed", "s+t not reductive")


# -- Jordan decomposition, exp and log --------------------------------------------


@dataclass
class JordanPair:
    s: list
    u: list


def exp_nilpotent(x: list, tower: FieldTower) -> list:
    n = len(x)
    out = meye(tower, n)
    term = x
    for k in range(1, n + 2):
        if all(v.is_zero() for row in term for v in row):
            return out
        f = tower.from_rational(Fraction(1, factorial(k)))
        out = [[a + f * b for a, b in zip(ra, rb)]
               for ra, rb in zip(out, term)]
        term = mmul(term, x)
    raise LieError("not-nilpotent")


def log_unipotent(u: list, tower: FieldTower) -> list:
    n = len(u)
    nil = msub(u, meye(tower, n))
    out = mzeros(tower, n, n)
    term = nil
    for k in range(1, n + 2):
        if all(v.is_zero() for row in term for v in row):
            return out
        f = tower.from_rational(Fraction((-1) ** (k + 1), k))
        out = [[a + f * b for a, b in zip(ra, rb)]
               for ra, rb in zip(out, term)]
        term = mmul(term, nil)
    raise LieError("not-unipotent")


def _mat_poly_eval(p: list, mat: list, tower: FieldTower) -> list:
    n = len(mat)
    out = mzeros(tower, n, n)
    for i in range(n):
        out[i][i] = p[-1]
    for c in reversed(p[:-1]):
        out = mmul(out, mat)
        for i in range(n):
            out[i][i] = out[i][i] + c
    return out


def semisimple_part(mat: list, tower: FieldTower) -> list:
    """The semisimple summand of the additive Jordan decomposition, by
    Newton's iteration s <- s - p(s) p'(s)^-1 from s = mat, where
    p = chi / gcd(chi, chi') is the square-free part of the characteristic
    polynomial (Couty, Esterle and Zarouf, Gazette des Mathematiciens 129,
    2011).  Each s is a polynomial in mat with mat - s nilpotent, so p'(s) is
    invertible, and the nilpotency index of p(s) at least doubles per step.
    p is square-free, so p(s) = 0 certifies that s is semisimple; no
    eigenvalue is computed and the tower is not extended."""
    cp = charpoly(mat, tower)
    p, _ = poly_divmod(cp, poly_gcd(cp, poly_derivative(cp), tower), tower)
    dp = poly_derivative(p)
    s = mat
    for _ in range(len(mat) + 1):
        ps = _mat_poly_eval(p, s, tower)
        if all(x.is_zero() for row in ps for x in row):
            return s
        s = msub(s, mmul(ps, minverse(_mat_poly_eval(dp, s, tower), tower)))
    raise LieError("jordan-failed")


def additive_jordan(mat: list, tower: FieldTower) -> tuple:
    """(semisimple, nilpotent) with mat = s + n and [s, n] = 0."""
    s = semisimple_part(mat, tower)
    npart = msub(mat, s)
    if not _nilpotent_matrix(npart):
        raise LieError("jordan-failed")
    if not meq(mmul(s, npart), mmul(npart, s)):
        raise LieError("jordan-failed")
    return s, npart


def jordan(g: list, tower: FieldTower) -> JordanPair:
    """Multiplicative Jordan decomposition g = s*u of an invertible matrix."""
    n = len(g)
    s, _ = additive_jordan(g, tower)
    sinv = minverse(s, tower)
    u = mmul(sinv, g)
    if not _nilpotent_matrix(msub(u, meye(tower, n))):
        raise LieError("jordan-failed")
    if not meq(mmul(s, u), mmul(u, s)):
        raise LieError("jordan-failed")
    return JordanPair(s, u)


# -- projection to the reductive quotient -----------------------------------------


def _commutant_rows(datum: LieAlgebraDatum, s: list) -> list:
    """Coordinates of {x in g : s x = x s}."""
    rows = [_flatten(msub(mmul(s, b), mmul(b, s))) for b in datum.basis]
    return left_kernel(rows, datum.tower)


def reductive_projection(datum: LieAlgebraDatum, levi: LeviDecomposition,
                         g: list) -> list:
    """Image of g under the canonical projection killing the unipotent
    radical, realized inside the reductive subgroup with algebra s + t."""
    tower = datum.tower
    jp = jordan(g, tower)
    # unipotent part: exp of the (s + t)-component of log u
    zrow = datum.coords(log_unipotent(jp.u, tower))
    srows = datum.mats_to_rows(levi.s_basis)
    trows = datum.mats_to_rows(levi.t_basis)
    nrows = datum.mats_to_rows(levi.n_basis)
    stacked = srows + trows + nrows
    sol = solve_left(stacked, zrow, tower)
    if sol is None:
        raise LieError("projection-failed")
    red = vmat(sol[: len(srows) + len(trows)],
               stacked[: len(srows) + len(trows)])
    pu = exp_nilpotent(datum.from_coords(red), tower)
    # semisimple part: conjugate its torus into the reductive subgroup
    if meq(jp.s, meye(tower, datum.n)):
        ps = jp.s
    else:
        zrows = _commutant_rows(datum, jp.s)
        sub, embed, _c = datum.sc.subalgebra(zrows)
        h0 = [embed(v) for v in sub.cartan_subalgebra()]
        _hs, _h, xs = align_cartan_sc(datum.sc, h0, srows, trows, nrows)
        hmat = meye(tower, datum.n)
        for x in datum.rows_to_mats(xs):
            hmat = mmul(hmat, exp_nilpotent(x, tower))
        ps = mmul(mmul(hmat, jp.s), minverse(hmat, tower))
    return mmul(ps, pu)


# -- root systems ------------------------------------------------------------------


@dataclass
class RootDatum:
    roots: list            # eigenvalue tuples of ad on the Cartan basis
    x_gens: list           # simple root vectors, in canonical order
    y_gens: list           # opposite root vectors: h_i = [x_i, y_i] has
                           # [h_i, x_i] = 2 x_i
    cartan_matrix: list    # integer matrix A[i][j] with [h_i,x_j]=A[i][j]x_j


def _elt_positive(x) -> bool:
    r = x.real_part()
    if not r.is_zero():
        return r.is_positive()
    return x.imag_part().is_positive()


def _tuple_positive(t: list) -> bool:
    for x in t:
        if not x.is_zero():
            return _elt_positive(x)
    return False


def joint_eigenspaces(ops: list, tower: FieldTower, dim: int) -> list:
    """Common eigenspaces of commuting semisimple operators on row space.

    Returns a list of (eigenvalue tuple, rref_rows basis).  A space on which
    an operator acts as a scalar is kept as it is, and so is a line, whose
    eigenvalue is read from its pivot column: an operator commuting with
    the ones before it maps their joint eigenspaces into themselves."""
    spaces = [([], meye(tower, dim))]
    for op in ops:
        refined = []
        for tup, s in spaces:
            if len(s) == 1:
                refined.append((tup + echelon_reduce(vmat(s[0], op), s)[0], s))
                continue
            restr = _restrict(op, s)
            lam = restr[0][0]
            if all(x == lam if i == j else x.is_zero()
                   for i, row in enumerate(restr) for j, x in enumerate(row)):
                refined.append((tup + [lam], s))
                continue
            vals = []
            for f in split_poly(charpoly(restr, tower), tower):
                root = -f[0]
                if all(root != v for v in vals):
                    vals.append(root)
            covered = 0
            for lam in vals:
                shifted = [
                    [restr[i][j] - (lam if i == j else tower.zero())
                     for j in range(len(s))]
                    for i in range(len(s))
                ]
                eig = [vmat(c, s) for c in left_kernel(shifted, tower)]
                if eig:
                    refined.append((tup + [lam], rref_rows(eig)))
                    covered += len(eig)
            if covered != len(s):
                raise LieError("not-semisimple-action")
        spaces = refined
    return spaces


def _sandwich(cols: list, entries, rows: list) -> dict:
    """{(i, j): entry} of L X R, for X given by its nonzero ((k, l), x)
    entries, cols[k] the nonzero (i, L_ik) of column k of L and rows[l] the
    nonzero (j, R_lj) of row l of R."""
    acc = {}
    for (k, l), x in entries:
        for i, a in cols[k]:
            f = a * x
            for j, y in rows[l]:
                p = f * y
                acc[i, j] = acc[i, j] + p if (i, j) in acc else p
    return acc


def root_system(datum: LieAlgebraDatum, cartan_mats: list, c: list,
                cinv: list) -> RootDatum:
    """Root data of g with respect to t = span(cartan_mats), read off a
    matrix C for which every C^-1 t_m C is diagonal (checked with one
    product each, linalg._diagonal_of: the columns of C have unit leading
    entries).

    With d_m the diagonal of C^-1 t_m C, the matrix unit E_ij has weight
    (d_mi - d_mj)_m under ad(t) on gl(n).  g is ad(t)-stable, so its weight
    space for alpha is the image of g under the projection P_alpha onto the
    cells of weight alpha, taken in the basis C: spanned by P_alpha(Y_b),
    Y_b = C^-1 X_b C for the basis matrices X_b.  A nonzero weight whose
    space is a line is a root, with vector the coordinate row of
    C P_alpha(Y_b) C^-1 scaled to leading coefficient 1; a larger space
    raises root-multiplicity.  t is abelian and toral because C diagonalizes
    it, so it is a Cartan subalgebra exactly when the zero weight space has
    its dimension (cartan-failed otherwise)."""
    tower = datum.tower
    alg = datum.sc
    n = datum.n
    diags = [_diagonal_of(c, m) for m in cartan_mats]
    if None in diags:
        raise LieError("not-diagonalized")
    # the weight of each matrix unit, keyed by the normal forms of its values
    cell_key, weights = {}, {}
    for i in range(n):
        for j in range(n):
            w = [d[i] - d[j] for d in diags]
            key = tuple(x._key() for x in w)
            cell_key[i, j] = key
            weights.setdefault(key, w)
    c_rows = [_nonzero(row) for row in c]
    c_cols = [_nonzero(col) for col in mtranspose(c)]
    cinv_rows = [_nonzero(row) for row in cinv]
    cinv_cols = [_nonzero(col) for col in mtranspose(cinv)]
    # proj[key][b]: the entries of Y_b in the cells of weight key
    proj = {}
    for b, mat in enumerate(datum._rows):
        y_b = _sandwich(cinv_cols, [((k, l), x) for k, row in enumerate(mat)
                                    for l, x in row], c_rows)
        for cell, y in y_b.items():
            if not y.is_zero():
                proj.setdefault(cell_key[cell], {}).setdefault(b, {})[cell] = y
    zero = tower.zero()

    def rank(parts):
        cells = sorted({cell for part in parts for cell in part})
        return len(rref_rows([[part.get(cell, zero) for cell in cells]
                              for part in parts]))

    zero_key = cell_key[0, 0]
    if rank(list(proj.get(zero_key, {}).values())) != len(cartan_mats):
        raise LieError("cartan-failed")
    roots, vectors, index = [], [], {}
    for key, w in weights.items():
        if key == zero_key or key not in proj:
            continue
        parts = list(proj[key].values())
        if rank(parts) != 1:
            raise LieError("root-multiplicity")
        mat = _sandwich(c_cols, parts[0].items(), cinv_rows)
        out = datum._reduce({i * n + j: x for (i, j), x in mat.items()})
        v = [out.get(col, zero) for col in range(datum.dim)]
        lead = next(x for x in v if not x.is_zero()).inverse()
        index[key] = len(roots)
        roots.append(w)
        vectors.append([x * lead for x in v])
    # closure under negation
    neg = []
    for tup in roots:
        j = index.get(tuple((-x)._key() for x in tup))
        if j is None:
            raise LieError("roots-not-symmetric")
        neg.append(j)
    positive = [i for i, tup in enumerate(roots) if _tuple_positive(tup)]
    sums = {tuple(a + b for a, b in zip(roots[j], roots[k]))
            for j in positive for k in positive}
    simple = [i for i in positive if tuple(roots[i]) not in sums]
    # canonical order: lexicographic on the eigenvalue tuples
    order = list(simple)
    for i in range(1, len(order)):
        key = order[i]
        j = i - 1
        while j >= 0 and _tuple_positive(
                [a - b for a, b in zip(roots[order[j]], roots[key])]):
            order[j + 1] = order[j]
            j -= 1
        order[j + 1] = key
    simple = order
    x_rows, y_rows, h_rows = [], [], []
    for i in simple:
        x = vectors[i]
        y0 = vectors[neg[i]]
        h0 = alg.bracket(x, y0)
        if all(v.is_zero() for v in h0):
            raise LieError("degenerate-root-pair")
        idx = next(c for c, v in enumerate(x) if not v.is_zero())
        hx = alg.bracket(h0, x)
        c = hx[idx] / x[idx]
        if c.is_zero():
            raise LieError("degenerate-root-pair")
        scale = tower.from_rational(2) / c
        y = [scale * v for v in y0]
        h = alg.bracket(x, y)
        if not all(p == q for p, q in zip(
                alg.bracket(h, x), [tower.from_rational(2) * v for v in x])):
            raise LieError("degenerate-root-pair")
        x_rows.append(x)
        y_rows.append(y)
        h_rows.append(h)
    cartan_matrix = []
    for hrow in h_rows:
        row = []
        for xrow in x_rows:
            br = alg.bracket(hrow, xrow)
            idx = next(c for c, v in enumerate(xrow) if not v.is_zero())
            val = br[idx] / xrow[idx]
            if not all(p == q for p, q in zip(
                    br, [val * v for v in xrow])):
                raise LieError("degenerate-root-pair")
            rat = val.as_rational()
            if rat.denominator != 1:
                raise LieError("degenerate-root-pair")
            row.append(int(rat))
        cartan_matrix.append(row)
    return RootDatum(roots, datum.rows_to_mats(x_rows),
                     datum.rows_to_mats(y_rows), cartan_matrix)
