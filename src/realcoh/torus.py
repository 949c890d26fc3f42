"""Algebraic tori over R: presentations, H^1, and quasi-torus H^2.

A torus T in GL(n,C) is given by a basis of its Lie algebra together with
its real structure, a linalg.RealStructure given by a matrix N (the
anti-regular involution is g -> N conj(g) N^-1, with N conj(N) = 1).  The
presentation diagonalizes t, computes the cocharacter exponent matrix M with
its inverse certificate P, reads off the involution tau of the coordinate
torus, and splits T into indecomposable factors: compact (F), split (E), and
induced (D).  All arithmetic is exact
over a square-root-closed field tower.

Coordinate conventions: a torus element is a coordinate vector (t_1..t_d)
with matrix C*diag(prod t_i^M(i,l))*C^-1.  The layer works on the diagonal
D = C^-1*x*C of an element x (its eigenframe) and forms a dense matrix only
for what it returns.  Lattice maps are integer matrices in the
rows-are-images convention, and an element transforms by
t |-> (prod_j t_j^R(j,i))_i under the map R.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .field import FieldTower, RealcohError
from .gammacoh import CohomologyResult, GammaModule, ShortComplex, hyper
from .lattice import (
    gamma_decompose,
    identity as int_identity,
    kernel_basis,
    mat_inverse,
    mat_mul,
    perp,
    snf,
    solve_integer,
    transpose,
)
from .liealg import LieError, joint_eigenspaces
from .linalg import (
    RealStructure,
    _diagonal_of,
    mconj,
    meq,
    meye,
    minverse,
    mmul,
    mtranspose,
)


class TorusError(RealcohError):
    pass


# -- multiplicative maps -------------------------------------------------------


def mono_apply(coords: list, r: list) -> list:
    """Image of a coordinate vector under the lattice map r (rows-are-images)."""
    cols = len(r[0]) if r else 0
    out = []
    for i in range(cols):
        acc = None
        for j, t in enumerate(coords):
            e = r[j][i]
            if e:
                f = t if e == 1 else t ** e
                acc = f if acc is None else acc * f
        out.append(coords[0].tower.one() if acc is None else acc)
    return out


def root_of_minus_one(tower: FieldTower, m: int):
    """Element y of the tower with y^m = -1."""
    a = 0
    odd = m
    while odd % 2 == 0:
        odd //= 2
        a += 1
    u = tower.from_rational(-1)
    for _ in range(a):
        u = tower.sqrt(u)
    if a == 0:
        y = u  # (-1)^odd = -1 for odd exponents
    else:
        y = u ** pow(odd, -1, 2 ** (a + 1))
    if y ** m != -1:
        raise TorusError("root-verification-failed",
                         f"the computed root does not satisfy y^{m} = -1")
    return y


# -- simultaneous diagonalization ----------------------------------------------


def simultaneous_diagonalize(mats: list, tower: FieldTower, n: int) -> list:
    """C with C^-1 * a * C diagonal for every a in mats (commuting, semisimple).

    The columns of C are the rows of the joint eigenspaces of the
    transposed matrices."""
    try:
        spaces = joint_eigenspaces([mtranspose(a) for a in mats], tower, n)
    except LieError as err:
        raise TorusError("not-invariant" if err.code == "not-invariant"
                         else "not-semisimple") from err
    return mtranspose([row for _, s in spaces for row in s])


# -- presentation ----------------------------------------------------------------


@dataclass
class TorusPresentation:
    """A torus T with its eigenframe.

    C diagonalizes T, and its columns are rref rows (unit pivots);
    B = C^-1 * N * conj(C) is gamma in the eigenframe, C^-1 * gamma(x) * C =
    B * conj(C^-1 * x * C) * B^-1, and B^-1 is its exact inverse.  The
    element of T with coordinates t is C * diag(alpha(t)) * C^-1."""

    tower: FieldTower
    n: int
    real: RealStructure
    c: list
    cinv: list
    b: list
    binv: list
    d: int
    m: list             # d x n cocharacter exponent matrix
    p: list             # n x n with P * M^T = (I_d; 0)
    tau: list           # involution on coordinates
    a: list             # change of basis: columns f..., e..., (g,h)...
    ainv: list
    k: int              # number of compact factors
    l: int              # number of split factors
    r: int              # number of induced pairs

    # -- element maps -----------------------------------------------------------

    def alpha(self, coords: list) -> list:
        """Diagonal entries (prod_i t_i^M(i,l))_l of the element with
        coordinates (t_1..t_d)."""
        if not self.d:
            return [self.tower.one()] * self.n
        return mono_apply(coords, self.m)

    def from_diagonal(self, diag: list) -> list:
        """C * diag * C^-1: the columns of C scaled, then one product."""
        return mmul([[x * y for x, y in zip(row, diag)] for row in self.c],
                    self.cinv)

    def lam(self, coords: list) -> list:
        """Matrix of the element with coordinates (t_1..t_d)."""
        return self.from_diagonal(self.alpha(coords))

    def diagonal_coords(self, diag: list):
        """Coordinates of the element C * diag * C^-1 of T, or None when
        diag is not alpha of any: an entry vanishes, or diag is outside the
        image of the lattice of M, which the certificate P decides."""
        if any(x.is_zero() for x in diag):
            return None
        t_full = mono_apply(diag, transpose(self.p))
        if any(x != 1 for x in t_full[self.d:]):
            return None
        return t_full[: self.d]

    def lambda_inverse(self, mat: list):
        """Coordinates of mat in T, or None when mat is not a member: its
        diagonal is read with one product (_diagonal_of), and C^-1 * mat * C
        is never formed."""
        diag = _diagonal_of(self.c, mat)
        return None if diag is None else self.diagonal_coords(diag)

    def membership(self, mat: list) -> bool:
        return self.lambda_inverse(mat) is not None

    def pattern_mu(self, signs: list) -> list:
        """mu-coordinates (eps_1..eps_k, 1, ..) of the sign pattern eps."""
        return [self.tower.from_rational(s) for s in signs] + \
            [self.tower.one()] * (self.d - self.k)

    def mu(self, u: list) -> list:
        return self.lam(self.mu_to_lam(u))

    def mu_to_lam(self, u: list) -> list:
        return mono_apply(u, transpose(self.a))

    def lam_to_mu(self, coords: list) -> list:
        return mono_apply(coords, transpose(self.ainv))

    def gamma_coords(self, coords: list) -> list:
        conj = [x.conj() for x in coords]
        return mono_apply(conj, transpose(self.tau))

    def identity_coords(self) -> list:
        return [self.tower.one()] * self.d

    def cocharacter_module(self) -> GammaModule:
        return GammaModule(transpose(self.tau))


def _lambda_lattice(diag_entries: list, n: int) -> list:
    """Integral e with sum_i e_i * diag_i(a) = 0 for all basis matrices."""
    columns = []
    for diags in diag_entries:
        keys = sorted({key for x in diags for key in x._num})
        for key in keys:
            col = [x._rat_coeff(*key) for x in diags]
            denom = lcm(*(q.denominator for q in col))
            columns.append([int(q * Fraction(denom)) for q in col])
    if not columns:
        return []
    mat = [[columns[c][i] for c in range(len(columns))] for i in range(n)]
    return kernel_basis(mat)


def _solve_p(m: list, n: int, d: int) -> list:
    """P in GL(n,Z) with P*M^T = (I_d; 0), via SNF of M^T."""
    if d == 0:
        return int_identity(n)
    mt = [[m[i][j] for i in range(d)] for j in range(n)]
    a, p0, q0 = snf(mt)
    for i in range(d):
        if a[i][i] != 1:
            raise TorusError("lattice-not-pure")
    block = [[0] * n for _ in range(n)]
    for i in range(d):
        for j in range(d):
            block[i][j] = q0[i][j]
    for i in range(d, n):
        block[i][i] = 1
    return mat_mul(block, p0)


def _read_tau(pres_b: list, pres_binv: list, m: list, p: list, n: int,
              d: int, tower: FieldTower) -> list:
    """Involution of the coordinate torus from conjugation by B.

    The conjugate of the generic diagonal element is computed over Laurent
    polynomials in the coordinates; it must again be a diagonal monomial
    matrix, whose coordinates are read off with the certificate P.
    """
    # entry (i, j) of B * diag(monomials) * B^-1 as {exponent tuple: coeff}
    exps = [tuple(m[i][l] for i in range(d)) for l in range(n)]
    diag_polys = []
    for i in range(n):
        row = []
        for j in range(n):
            poly = {}
            for k in range(n):
                c = pres_b[i][k] * pres_binv[k][j]
                if c.is_zero():
                    continue
                key = exps[k]
                poly[key] = poly.get(key, tower.zero()) + c
            row.append({k: v for k, v in poly.items() if not v.is_zero()})
        diag_polys.append(row)
    for i in range(n):
        for j in range(n):
            if i != j and diag_polys[i][j]:
                raise TorusError("invalid-real-structure",
                                 "conjugation does not preserve the torus")
    diag_exp = []
    for i in range(n):
        entry = diag_polys[i][i]
        if len(entry) != 1:
            raise TorusError("invalid-real-structure")
        (key, coeff), = entry.items()
        if coeff != 1:
            raise TorusError("invalid-real-structure")
        diag_exp.append(list(key))
    tau = []
    for j in range(n):
        row = [0] * d
        for k in range(n):
            if p[j][k]:
                row = [x + p[j][k] * y for x, y in zip(row, diag_exp[k])]
        if j < d:
            tau.append(row)
        elif any(row):
            raise TorusError("invalid-real-structure")
    return tau


def compact_part_lie(t: TorusPresentation) -> list:
    """One Lie algebra matrix per compact factor: the tangent direction of
    its cocharacter in the canonical coordinates.

    These span the maximal compact subtorus only when T has no induced
    factor: the compact direction of an induced pair gets no matrix.
    """
    out = []
    for i in range(t.k):
        lam_exp = [t.a[j][i] for j in range(t.d)]
        out.append(t.from_diagonal([
            t.tower.from_rational(sum(lam_exp[j] * t.m[j][l]
                                      for j in range(t.d)))
            for l in range(t.n)]))
    return out


def build_presentation(lie_basis: list, real: RealStructure,
                       allow_defect: bool = False) -> TorusPresentation:
    """Presentation of the torus with involution g -> N conj(g) N^-1 given
    by real, which the presentation keeps.

    With allow_defect, N*conj(N) may differ from 1 as long as it commutes
    with the torus; the induced map on the torus is then still an
    involution, even though N itself is not a real-structure matrix.
    """
    tower = real.tower
    n = len(real.nsigma)
    defect = real.defect()
    if not meq(defect, meye(tower, n)):
        if not allow_defect:
            raise TorusError("invalid-real-structure", "N conj(N) != 1")
        for mat in lie_basis:
            if not meq(mmul(defect, mat), mmul(mat, defect)):
                raise TorusError("invalid-real-structure",
                                 "defect does not centralize the torus")
    diag_test = all(
        mat[i][j].is_zero()
        for mat in lie_basis for i in range(n) for j in range(n) if i != j
    )
    c = meye(tower, n) if diag_test else \
        simultaneous_diagonalize(lie_basis, tower, n)
    cinv = minverse(c, tower)
    diag_entries = []
    for mat in lie_basis:
        diag = _diagonal_of(c, mat)
        if diag is None:
            raise TorusError("not-semisimple")
        diag_entries.append(diag)
    m = perp(_lambda_lattice(diag_entries, n), n)
    d = len(m)
    p = _solve_p(m, n, d)
    b = mmul(mmul(cinv, real.nsigma), mconj(c))
    binv = minverse(b, tower)
    tau = _read_tau(b, binv, m, p, n, d, tower)
    if d and mat_mul(tau, tau) != int_identity(d):
        raise TorusError("invalid-real-structure", "tau is not an involution")
    if d:
        dec = gamma_decompose(tau)
        cols = dec.f_vectors + dec.e_vectors + \
            [v for pair in dec.gh_pairs for v in pair]
        a = [[cols[j][i] for j in range(d)] for i in range(d)]
        ainv = mat_inverse(a)
        k, l, r = len(dec.f_vectors), len(dec.e_vectors), len(dec.gh_pairs)
    else:
        a, ainv, k, l, r = [], [], 0, 0, 0
    return TorusPresentation(
        tower, n, real, c, cinv, b, binv, d, m, p, tau, a, ainv, k, l, r,
    )


# -- H^1 -------------------------------------------------------------------------


@dataclass
class TorusH1Result:
    sign_patterns: list
    representatives: list  # matrices

    def order(self) -> int:
        return len(self.representatives)


def sign_patterns(k: int) -> list:
    """The 2^k sign patterns of k compact factors, in canonical order."""
    return [list(signs) for signs in product((1, -1), repeat=k)]


def h1_torus(t: TorusPresentation) -> TorusH1Result:
    """Representatives mu(eps_1..eps_k, 1, ..) over all sign patterns."""
    patterns = sign_patterns(t.k)
    return TorusH1Result(patterns, [t.mu(t.pattern_mu(p)) for p in patterns])


def cocycle_signs(t: TorusPresentation, coords: list) -> tuple:
    """(signs, u) for the coordinates of a 1-cocycle in T(C): u holds its
    mu-coordinates and signs the sign pattern of its class in H^1(T), read
    off the compact factors.  Raises not-cocycle unless z * gamma(z) = 1
    and every compact mu-coordinate is real."""
    gz = t.gamma_coords(coords)
    if any(x * y != 1 for x, y in zip(coords, gz)):
        raise TorusError("not-cocycle")
    u = t.lam_to_mu(coords)
    signs = []
    for ui in u[: t.k]:
        if not ui.is_real():
            raise TorusError("not-cocycle")
        signs.append(1 if ui.is_positive() else -1)
    return signs, u


def trivialize_cocycle(t: TorusPresentation, z) -> tuple:
    """Canonical representative and witness for a 1-cocycle z in T(C).

    z may be a matrix or a coordinate vector.  Returns (rep_matrix, signs, s)
    with s^-1 * z * gamma(s) = rep, verified exactly before returning.  The
    check is that identity conjugated by C, on diagonals:
    D_z * G = D_s * D_rep with G = B * conj(D_s) * B^-1, which must vanish
    off the diagonal.  It is exact because C^-1 and B^-1 are exact inverses
    and C^-1 * gamma(s) * C = B * conj(D_s) * B^-1 for any invertible N.
    D_z is read from the matrix z as given (_diagonal_of), and is alpha(z)
    for a coordinate vector.  G is formed over the nonzero entries of B and
    B^-1 only; no s^-1, gamma(s) or dense twist is formed, and the only
    products form s and rep.
    """
    tower = t.tower
    if isinstance(z, list) and z and not isinstance(z[0], list):
        coords, dz = z, t.alpha(z)
    else:
        dz = _diagonal_of(t.c, z)
        coords = None if dz is None else t.diagonal_coords(dz)
    if coords is None:
        raise TorusError("not-member")
    signs, u = cocycle_signs(t, coords)
    v = [tower.sqrt(ui if sg == 1 else -ui) for sg, ui in zip(signs, u)] + \
        [tower.one()] * (t.d - t.k)
    for i in range(t.k, t.k + t.l):
        ui = u[i]
        if ui == 1:
            continue
        a = ui.real_part()
        b = ui.imag_part()
        v[i] = b + (1 - a) * tower.i()
    for idx in range(t.r):
        pos = t.k + t.l + 2 * idx
        v[pos] = u[pos]
        # second slot stays 1
    ds = t.alpha(t.mu_to_lam(v))
    drep = t.alpha(t.mu_to_lam(t.pattern_mu(signs)))
    dsc = [x.conj() for x in ds]
    binv_rows = [[(j, y) for j, y in enumerate(row) if not y.is_zero()]
                 for row in t.binv]
    for i, row in enumerate(t.b):
        g = {}
        for k, x in enumerate(row):
            if x.is_zero():
                continue
            f = x * dsc[k]
            for j, y in binv_rows[k]:
                g[j] = g[j] + f * y if j in g else f * y
        gii = g.pop(i, tower.zero())
        if any(not y.is_zero() for y in g.values()) or \
                dz[i] * gii != ds[i] * drep[i]:
            raise TorusError("witness-verification-failed",
                             "s^-1 * z * gamma(s) != rep")
    return t.from_diagonal(drep), signs, t.from_diagonal(ds)


def cocharacter_action(t: TorusPresentation, n: list) -> list:
    """w in GL_d(Z) with n^-1 lam(x) n = lam(mono_apply(x, w)), the action
    of n^-1 (.) n on X_*(T), for an invertible n normalizing T.

    With Q = C^-1 n C, the Lie element C diag(M_i) C^-1 of the i-th basis
    cocharacter goes to C Q^-1 diag(M_i) Q C^-1, which is diagonal in C, say
    diag(D_i), exactly when diag(M_i) Q = Q diag(D_i): every nonzero
    Q[l][b] needs M_i[l] = D_i[b].  D_i is then integral, and D_i = w_i M
    exactly when D_i P^T = (w_i, 0).  T is connected, so x -> n^-1 lam(x) n
    and x -> lam(mono_apply(x, w)) agree once their differentials do.  A
    failing condition raises not-normalizer.
    """
    q = mmul(mmul(t.cinv, n), t.c)
    support = [[l for l in range(t.n) if not q[l][b].is_zero()]
               for b in range(t.n)]
    w = []
    for mi in t.m:
        diag = []
        for rows in support:
            values = {mi[l] for l in rows}
            if len(values) != 1:
                raise TorusError("not-normalizer",
                                 "n^-1 t n is not diagonal in C")
            diag.extend(values)
        image = [sum(x * pj for x, pj in zip(diag, prow)) for prow in t.p]
        if any(image[t.d:]):
            raise TorusError("not-normalizer",
                             "n^-1 t n is not a cocharacter of T")
        w.append(image[: t.d])
    return w


def normalizer_action(t: TorusPresentation, n: list, ninv: list) -> tuple:
    """(w, c) with n^-1 * lam(x) * gamma(n) = lam(mono_apply(x, w) * c),
    the product taken coordinatewise, for an invertible n normalizing T:
    w = cocharacter_action(t, n) and c = lambda_inverse(n^-1 gamma(n)),
    each checked exactly; a failing one raises not-normalizer.
    """
    w = cocharacter_action(t, n)
    c = t.lambda_inverse(mmul(ninv, t.real.gamma(n)))
    if c is None:
        raise TorusError("not-normalizer", "n^-1 gamma(n) is not in T")
    return w, c


# -- quasi-torus H^2 -------------------------------------------------------------


@dataclass
class QuasiTorusDatum:
    """Subgroup A of a torus T described by the lattice map to T' = T/A."""

    torus: TorusPresentation
    lattice_map: list        # X_*(T) -> X_*(T'), rows-are-images
    quotient_tau: list       # involution on the coordinates of T'
    component_torus: TorusPresentation | None = None
    component_reps: list | None = None  # matrices in A(C), one per component

    def complex(self) -> ShortComplex:
        mt = GammaModule(transpose(self.torus.tau))
        mq = GammaModule(transpose(self.quotient_tau))
        return ShortComplex(mt, mq, self.lattice_map)


def characters_to_lattice_map(t: TorusPresentation, chars: list) -> tuple:
    """Lattice map to T' = T/A and quotient involution for A the common
    kernel of the given characters (exponent rows in the coordinates of T)."""
    d = t.d
    dprime = len(chars)
    # image of the i-th basis cocharacter: its pairings with the characters
    partial = [[chars[cidx][i] for cidx in range(dprime)] for i in range(d)]
    # the quotient involution X must satisfy partial * X = tau^T * partial
    k = mat_mul(transpose(t.tau), partial)
    x = []
    for j in range(dprime):
        col = [k[i][j] for i in range(d)]
        sol = solve_integer(transpose(partial), col)
        if sol is None:
            raise TorusError("characters-not-stable")
        x.append(sol)
    # x holds the columns of X; quotient tau is X^T, i.e. the rows of x
    quotient_tau = [list(row) for row in x]
    if dprime and mat_mul(quotient_tau, quotient_tau) != int_identity(dprime):
        raise TorusError("characters-not-stable")
    return partial, quotient_tau


@dataclass
class QuasiTorusH2Result:
    lattice_result: CohomologyResult
    representatives: list  # matrices

    def order(self) -> int:
        return self.lattice_result.order()


def _preimage_of_signs(t: TorusPresentation, partial: list,
                       target_signs: list) -> list:
    """Coordinates of some t with image nu'(-1) in T' under the quotient map."""
    tower = t.tower
    d = len(partial)
    dprime = len(partial[0]) if partial else 0
    if dprime == 0:
        return t.identity_coords()
    a, ps, qs = snf(partial)
    s = [tower.from_rational((-1) ** (e % 2)) for e in target_signs]
    s_q = mono_apply(s, qs)
    y = [tower.one()] * d
    for i in range(dprime):
        di = a[i][i] if i < d else 0
        val = s_q[i]
        if val == 1:
            continue
        if di <= 0:
            raise TorusError("no-preimage")
        y[i] = root_of_minus_one(tower, di)
    return mono_apply(y, ps)


def h2_quasitorus(q: QuasiTorusDatum) -> QuasiTorusH2Result:
    """H^2 of A via the hypercohomology of X_*(T) -> X_*(T'), with explicit
    2-cocycles a = nu(-1) * d^1(t) for a preimage t of nu'(-1)."""
    t = q.torus
    tower = t.tower
    cx = q.complex()
    res = hyper(cx, 1)
    mats = []
    for rep in res.representatives:
        nu_vec = rep[: t.d]
        nu_prime = rep[t.d:]
        nu_elt = [tower.from_rational((-1) ** (e % 2)) for e in nu_vec]
        pre = _preimage_of_signs(t, q.lattice_map, nu_prime)
        gpre = t.gamma_coords(pre)
        d1 = [x * y for x, y in zip(gpre, pre)]
        a_coords = [x * y for x, y in zip(nu_elt, d1)]
        a_mat = t.lam(a_coords)
        if not t.real.fixes(a_mat):
            raise TorusError("cocycle-verification-failed",
                             "gamma(a) != a")
        mats.append(a_mat)
    return QuasiTorusH2Result(res, mats)


def h2_is_coboundary(q: QuasiTorusDatum, c: list):
    """Witness s in A(C) with s * gamma(s) = c, or None.

    c is a matrix representing a 2-cocycle (gamma-fixed element of A).  The
    identity component is handled by per-factor closed forms; other
    components via the coset loop over the supplied representatives.
    """
    t = q.torus
    tower = t.tower
    if not t.real.fixes(c):
        raise TorusError("not-cocycle")
    reps = q.component_reps or [meye(tower, t.n)]
    for r in reps:
        norm_r = mmul(r, t.real.gamma(r))
        z = mmul(c, minverse(norm_r, tower))
        if q.component_torus is None:
            if meq(z, meye(tower, t.n)):
                if not meq(norm_r, c):
                    raise TorusError("witness-verification-failed",
                                     "s * gamma(s) != c")
                return r
            continue
        ct = q.component_torus
        coords = ct.lambda_inverse(z)
        if coords is None:
            continue
        u = ct.lam_to_mu(coords)
        w = [tower.one()] * ct.d
        good = True
        for i in range(ct.k):
            ui = u[i]
            if ui == 1:
                continue
            a = ui.real_part()
            b = ui.imag_part()
            w[i] = b + (1 - a) * tower.i()
        for i in range(ct.k, ct.k + ct.l):
            ui = u[i]
            if not ui.is_real():
                good = False
                break
            if ui == 1:
                continue
            if not ui.is_positive():
                good = False
                break
            w[i] = tower.sqrt(ui)
        if not good:
            continue
        for idx in range(ct.r):
            pos = ct.k + ct.l + 2 * idx
            w[pos] = u[pos]
        s0 = ct.mu(w)
        s = mmul(s0, r)
        if meq(mmul(s, t.real.gamma(s)), c):
            return s
    return None
