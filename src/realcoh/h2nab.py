"""Nonabelian second cohomology for groups over the reals.

A nonabelian 2-cocycle of a complex group with a real structure is a pair
(a, f) where a is a group element and f an anti-regular semi-automorphism
with f^2 = inn(a) and f(a) = a.  The group acts on cocycles on the left by
s * (a, f) = (s.f(s).a, inn(s) o f); a cocycle is *neutral* when its class
contains a pair with first component 1.  This module provides:

  * the cocycle type with verified invariants, the action, and the
    connecting map delta(b) = (b.gamma(b), inn(b) o gamma) attached to a
    component-group 1-cocycle,
  * neutralization for a connected reductive group: align the pinning,
    reduce to a central element h', decide neutrality through the center
    and the listed center of the simply connected cover, and assemble an
    exact witness d with d.f(d).a = 1.

When s.f(s).a = 1 for (a, f) = delta(b), s.b is a 1-cocycle of the ambient
group; `nonconnected` forms that product and checks it itself.

The center of the simply connected cover is only supported in the
self-cover form (the derived subgroup is already simply connected, as for
SL_n and Sp_2n, so the covering map is the inclusion); `chevalley_cover`
then lists it from Chevalley generators and the Cartan matrix, and the
caller passes that list to `neutralize_reductive`.  Tori need no cover.
Every returned witness is verified exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

from .field import FieldTower, RealcohError, format_element
from .lattice import (LatticeError, det, diagonal_form, rational_inverse,
                      transpose)
from .liealg import exp_nilpotent, in_span, rref_rows
from .linalg import RealStructure, meq, meye, minverse, mmul, mscale
from .reductive import ReductiveRealGroup, weyl_walk
from .torus import (
    QuasiTorusDatum,
    TorusError,
    TorusPresentation,
    build_presentation,
    characters_to_lattice_map,
    cocharacter_action,
    h2_is_coboundary,
    mono_apply,
)


class H2Error(RealcohError):
    pass


# -- the cocycle type ------------------------------------------------------------


@dataclass
class NonabCocycle2:
    """Pair (a, f) with f the anti-regular map of the structure real,
    f(x) = M conj(x) M^-1; the differential of f is given by the same
    formula."""

    lie_basis: list
    a: list
    real: RealStructure


def make_cocycle2(lie_basis: list, a: list,
                  real: RealStructure) -> NonabCocycle2:
    """Build a cocycle and verify f(a) = a and f^2 = inn(a) on the basis.

    f^2 is conjugation by D = M conj(M) (RealStructure.defect), so
    f^2(X) = a X a^-1 is checked as: w = a^-1 D commutes with X.  The only
    inverse formed is that of a."""
    if not real.fixes(a):
        raise H2Error("not-cocycle", "f(a) != a")
    w = mmul(minverse(a, real.tower), real.defect())
    for x in lie_basis:
        if not meq(mmul(w, x), mmul(x, w)):
            raise H2Error("not-cocycle", "f^2 != inn(a) on the Lie algebra")
    return NonabCocycle2(lie_basis, a, real)


def delta(b: list, real: RealStructure, lie_basis: list) -> NonabCocycle2:
    """The 2-cocycle (b.gamma(b), inn(b) o gamma) attached to a lift b."""
    return make_cocycle2(lie_basis, mmul(b, real.gamma(b)), real.inner(b))


def act(s: list, c: NonabCocycle2) -> NonabCocycle2:
    """Left action s * (a, f) = (s.f(s).a, inn(s) o f), verified."""
    a = mmul(mmul(s, c.real.gamma(s)), c.a)
    return make_cocycle2(c.lie_basis, a, c.real.inner(s))


def _nth_root(tower: FieldTower, value, n: int):
    """A solution of y^n = value inside the tower, or None.

    Only square roots are total; higher-degree equations are solved only
    in the trivial case value = 1."""
    if value == 1:
        return tower.one()
    if n == 1:
        return value
    if n == 2:
        return tower.sqrt(value)
    return None


def _mono_solve(emat: list, target: list, tower: FieldTower):
    """Coordinates u with mono_apply(u, emat) = target, or None."""
    d = len(emat)
    cdim = len(emat[0]) if d else 0
    if cdim != len(target):
        raise H2Error("internal", "shape mismatch in monomial solve")
    if cdim == 0:
        return [tower.one()] * d
    if d == 0:
        return [] if all(x == 1 for x in target) else None
    a, p, q = diagonal_form(emat)
    tq = mono_apply(target, q)
    y = [tower.one()] * d
    for i in range(cdim):
        di = a[i][i] if i < d else 0
        if di == 0:
            if tq[i] != 1:
                return None
            continue
        root = _nth_root(tower, tq[i], di)
        if root is None:
            return None
        y[i] = root
    u = mono_apply(y, p)
    if any(x != y for x, y in zip(mono_apply(u, emat), target)):
        return None
    return u


# -- roots of unity ----------------------------------------------------------------


def root_of_unity(tower: FieldTower, n: int):
    """A primitive n-th root of unity, for n of the form 2^a or 3*2^a."""
    if n < 1:
        raise H2Error("root-of-unity-unavailable")
    a = 0
    odd = n
    while odd % 2 == 0:
        odd //= 2
        a += 1
    if odd == 1:
        zodd = tower.one()
    elif odd == 3:
        half = tower.from_rational(Fraction(1, 2))
        zodd = -half + tower.i() * tower.sqrt(tower.from_rational(3)) * half
    else:
        raise H2Error("root-of-unity-unavailable",
                      "only 2-power and 3*2-power orders are representable")
    if a == 0:
        z2 = tower.one()
    elif a == 1:
        z2 = tower.from_rational(-1)
    else:
        z2 = tower.i()
        for _ in range(a - 2):
            z2 = tower.sqrt(z2)
    z = z2 * zodd
    if z ** n != 1 or any(z ** k == 1 for k in range(1, n)):
        raise H2Error("root-of-unity-verification-failed",
                      f"not a primitive root of unity of order {n}")
    return z


# -- the center of the simply connected cover ------------------------------------


def _torsion_closure(gens: list) -> list:
    """All elements of the subgroup of (Q/Z)^l generated by gens."""
    zero = tuple(Fraction(0) for _ in gens[0]) if gens else ()
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((x + y) % 1 for x, y in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def _h_alpha(tower: FieldTower, x: list, y: list, t):
    """h_alpha(t) from the Chevalley generators of one simple root."""
    def xa(s, mat):
        return exp_nilpotent(mscale(s, mat), tower)

    def wa(s):
        return mmul(mmul(xa(s, x), xa(-(s ** -1), y)), xa(s, x))

    return mmul(wa(t), minverse(wa(tower.one()), tower))


def chevalley_cover(group: ReductiveRealGroup) -> list:
    """The center of the derived subgroup, as a list of matrices, from its
    Chevalley generators.

    Only self covers are supported: the derived subgroup is assumed simply
    connected and the covering map is the inclusion, so the defining
    relations of the Chevalley generators hold verbatim in the ambient
    representation.  The center then consists of the products
    prod_j h_{alpha_j}(t_j) over all root-of-unity solutions of the
    Cartan-matrix equations, enumerated through the columns of the inverse
    Cartan matrix modulo 1.
    """
    tower = group.tower
    n = group.datum.n
    amat = group.root.cartan_matrix
    ell = len(amat)
    if ell == 0:
        return [meye(tower, n)]
    # the equations are prod_j t_j^{<alpha_i, alpha_j^v>} = 1, i.e. with
    # the transpose of the stored matrix A[i][j] = alpha_j(h_i)
    at = transpose(amat)
    try:
        atinv = rational_inverse(at)
    except LatticeError:
        raise H2Error("internal", "singular Cartan matrix")
    gens = [tuple(atinv[i][j] % 1 for i in range(ell)) for j in range(ell)]
    qvecs = _torsion_closure(gens)
    if len(qvecs) != abs(det(at)):
        raise H2Error("internal", "center enumeration does not match det")
    elements = []
    keys = set()
    for qv in qvecs:
        denom = lcm(*[x.denominator for x in qv]) if qv else 1
        zeta = root_of_unity(tower, denom)
        z = meye(tower, n)
        for j, qj in enumerate(qv):
            if qj == 0:
                continue
            tj = zeta ** int(qj * denom)
            z = mmul(z, _h_alpha(tower, group.root.x_gens[j],
                                 group.root.y_gens[j], tj))
        for mat in group.datum.basis:
            if not meq(mmul(z, mat), mmul(mat, z)):
                raise H2Error("internal", "center element is not central")
        keys.add(tuple(format_element(x) for row in z for x in row))
        elements.append(z)
    if len(keys) != len(elements):
        raise H2Error("internal", "center elements are not distinct")
    return elements


# -- neutralization: reductive case ------------------------------------------------


@dataclass
class NeutralizationResult:
    neutral: bool
    witness: list          # d with d.f(d).a = 1, or None


def _char_exponents(pres: TorusPresentation, root_vectors: list) -> list:
    """Exponent matrix E (d x l): column j is the character of the torus on
    the j-th root space, in the lambda coordinates of pres."""
    cols = []
    for vec in root_vectors:
        xd = mmul(mmul(pres.cinv, vec), pres.c)
        expo = None
        for pp in range(pres.n):
            for qq in range(pres.n):
                if xd[pp][qq].is_zero():
                    continue
                e = [pres.m[k][pp] - pres.m[k][qq] for k in range(pres.d)]
                if expo is None:
                    expo = e
                elif expo != e:
                    raise H2Error("internal", "root vector is not a weight "
                                              "vector of the torus")
        if expo is None or not any(expo):
            raise H2Error("internal", "degenerate root character")
        cols.append(expo)
    return [[cols[j][k] for j in range(len(cols))] for k in range(pres.d)]


def _proportionality(v: list, w: list):
    """Scalar c with v = c*w, or None (v, w coordinate vectors, w != 0)."""
    piv = next((i for i, x in enumerate(w) if not x.is_zero()), None)
    if piv is None:
        return None
    c = v[piv] * (w[piv] ** -1)
    for x, y in zip(v, w):
        if x != c * y:
            return None
    return c


def _sqrt_in_torus(pres: TorusPresentation, z: list):
    """Square root of z inside the torus, fixed by pres.real, or None."""
    tower = pres.tower
    coords = pres.lambda_inverse(z)
    if coords is None:
        return None
    um = pres.lam_to_mu(coords)
    w = []
    for i in range(pres.k):
        w.append(tower.sqrt(um[i]))
    for i in range(pres.k, pres.k + pres.l):
        ui = um[i]
        if not ui.is_real() or (ui != 1 and not ui.is_positive()):
            return None
        w.append(tower.sqrt(ui))
    for idx in range(pres.r):
        u1 = um[pres.k + pres.l + 2 * idx]
        s1 = tower.sqrt(u1)
        w.append(s1)
        w.append(s1.conj())
    t = pres.mu(w)
    if meq(mmul(t, t), z) and pres.real.fixes(t):
        return t
    return None


def _twisted_real_correction(pres: TorusPresentation, c1_coords: list):
    """k in T with k.gamma(k)^-1 = lam(c1_coords) per indecomposable
    factor, or None.  Used to repair an almost-real element t by t*k."""
    tower = pres.tower
    cm = pres.lam_to_mu(c1_coords)
    w = []
    for i in range(pres.k):
        # condition k * conj(k) = c: needs c real positive
        ci = cm[i]
        if not ci.is_real() or (ci != 1 and not ci.is_positive()):
            return None
        w.append(tower.sqrt(ci))
    for i in range(pres.k, pres.k + pres.l):
        # condition k / conj(k) = c with |c| = 1
        ci = cm[i]
        if ci * ci.conj() != 1:
            return None
        if ci == 1:
            w.append(tower.one())
        else:
            w.append(ci.imag_part() +
                     (1 - ci.real_part()) * tower.i())
    for idx in range(pres.r):
        pos = pres.k + pres.l + 2 * idx
        w.append(cm[pos])
        w.append(tower.one())
    return pres.mu(w)


def _real_square_root(group: ReductiveRealGroup, pres: TorusPresentation,
                      z: list):
    """t with t^2 = z, fixed by pres.real, searched in the torus and its
    normalizer."""
    tower = group.tower
    t = _sqrt_in_torus(pres, z)
    if t is not None:
        return t
    for e in islice(weyl_walk(group), 1, None):
        n = e.n
        m = mmul(n, n)
        if pres.lambda_inverse(m) is None:
            continue
        q = mmul(minverse(m, tower), z)
        uq = pres.lambda_inverse(q)
        if uq is None:
            continue
        try:
            r = cocharacter_action(pres, n)
        except TorusError:
            continue
        ri = [[r[i][j] + int(i == j) for j in range(pres.d)]
              for i in range(pres.d)]
        sol = _mono_solve(ri, uq, tower)
        if sol is None:
            continue
        base = mmul(n, pres.lam(sol))
        candidates = [base]
        c1 = mmul(minverse(base, tower), pres.real.gamma(base))
        c1c = pres.lambda_inverse(c1)
        if c1c is not None:
            k = _twisted_real_correction(pres, c1c)
            if k is not None:
                candidates.append(mmul(base, k))
        for t in candidates:
            if meq(mmul(t, t), z) and pres.real.fixes(t):
                return t
    return None


def _align_pinning(group: ReductiveRealGroup, c: NonabCocycle2,
                   conjugator_hint: list):
    """(aligned cocycle, aligner s): act(s, c) preserves the fundamental
    torus and permutes the simple root vectors exactly."""
    tower = group.tower
    datum = group.datum
    ident = meye(tower, datum.n)
    work = c
    aligner = ident
    t_mats = group.datum.rows_to_mats(group.t_rows)

    def preserves_t(cc):
        for mat in t_mats:
            img = cc.real.gamma(mat)
            if not datum.contains(img) or \
                    not in_span(datum.coords(img), group.t_rows):
                return False
        return True

    if not preserves_t(work):
        if conjugator_hint is None:
            raise H2Error("conjugator-unavailable",
                          "f moves the fundamental Cartan subalgebra and "
                          "no conjugator was supplied")
        work = act(conjugator_hint, work)
        aligner = conjugator_hint
        if not preserves_t(work):
            raise H2Error("conjugator-unavailable",
                          "the supplied conjugator does not restore the "
                          "fundamental Cartan subalgebra")

    x_gens = group.root.x_gens
    if not x_gens:
        return work, aligner

    x_coords = [datum.coords(x) for x in x_gens]
    found = None
    for e in weyl_walk(group):
        cand = act(e.n, work) if e.word else work
        perm = []
        scal = []
        ok = True
        for xc_mat in x_gens:
            img = cand.real.gamma(xc_mat)
            if not datum.contains(img):
                ok = False
                break
            v = datum.coords(img)
            hit = None
            for j, wv in enumerate(x_coords):
                coeff = _proportionality(v, wv)
                if coeff is not None:
                    hit = (j, coeff)
                    break
            if hit is None:
                ok = False
                break
            perm.append(hit[0])
            scal.append(hit[1])
        if ok and sorted(perm) == list(range(len(x_gens))):
            found = (e, cand, perm, scal)
            break
    if found is None:
        raise H2Error("conjugator-unavailable",
                      "no Weyl element aligns f with the pinning base")
    e, cand, perm, scal = found

    # scale by a torus element so the simple root vectors map exactly
    emat = _char_exponents(group.torus, x_gens)
    targets = [tower.one()] * len(x_gens)
    for i, j in enumerate(perm):
        targets[j] = scal[i] ** -1
    u = _mono_solve(emat, targets, tower)
    if u is None:
        raise H2Error("alignment-root-unavailable",
                      "the torus scaling needs a root outside the field "
                      "tower")
    t_elt = group.torus.lam(u)
    step = mmul(t_elt, e.n) if e.word else t_elt
    work = act(step, work)
    aligner = mmul(step, aligner)
    for i, xc_mat in enumerate(x_gens):
        if not meq(work.real.gamma(xc_mat), x_gens[perm[i]]):
            raise H2Error("internal", "pinning alignment failed to verify")
    return work, aligner


def _center_quasitorus(group: ReductiveRealGroup, pres_f: TorusPresentation,
                       component_reps: list) -> QuasiTorusDatum:
    """The center of the group as a quasi-torus inside the f'-torus."""
    tower = group.tower
    x_all = group.root.x_gens
    if not x_all:
        return QuasiTorusDatum(
            torus=pres_f,
            lattice_map=[[] for _ in range(pres_f.d)],
            quotient_tau=[],
            component_torus=pres_f,
            component_reps=[meye(tower, pres_f.n)],
        )
    emat = _char_exponents(pres_f, x_all)
    chars = [[emat[k][j] for k in range(pres_f.d)]
             for j in range(len(x_all))]
    lattice_map, quotient_tau = characters_to_lattice_map(pres_f, chars)
    z_rows = rref_rows(group.zc_rows + group.zs_rows)
    component_torus = None
    if z_rows:
        z_mats = group.datum.rows_to_mats(z_rows)
        component_torus = build_presentation(z_mats, pres_f.real,
                                             allow_defect=True)
    return QuasiTorusDatum(
        torus=pres_f,
        lattice_map=lattice_map,
        quotient_tau=quotient_tau,
        component_torus=component_torus,
        component_reps=component_reps,
    )


def neutralize_reductive(group: ReductiveRealGroup, c: NonabCocycle2,
                         center: list = None,
                         conjugator_hint: list = None) -> NeutralizationResult:
    """Witness d with d.f(d).a = 1, or a non-neutral verdict.

    center lists the center of the simply connected cover of the derived
    subgroup (`chevalley_cover`); None stands for the identity alone, which
    is enough only when the group has no roots."""
    tower = group.tower
    datum = group.datum
    ident = meye(tower, datum.n)
    for mat in datum.basis:
        if not datum.contains(c.real.gamma(mat)):
            raise H2Error("not-semi-automorphism",
                          "f does not preserve the Lie algebra")
    if meq(c.a, ident):
        return NeutralizationResult(True, ident)

    work, aligner = _align_pinning(group, c, conjugator_hint)
    h1 = work.a
    for mat in datum.basis:
        if not meq(mmul(h1, mat), mmul(mat, h1)):
            raise H2Error("internal", "aligned component is not central")
    if not group.torus.membership(h1):
        raise H2Error("internal", "central element outside the torus")

    if group.root.x_gens and center is None:
        raise H2Error("cover-required",
                      "the derived subgroup needs the center of its cover "
                      "for the neutrality test")
    if center is None:
        center = [ident]

    t_mats = datum.rows_to_mats(group.t_rows)
    pres_f = build_presentation(t_mats, work.real, allow_defect=True)
    qdatum = _center_quasitorus(group, pres_f, center)

    sqrt_blocked = False
    for z in center:
        if not work.real.fixes(z):
            continue
        target = minverse(mmul(z, h1), tower)
        s_c = h2_is_coboundary(qdatum, target)
        if s_c is None:
            continue
        t_sc = _real_square_root(group, pres_f, z)
        if t_sc is None:
            sqrt_blocked = True
            continue
        d = mmul(mmul(s_c, t_sc), aligner)
        if not meq(mmul(mmul(d, c.real.gamma(d)), c.a), ident):
            raise H2Error("internal", "witness verification failed")
        return NeutralizationResult(True, d)
    if sqrt_blocked:
        raise H2Error("square-root-unavailable",
                      "the class is neutral but no real square root was "
                      "found in the torus normalizer")
    return NeutralizationResult(False, None)
