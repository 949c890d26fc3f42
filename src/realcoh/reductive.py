"""First Galois cohomology of connected reductive real groups.

A connected reductive group G over the reals is described by a basis of the
real Lie algebra inside gl(n) together with the matrix N_sigma defining the
antiholomorphic involution sigma(g) = N_sigma * conj(g) * N_sigma^-1, plus a
Cartan decomposition k + p of the derived (semisimple) part.  From these we
construct:

  * the maximal compact torus T_0 (Lie algebra: a Cartan subalgebra of k
    together with the compact part of the center),
  * the fundamental torus T = Z_G(T_0) with its canonical presentation,
  * the root system of the complexified algebra with respect to T,
  * the Weyl group W with explicit normalizer representatives, and the
    subgroup W_0 of elements whose representatives stabilize the Cartan
    subalgebra of k.

H^1(R, G) is the set of W_0-orbits on the sign-pattern representatives of
H^1(R, T).  Every class comes with an explicit cocycle representative, and
the equivalence solver returns a witness h with h^-1 * g * gamma(h) equal to
the chosen representative, verified exactly before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .field import FieldTower, RealcohError, format_element
from .liealg import (
    LieAlgebraDatum,
    LieError,
    _commutant_rows,
    exp_nilpotent,
    in_span,
    jordan,
    log_unipotent,
    root_system,
    rref_rows,
    span_sum,
)
from .linalg import (
    RealStructure,
    echelon_reduce,
    left_kernel,
    meq,
    meye,
    minverse,
    mmul,
    mscale,
    vmat,
)
from .torus import (
    TorusError,
    TorusPresentation,
    build_presentation,
    compact_part_lie,
    h1_torus,
    simultaneous_diagonalize,
    trivialize_cocycle,
)


class ReductiveError(RealcohError):
    pass


@dataclass
class WeylElement:
    word: list    # indices of simple reflections, identity = []
    n: list       # normalizer representative in G(C)
    action: list  # matrix of Ad(n) on Cartan coordinates (rows convention)

    @cached_property
    def n_inv(self) -> list:
        """n^-1, computed on first use and kept for every later twist."""
        return minverse(self.n, self.n[0][0].tower)


@dataclass
class ReductiveRealGroup:
    tower: FieldTower
    datum: LieAlgebraDatum
    real: RealStructure
    k_rows: list
    p_rows: list
    zc_rows: list
    zs_rows: list
    that0_rows: list   # Cartan subalgebra of k
    t0_rows: list      # Lie algebra of the maximal compact torus
    t_rows: list       # Lie algebra of the fundamental torus T
    torus: TorusPresentation
    root: object
    weyl: list         # all WeylElements
    w0: list           # elements stabilizing the Cartan subalgebra of k


@dataclass
class WeylOrbitTable:
    patterns: list   # H^1(T) sign patterns, canonical order
    perms: list      # one permutation per element of w0_generators
    orbits: list     # sorted index lists, ordered by smallest member


@dataclass
class ReductiveH1Result:
    group: ReductiveRealGroup
    table: WeylOrbitTable
    class_indices: list    # index into the torus patterns, one per class
    representatives: list  # cocycle matrices, aligned with class_indices

    def order(self) -> int:
        return len(self.representatives)


def _realify_rows(rows: list, tower: FieldTower) -> list:
    """Real basis of a coordinate subspace closed under conjugation.

    Coordinates are taken with respect to a gamma-fixed basis, so the real
    structure acts by entrywise conjugation of coordinate rows.
    """
    out = []
    for v in rows:
        out.append([x.real_part() for x in v])
        out.append([x.imag_part() for x in v])
    return rref_rows(out, tower)


def _split_center(datum: LieAlgebraDatum, z_rows: list) -> tuple:
    """Split the center into compact and split parts by eigenvalue type."""
    tower = datum.tower
    if not z_rows:
        return [], []
    z_mats = datum.rows_to_mats(z_rows)
    c = simultaneous_diagonalize(z_mats, tower, datum.n)
    cinv = minverse(c, tower)
    diags = []
    for m in z_mats:
        dm = mmul(mmul(cinv, m), c)
        diags.append([dm[i][i] for i in range(datum.n)])
    im_parts = [[x.imag_part() for x in d] for d in diags]
    re_parts = [[x.real_part() for x in d] for d in diags]

    def kernel_combos(parts):
        return rref_rows([vmat(coeff, z_rows)
                          for coeff in left_kernel(parts, tower)], tower)

    zs = kernel_combos(im_parts)
    zc = kernel_combos(re_parts)
    if len(zs) + len(zc) != len(z_rows):
        raise ReductiveError("center-not-split")
    return zc, zs


def _action_key(action: list) -> tuple:
    """Exact key of a Weyl action matrix."""
    return tuple(format_element(x) for row in action for x in row)


def build_reductive(lie_basis: list, nsigma: list, k_mats: list,
                    p_mats: list, tower: FieldTower, seed: int = 0,
                    weyl_guard: int = 10000,
                    cartan_k_mats: list = None) -> ReductiveRealGroup:
    """Assemble the fundamental torus, root and Weyl data of the group.

    lie_basis: basis of the real Lie algebra (gamma-fixed matrices);
    k_mats/p_mats: a Cartan decomposition of the derived subalgebra.
    cartan_k_mats: optional matrices spanning a Cartan subalgebra of k;
    when given they are verified and used instead of the random search,
    which keeps the eigenvalues of the adjoint action inside the square-root
    tower for groups whose generic compact elements need larger extensions.
    """
    datum = LieAlgebraDatum(lie_basis, tower)
    real = RealStructure(nsigma, tower)
    if not all(real.fixes(m) for m in lie_basis):
        raise ReductiveError("not-real-basis")

    alg = datum.sc
    full = alg.basis_rows()
    s_rows = alg.product_space(full, full)
    z_rows = alg.center_of(full)
    if len(s_rows) + len(z_rows) != datum.dim or \
            len(span_sum(s_rows, z_rows, tower)) != datum.dim:
        raise ReductiveError("not-reductive")

    if not all(real.fixes(m) for m in k_mats + p_mats):
        raise ReductiveError("not-cartan-decomposition",
                             "k/p matrices must be real")
    k_rows = rref_rows(datum.mats_to_rows(k_mats), tower)
    p_rows = rref_rows(datum.mats_to_rows(p_mats), tower)
    if len(k_rows) + len(p_rows) != len(s_rows) or \
            not all(in_span(v, s_rows) for v in k_rows + p_rows):
        raise ReductiveError("not-cartan-decomposition",
                             "k + p must be the derived subalgebra")
    for a, b, target in ((k_rows, k_rows, k_rows), (k_rows, p_rows, p_rows),
                         (p_rows, p_rows, k_rows)):
        for u in a:
            for v in b:
                if not in_span(alg.bracket(u, v), target):
                    raise ReductiveError("not-cartan-decomposition",
                                         "bracket relations fail")

    zc_rows, zs_rows = _split_center(datum, z_rows)

    if k_rows:
        sub, embed, coords = alg.subalgebra(k_rows)
        if cartan_k_mats is not None:
            h = []
            for m in cartan_k_mats:
                row, rest = echelon_reduce(datum.coords(m), k_rows)
                if any(not x.is_zero() for x in rest):
                    raise ReductiveError("not-cartan-subalgebra",
                                         "hint matrix not in k")
                h.append(row)
            h = rref_rows(h, tower)
            if not sub._confirm_cartan(h):
                raise ReductiveError("not-cartan-subalgebra",
                                     "hint is not a Cartan subalgebra of k")
        else:
            h = sub.cartan_subalgebra(seed)
        that0_rows = rref_rows([embed(v) for v in h], tower)
    else:
        that0_rows = []
    t0_rows = rref_rows(that0_rows + zc_rows, tower)
    t_rows = alg.centralizer(full, t0_rows)
    if not alg._confirm_cartan(t_rows):
        raise ReductiveError("cartan-failed")

    if t0_rows:
        pres0 = build_presentation(datum.rows_to_mats(t0_rows), nsigma, tower)
        if pres0.l != 0 or pres0.r != 0:
            raise ReductiveError("t0-not-compact")

    t_mats = datum.rows_to_mats(t_rows)
    torus = build_presentation(t_mats, nsigma, tower)
    root = root_system(datum, t_mats)

    gens = []
    for x, y in zip(root.x_gens, root.y_gens):
        n = mmul(mmul(exp_nilpotent(x, tower),
                      exp_nilpotent(mscale(-tower.one(), y), tower)),
                 exp_nilpotent(x, tower))
        gens.append(n)

    def action_of(n):
        ninv = minverse(n, tower)
        rows = []
        for m in t_mats:
            img = mmul(mmul(n, m), ninv)
            sol, rest = echelon_reduce(datum.coords(img), t_rows)
            if any(not x.is_zero() for x in rest):
                raise ReductiveError("not-normalizer")
            rows.append(sol)
        return rows

    dim_t = len(t_rows)
    gen_actions = [action_of(n) for n in gens]

    identity = WeylElement([], meye(tower, datum.n), meye(tower, dim_t))
    elements = [identity]
    seen = {_action_key(identity.action)}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for i, (gn, ga) in enumerate(zip(gens, gen_actions)):
                act = mmul(ga, e.action)
                k = _action_key(act)
                if k in seen:
                    continue
                seen.add(k)
                w = WeylElement(e.word + [i], mmul(e.n, gn), act)
                elements.append(w)
                nxt.append(w)
                if len(elements) > weyl_guard:
                    raise ReductiveError("weyl-too-large")
        frontier = nxt

    that0_tc = [echelon_reduce(v, t_rows)[0] for v in that0_rows]
    that0_span = rref_rows(that0_tc, tower)
    w0 = []
    for e in elements:
        if all(in_span(vmat(v, e.action), that0_span) for v in that0_tc):
            w0.append(e)

    return ReductiveRealGroup(
        tower=tower, datum=datum, real=real,
        k_rows=k_rows, p_rows=p_rows, zc_rows=zc_rows, zs_rows=zs_rows,
        that0_rows=that0_rows, t0_rows=t0_rows, t_rows=t_rows,
        torus=torus, root=root, weyl=elements, w0=w0)


def w0_generators(g: ReductiveRealGroup) -> list:
    """A generating set of W_0, taken greedily from g.w0 in its order.

    An element is kept when its action lies outside the subgroup generated
    by the elements kept so far; that subgroup is closed under products of
    the action matrices.  The generators are elements of W_0 itself: when
    t_0 != t the simple reflections of W need not lie in W_0."""
    ident = meye(g.tower, len(g.t_rows))
    closure = {_action_key(ident): ident}
    gens = []
    for e in g.w0:
        if len(closure) == len(g.w0):
            break
        if _action_key(e.action) in closure:
            continue
        gens.append(e)
        frontier = list(closure.values())
        while frontier:
            nxt = []
            for a in frontier:
                for s in gens:
                    b = mmul(s.action, a)
                    k = _action_key(b)
                    if k not in closure:
                        closure[k] = b
                        nxt.append(b)
            frontier = nxt
    return gens


def _twist(g: ReductiveRealGroup, e: WeylElement, z: list) -> list:
    """One W_0 twist n^-1 z gamma(n) by the representative n of e, with
    its kept inverse; a module function so that the W_0 scans can be timed
    and counted per twist (perfbench traces it)."""
    return g.real.twist(e.n, z, e.n_inv)


def weyl_action(g: ReductiveRealGroup) -> WeylOrbitTable:
    """Permutation action of W_0 on the H^1(T) sign-pattern classes.

    Orbits are fixed by a generating set, so only the elements of
    w0_generators are evaluated, one permutation each.  The twist
    z -> n^-1 z gamma(n) is affine on the sign group: since T(C) is
    abelian, phi(z z') phi(1) = phi(z) phi(z') holds exactly as matrices,
    so the class map satisfies P(eps eps') = P(eps) P(eps') P(1)^-1.  Each
    element is therefore evaluated on the identity pattern and the k
    one-sign-flip patterns only; the rest of the permutation follows by
    componentwise sign multiplication.
    """
    res = h1_torus(g.torus)
    patterns = res.sign_patterns
    k = g.torus.k
    index_of = {tuple(p): i for i, p in enumerate(patterns)}
    probe = [patterns.index([1] * k)] if k else [0]
    probe += [patterns.index([1] * j + [-1] + [1] * (k - 1 - j))
              for j in range(k)]
    perms = []
    for e in w0_generators(g):
        images = []
        for idx in probe:
            zp = _twist(g, e, res.representatives[idx])
            _, signs, _ = trivialize_cocycle(g.torus, zp)
            images.append(signs)
        base = images[0]
        # sign image of the j-th basis flip relative to the base point
        deltas = [[a * b for a, b in zip(images[1 + j], base)]
                  for j in range(k)]
        perm = []
        for pat in patterns:
            signs = list(base)
            for j, s in enumerate(pat):
                if s == -1:
                    signs = [a * b for a, b in zip(signs, deltas[j])]
            perm.append(index_of[tuple(signs)])
        if sorted(perm) != list(range(len(patterns))):
            raise ReductiveError("action-not-permutation")
        perms.append(perm)
    parent = list(range(len(patterns)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm):
            parent[find(i)] = find(j)
    groups = {}
    for i in range(len(patterns)):
        groups.setdefault(find(i), []).append(i)
    orbits = sorted((sorted(v) for v in groups.values()),
                    key=lambda o: o[0])
    return WeylOrbitTable(patterns, perms, orbits)


def h1_connected_reductive(g: ReductiveRealGroup) -> ReductiveH1Result:
    """One explicit cocycle per W_0-orbit of H^1(T) representatives."""
    table = weyl_action(g)
    res = h1_torus(g.torus)
    class_indices = [orbit[0] for orbit in table.orbits]
    reps = []
    for idx in class_indices:
        z = res.representatives[idx]
        if not g.real.is_cocycle(z):
            raise ReductiveError("not-cocycle")
        reps.append(z)
    return ReductiveH1Result(g, table, class_indices, reps)


def realify_torus_conjugator(g: ReductiveRealGroup, t0p_mats: list,
                             conj: list, require_equal: bool = True) -> list:
    """Replace conj by a real conjugator carrying the compact torus into T_0.

    conj is an element of G(C) whose conjugation action maps the torus with
    Lie algebra t0p_mats into T_0.  The result g_r = conj * n * t is fixed by
    gamma and induces the same conjugation on the torus, verified exactly.
    """
    tower = g.tower
    z = mmul(minverse(conj, tower), g.real.gamma(conj))
    if not g.torus.membership(z):
        raise ReductiveError("realification-failed",
                             "gamma displacement is not in the torus")
    t0_span = rref_rows(g.t0_rows, tower)
    for e in g.w0:
        zp = _twist(g, e, z)
        try:
            _, signs, s = trivialize_cocycle(g.torus, zp)
        except TorusError:
            continue
        if any(sg != 1 for sg in signs):
            continue
        g_r = mmul(conj, mmul(e.n, s))
        if not g.real.fixes(g_r):
            continue
        ginv = minverse(g_r, tower)
        images = []
        ok = True
        for m in t0p_mats:
            img = mmul(mmul(ginv, m), g_r)
            try:
                v = g.datum.coords(img)
            except LieError:
                ok = False
                break
            if not in_span(v, t0_span):
                ok = False
                break
            images.append(v)
        if not ok:
            continue
        if require_equal and len(rref_rows(images, tower)) != len(t0_span):
            continue
        return g_r
    raise ReductiveError("realification-failed")


def solve_problem2_reductive(g: ReductiveRealGroup, cocycle: list,
                             classes: ReductiveH1Result = None,
                             conjugator_hint: list = None,
                             seed: int = 0) -> tuple:
    """Class index and witness for a 1-cocycle in G(C).

    Returns (index, h) with h^-1 * cocycle * gamma(h) equal to the stored
    representative of class `index`, verified exactly.  When the semisimple
    part generates a compact torus not inside T and no conjugator_hint is
    supplied, raises ReductiveError("conjugator-unavailable").
    """
    tower = g.tower
    datum = g.datum
    n = datum.n
    ident = meye(tower, n)
    if not g.real.is_cocycle(cocycle):
        raise ReductiveError("not-cocycle")
    if classes is None:
        classes = h1_connected_reductive(g)

    jp = jordan(cocycle, tower)
    s_part, u_part = jp.s, jp.u
    if meq(u_part, ident):
        uhalf = ident
    else:
        lu = log_unipotent(u_part, tower)
        if not datum.contains(lu):
            raise ReductiveError("not-in-group")
        uhalf = exp_nilpotent(
            mscale(tower.from_rational(Fraction(1, 2)), lu), tower)
    if not meq(g.real.twist(uhalf, cocycle), s_part):
        raise ReductiveError("jordan-twist-failed")

    if g.torus.membership(s_part):
        # s already lies in the fundamental torus, so T itself is a maximal
        # torus of the centralizer of s and no conjugation is needed
        s1, _, t1 = trivialize_cocycle(g.torus, s_part)
        v_conj = ident
    else:
        c_rows = _commutant_rows(datum, s_part)
        creal = _realify_rows(c_rows, tower)
        if len(creal) != len(rref_rows(c_rows, tower)):
            raise ReductiveError("centralizer-not-real")
        sub, embed, _ = datum.sc.subalgebra(creal)
        h_sub = sub.cartan_subalgebra(seed)
        tprime_rows = rref_rows([embed(v) for v in h_sub], tower)
        tprime_mats = datum.rows_to_mats(tprime_rows)
        tp = build_presentation(tprime_mats, g.real.nsigma, tower)

        s1, _, t1 = trivialize_cocycle(tp, s_part)

        t0p_mats = compact_part_lie(tp)
        t_span = rref_rows(g.t_rows, tower)

        def inside_t(mats):
            for m in mats:
                try:
                    v = datum.coords(m)
                except LieError:
                    return False
                if not in_span(v, t_span):
                    return False
            return True

        if inside_t(t0p_mats):
            v_conj = ident
        elif conjugator_hint is not None:
            v_conj = realify_torus_conjugator(g, t0p_mats, conjugator_hint,
                                              require_equal=False)
        else:
            raise ReductiveError("conjugator-unavailable")

    s2 = mmul(mmul(minverse(v_conj, tower), s1), v_conj)
    res = h1_torus(g.torus)
    for e in g.w0:
        zp = _twist(g, e, s2)
        try:
            _, signs, t2 = trivialize_cocycle(g.torus, zp)
        except TorusError:
            continue
        idx = res.sign_patterns.index(signs)
        if idx not in classes.class_indices:
            continue
        pos = classes.class_indices.index(idx)
        h = mmul(mmul(mmul(mmul(uhalf, t1), v_conj), e.n), t2)
        if not meq(g.real.twist(h, cocycle), classes.representatives[pos]):
            raise ReductiveError("witness-verification-failed")
        return pos, h
    raise ReductiveError("equivalence-search-failed")
