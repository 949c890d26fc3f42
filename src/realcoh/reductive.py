"""First Galois cohomology of connected reductive real groups.

A connected reductive group G over the reals is described by a basis of the
real Lie algebra inside gl(n) together with the matrix N_sigma defining the
antiholomorphic involution sigma(g) = N_sigma * conj(g) * N_sigma^-1.  The
derived algebra and the center come from the nonzero structure constants.
The Cartan decomposition k + p of the derived (semisimple) part is computed
as the eigenspaces of theta(X) = -conj(X)^T.  From these we construct:

  * the maximal compact torus T_0 (Lie algebra: a Cartan subalgebra of k
    together with the compact part of the center),
  * the fundamental torus T = Z_G(T_0) with its canonical presentation,
  * the root system of the complexified algebra with respect to T, read
    off the matrix C that diagonalizes Lie(T) in the presentation: a
    matrix unit E_ij in the basis C has weight d_i - d_j.  The zero weight
    space having the dimension of Lie(T) is the check that Lie(T) is a
    Cartan subalgebra,
  * normalizer representatives of the simple reflections of the Weyl group
    W, keyed by their permutations of the roots, and generators of the
    subgroup W_0 that stabilizes the Cartan subalgebra of k; W is never
    listed.

H^1(R, G) is the set of W_0-orbits on the sign-pattern classes of
H^1(R, T).  Each generator of W_0 acts in the coordinates of T: an integer
matrix on the cocharacters and one torus element, both checked exactly
(torus.normalizer_action), so the orbits come from coordinate vectors and
no matrix is twisted.  Every class comes with an explicit cocycle
representative, checked to be a cocycle, and the equivalence solver returns
a witness h with h^-1 * g * gamma(h) equal to the chosen representative,
verified exactly before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .field import FieldTower, RealcohError
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
    span_coords,
    span_sum,
)
from .linalg import (
    RealStructure,
    _diagonal_of,
    echelon_reduce,
    left_kernel,
    meq,
    meye,
    minverse,
    mmul,
    mscale,
    mtranspose,
    vmat,
)
from .torus import (
    TorusError,
    TorusPresentation,
    build_presentation,
    cocycle_signs,
    compact_part_lie,
    mono_apply,
    normalizer_action,
    sign_patterns,
    simultaneous_diagonalize,
    trivialize_cocycle,
)


class ReductiveError(RealcohError):
    pass


@dataclass
class WeylElement:
    word: list    # indices of simple reflections, identity = []
    n: list       # normalizer representative in G(C)
    perm: tuple   # root index -> index of its image (root.roots order)

    @cached_property
    def n_inv(self) -> list:
        """n^-1, computed on first use and kept for every later twist."""
        return minverse(self.n, self.n[0][0].tower)


@dataclass
class ReductiveRealGroup:
    tower: FieldTower
    datum: LieAlgebraDatum
    real: RealStructure
    zc_rows: list
    zs_rows: list
    t0_rows: list      # Lie algebra of the maximal compact torus
    t_rows: list       # Lie algebra of the fundamental torus T
    torus: TorusPresentation
    root: object
    weyl: list         # the simple reflections, in root.x_gens order
    w0: list           # generators of W_0, the stabilizer of that0 in W


@dataclass
class WeylOrbitTable:
    patterns: list   # H^1(T) sign patterns, canonical order
    perms: list      # one permutation of the patterns per element of w0
    orbits: list     # sorted index lists, ordered by smallest member


@dataclass
class ReductiveH1Result:
    table: WeylOrbitTable
    class_indices: list    # index into the torus patterns, one per class
    representatives: list  # cocycle matrices, aligned with class_indices

    def order(self) -> int:
        return len(self.representatives)


def _realify_rows(rows: list) -> list:
    """Real basis of a coordinate subspace closed under conjugation.

    Coordinates are taken with respect to a gamma-fixed basis, so the real
    structure acts by entrywise conjugation of coordinate rows.
    """
    out = []
    for v in rows:
        out.append([x.real_part() for x in v])
        out.append([x.imag_part() for x in v])
    return rref_rows(out)


def _split_center(datum: LieAlgebraDatum, z_rows: list) -> tuple:
    """Split the center into compact and split parts by eigenvalue type."""
    tower = datum.tower
    if not z_rows:
        return [], []
    z_mats = datum.rows_to_mats(z_rows)
    c = simultaneous_diagonalize(z_mats, tower, datum.n)
    diags = [_diagonal_of(c, m) for m in z_mats]
    if None in diags:
        raise ReductiveError("center-not-split")
    im_parts = [[x.imag_part() for x in d] for d in diags]
    re_parts = [[x.real_part() for x in d] for d in diags]

    def kernel_combos(parts):
        return rref_rows([vmat(coeff, z_rows)
                          for coeff in left_kernel(parts, tower)])

    zs = kernel_combos(im_parts)
    zc = kernel_combos(re_parts)
    if len(zs) + len(zc) != len(z_rows):
        raise ReductiveError("center-not-split")
    return zc, zs


def cartan_decomposition(datum: LieAlgebraDatum, s_rows: list) -> tuple:
    """(k_rows, p_rows): the +1 and -1 eigenspaces of theta(X) = -conj(X)^T
    on the derived algebra with rref_rows basis s_rows.

    theta is an involutive automorphism of gl(n) as a real Lie algebra, so
    on a real semisimple algebra closed under it k + p is a Cartan
    decomposition; k lies in u(n), where the trace form is negative
    definite.  Raises cartan-decomposition-unavailable when theta does not
    map the derived algebra into itself, or does not map its real points
    (real coordinates, the basis being gamma-fixed) to real points; then
    the eigenspaces are not gamma-fixed.  theta of each row of s_rows is
    formed from the nonzero entries of its matrix: the entry at (i, j)
    goes to (j, i), conjugated and negated.  The general case is Dietrich,
    Faccin and de Graaf, J. Symbolic Comput. 56, 2013.
    """
    tower = datum.tower
    n = datum.n
    theta = []
    for v in s_rows:
        try:
            image = datum.entry_coords({(t % n) * n + t // n: -x.conj()
                                        for t, x in datum.entries(v).items()})
            theta.append(span_coords(image, s_rows, "not-invariant"))
        except LieError:
            raise ReductiveError("cartan-decomposition-unavailable",
                                 "theta(X) = -conj(X)^T does not map the "
                                 "derived algebra into itself")
    if any(not x.imag_part().is_zero() for row in theta for x in row):
        raise ReductiveError("cartan-decomposition-unavailable",
                             "theta does not preserve the real form")

    def eigenspace(sign):
        shifted = [[x - sign if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(theta)]
        return rref_rows([vmat(c, s_rows)
                          for c in left_kernel(shifted, tower)])

    return eigenspace(tower.one()), eigenspace(-tower.one())


def build_reductive(lie_basis: list,
                    real: RealStructure) -> ReductiveRealGroup:
    """Assemble the fundamental torus, root and Weyl data of the group with
    real structure real, which the group and its torus keep.

    lie_basis: basis of the real Lie algebra (gamma-fixed matrices), whose
    derived algebra theta(X) = -conj(X)^T maps into itself; k and p come
    from `cartan_decomposition`.  k lies in u(n) and is compact, so a
    maximal abelian subalgebra of k is a Cartan subalgebra of k.  It is
    built greedily: while the centralizer c of h in k is larger than h,
    the rref row of c outside h whose matrix has the fewest nonzero
    entries (the first on a tie) joins h.  Sparse basis elements such as
    block rotations keep the adjoint eigenvalues inside the square-root
    tower.
    """
    tower = real.tower
    datum = LieAlgebraDatum(lie_basis, tower)
    if not all(real.fixes(m) for m in lie_basis):
        raise ReductiveError("not-real-basis")

    alg = datum.sc
    full = alg.basis_rows()
    s_rows = alg.product_space(full, full)
    z_rows = alg.center_of(full)
    if len(s_rows) + len(z_rows) != datum.dim or \
            len(span_sum(s_rows, z_rows)) != datum.dim:
        raise ReductiveError("not-reductive")
    k_rows, _ = cartan_decomposition(datum, s_rows)

    zc_rows, zs_rows = _split_center(datum, z_rows)

    def weight(v):
        return sum(not x.is_zero() for row in datum.from_coords(v)
                   for x in row)

    that0_rows, c = [], k_rows
    while len(c) > len(that0_rows):
        v = min((u for u in c if not in_span(u, that0_rows)), key=weight)
        that0_rows = rref_rows(that0_rows + [v])
        c = alg.centralizer(c, [v])
    t0_rows = rref_rows(that0_rows + zc_rows)
    t_rows = alg.centralizer(full, t0_rows)

    t_mats = datum.rows_to_mats(t_rows)
    torus = build_presentation(t_mats, real)
    # t0 is abelian, so t contains it and C diagonalizes it; it is the Lie
    # algebra of a compact torus exactly when its real basis elements have
    # purely imaginary eigenvalues
    for m in datum.rows_to_mats(t0_rows):
        d = _diagonal_of(torus.c, m)
        if d is None or any(not x.real_part().is_zero() for x in d):
            raise ReductiveError("t0-not-compact")
    root = root_system(datum, t_mats, torus.c, torus.cinv)

    root_index = {tuple(r): i for i, r in enumerate(root.roots)}
    simple, actions = [], []
    for i, (x, y) in enumerate(zip(root.x_gens, root.y_gens)):
        n = mmul(mmul(exp_nilpotent(x, tower),
                      exp_nilpotent(mscale(-tower.one(), y), tower)),
                 exp_nilpotent(x, tower))
        ninv = minverse(n, tower)
        action = []
        for m in t_mats:
            sol, rest = echelon_reduce(datum.coords(mmul(mmul(n, m), ninv)),
                                       t_rows)
            if any(not c.is_zero() for c in rest):
                raise ReductiveError("not-normalizer")
            action.append(sol)
        # a reflection is its own inverse on t, so the root with values b
        # on the basis of t goes to the root with values action * b
        cols = mtranspose(action)
        perm = tuple(root_index.get(tuple(vmat(b, cols))) for b in root.roots)
        if None in perm:
            raise ReductiveError("not-normalizer")
        simple.append(WeylElement([i], n, perm))
        simple[-1].n_inv = ninv   # seeds the cached inverse
        actions.append(action)

    # W_0, the stabilizer of that0 in W, is generated by the Schreier
    # generators u_q^-1 s u_p of the orbit of that0 with a transversal u
    # (Seress, Permutation Group Algorithms, ch. 4).  u_p is a word in the
    # simple reflections, each its own inverse in W, so u_q^-1 is reversed.
    def point(rows):
        return tuple(tuple(v) for v in rref_rows(rows))

    orbit = [point([echelon_reduce(v, t_rows)[0] for v in that0_rows])]
    transversal = {orbit[0]: []}
    w0, seen = [], {tuple(range(len(root.roots)))}
    for p in orbit:
        for i, a in enumerate(actions):
            q = point([vmat(v, a) for v in p])
            if q not in transversal:
                transversal[q] = [i] + transversal[p]
                orbit.append(q)
                continue
            word = transversal[q][::-1] + [i] + transversal[p]
            w = reduce(_product, [simple[j] for j in word])
            if w.perm not in seen:
                seen.add(w.perm)
                w0.append(w)

    return ReductiveRealGroup(
        tower=tower, datum=datum, real=real,
        zc_rows=zc_rows, zs_rows=zs_rows, t0_rows=t0_rows, t_rows=t_rows,
        torus=torus, root=root, weyl=simple, w0=w0)


def _product(a: WeylElement, b: WeylElement) -> WeylElement:
    """The Weyl element a * b, represented by the product a.n * b.n."""
    return WeylElement(a.word + b.word, mmul(a.n, b.n),
                       tuple(a.perm[j] for j in b.perm))


def _twist(g: ReductiveRealGroup, e: WeylElement, z: list) -> list:
    """One W_0 twist n^-1 z gamma(n) by the representative n of e, with
    its kept inverse; a module function so that twists can be timed and
    counted (perfbench traces it)."""
    return g.real.twist(e.n, z, e.n_inv)


def weyl_action(g: ReductiveRealGroup) -> WeylOrbitTable:
    """Permutation action of W_0 on the H^1(T) sign-pattern classes.

    Orbits are fixed by a generating set, so only the generators in g.w0
    are evaluated, one permutation each.  Each generator e, with
    representative n, acts in torus coordinates: normalizer_action gives
    (W_e, c_e) with n^-1 lam(x) gamma(n) = lam(mono_apply(x, W_e) * c_e),
    both identities checked exactly, and cocycle_signs reads the class of
    the twisted coordinates; no matrix is twisted.  The twist is affine on
    the sign group: since T(C) is abelian, the class map satisfies
    P(eps eps') = P(eps) P(eps') P(1)^-1.  Each element is therefore
    evaluated on the identity pattern and the k one-sign-flip patterns
    only; the rest of the permutation follows by componentwise sign
    multiplication.
    """
    t = g.torus
    k = t.k
    patterns = sign_patterns(k)
    index_of = {tuple(p): i for i, p in enumerate(patterns)}
    probes = [t.mu_to_lam(t.pattern_mu([1] * k))]
    probes += [t.mu_to_lam(t.pattern_mu([1] * j + [-1] + [1] * (k - 1 - j)))
               for j in range(k)]
    perms = []
    for e in g.w0:
        w, c = normalizer_action(t, e.n, e.n_inv)
        images = [cocycle_signs(t, [x * y for x, y in
                                    zip(mono_apply(coords, w), c)])[0]
                  for coords in probes]
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
    orbits, seen = [], set()
    for i in range(len(patterns)):
        if i in seen:
            continue
        seen.add(i)
        orbit = [i]
        for j in orbit:
            for perm in perms:
                if perm[j] not in seen:
                    seen.add(perm[j])
                    orbit.append(perm[j])
        orbits.append(sorted(orbit))
    return WeylOrbitTable(patterns, perms, orbits)


def h1_connected_reductive(g: ReductiveRealGroup) -> ReductiveH1Result:
    """One explicit cocycle per W_0-orbit of H^1(T) representatives."""
    table = weyl_action(g)
    class_indices = [orbit[0] for orbit in table.orbits]
    reps = []
    for idx in class_indices:
        z = g.torus.mu(g.torus.pattern_mu(table.patterns[idx]))
        if not g.real.is_cocycle(z):
            raise ReductiveError("not-cocycle")
        reps.append(z)
    return ReductiveH1Result(table, class_indices, reps)


def _pattern_search(g: ReductiveRealGroup, table: WeylOrbitTable,
                    trivial: tuple, targets: set):
    """(index, m) with m^-1 z gamma(m) the H^1(T) representative of a
    pattern index in targets, or None, for a cocycle z in T given by its
    trivialization (rep, signs, s) = trivialize_cocycle(g.torus, z), which
    the caller already holds.  A breadth-first search over the sign
    patterns along table.perms, the identity first, gives a word in g.w0;
    the empty word keeps m = s, and otherwise, with n its representative,
    m = s n s' for the trivialize_cocycle witness s' of the one twist
    n^-1 rep gamma(n)."""
    rep, signs, s = trivial
    queue = [table.patterns.index(signs)]
    words = {queue[0]: []}   # pattern -> word in the generators g.w0
    for i in queue:
        if i in targets:
            break
        for j, perm in enumerate(table.perms):
            if perm[i] not in words:
                words[perm[i]] = words[i] + [j]
                queue.append(perm[i])
    else:
        return None
    if words[i]:
        e = reduce(_product, [g.w0[j] for j in words[i]])
        _, signs, s2 = trivialize_cocycle(g.torus, _twist(g, e, rep))
        s = mmul(mmul(s, e.n), s2)
    i = table.patterns.index(signs)
    return (i, s) if i in targets else None


def _coords_in(datum: LieAlgebraDatum, mats: list, span: list):
    """Coordinates of the matrices, or None if one lies outside the span."""
    rows = []
    for m in mats:
        try:
            rows.append(datum.coords(m))
        except LieError:
            return None
        if not in_span(rows[-1], span):
            return None
    return rows


def realify_torus_conjugator(g: ReductiveRealGroup, t0p_basis: list,
                             conj: list, table: WeylOrbitTable,
                             require_equal: bool = True) -> list:
    """Replace conj by a real conjugator carrying the compact torus into T_0.

    conj is an element of G(C) whose conjugation action maps the torus with
    Lie algebra t0p_basis into T_0.  The result g_r = conj * n * t is fixed by
    gamma and induces the same conjugation on the torus, verified exactly;
    n t comes from _pattern_search on the table of weyl_action(g).
    """
    tower = g.tower
    z = mmul(minverse(conj, tower), g.real.gamma(conj))
    try:
        found = _pattern_search(g, table, trivialize_cocycle(g.torus, z),
                                {table.patterns.index([1] * g.torus.k)})
    except TorusError:
        found = None
    if found is None:
        raise ReductiveError("realification-failed",
                             "gamma displacement is not a torus cocycle "
                             "that W_0 carries to 1")
    g_r = mmul(conj, found[1])
    if not g.real.fixes(g_r):
        raise ReductiveError("realification-failed")
    t0_span = rref_rows(g.t0_rows)
    ginv = minverse(g_r, tower)
    images = _coords_in(g.datum, [mmul(mmul(ginv, m), g_r)
                                  for m in t0p_basis], t0_span)
    if images is None or (require_equal and
                          len(rref_rows(images)) != len(t0_span)):
        raise ReductiveError("realification-failed")
    return g_r


def _torus_trivialization(t: TorusPresentation, z: list):
    """trivialize_cocycle(t, z), or None when z is not in T; every other
    torus error is raised."""
    try:
        return trivialize_cocycle(t, z)
    except TorusError as err:
        if err.code != "not-member":
            raise
        return None


def solve_problem2_reductive(g: ReductiveRealGroup, cocycle: list,
                             classes: ReductiveH1Result = None,
                             conjugator_hint: list = None) -> tuple:
    """Class index and witness for a 1-cocycle in G(C).

    Returns (index, h) with h^-1 * cocycle * gamma(h) equal to the stored
    representative of class `index`, verified exactly.  The cocycle is
    first trivialized in T: one in T is semisimple, so it needs no Jordan
    decomposition.  Otherwise its semisimple part s, when the unipotent
    part is not 1, is trivialized in T next; an s outside T is trivialized
    in a maximal torus T' of its centralizer, moved into T and trivialized
    there.  The trivialization found in T is the one _pattern_search
    starts from.  When the semisimple part generates a compact torus not
    inside T and no conjugator_hint is supplied, raises
    ReductiveError("conjugator-unavailable").
    """
    tower = g.tower
    datum = g.datum
    if not g.real.is_cocycle(cocycle):
        raise ReductiveError("not-cocycle")
    if classes is None:
        classes = h1_connected_reductive(g)

    factors = []   # h is their product times the _pattern_search witness
    s_part = cocycle
    trivial = _torus_trivialization(g.torus, cocycle)
    if trivial is None:
        jp = jordan(cocycle, tower)
        s_part = jp.s
        if not meq(jp.u, meye(tower, datum.n)):
            lu = log_unipotent(jp.u, tower)
            if not datum.contains(lu):
                raise ReductiveError("not-in-group")
            uhalf = exp_nilpotent(
                mscale(tower.from_rational(Fraction(1, 2)), lu), tower)
            if not g.real.carries(uhalf, cocycle, s_part):
                raise ReductiveError("jordan-twist-failed")
            factors.append(uhalf)
            # s may lie in the fundamental torus, and then T itself is a
            # maximal torus of the centralizer of s
            trivial = _torus_trivialization(g.torus, s_part)

    if trivial is None:
        c_rows = _commutant_rows(datum, s_part)
        creal = _realify_rows(c_rows)
        if len(creal) != len(rref_rows(c_rows)):
            raise ReductiveError("centralizer-not-real")
        sub, embed, _ = datum.sc.subalgebra(creal)
        h_sub = sub.cartan_subalgebra()
        tprime_rows = rref_rows([embed(v) for v in h_sub])
        tprime_mats = datum.rows_to_mats(tprime_rows)
        tp = build_presentation(tprime_mats, g.real)

        s2, _, t1 = trivialize_cocycle(tp, s_part)
        factors.append(t1)

        # the conjugator is the identity when the compact part of T' lies
        # in T, and otherwise comes from the hint
        t0p_basis = compact_part_lie(tp)
        if _coords_in(datum, t0p_basis, rref_rows(g.t_rows)) is None:
            if conjugator_hint is None:
                raise ReductiveError("conjugator-unavailable")
            v_conj = realify_torus_conjugator(g, t0p_basis, conjugator_hint,
                                              classes.table,
                                              require_equal=False)
            s2 = mmul(mmul(minverse(v_conj, tower), s2), v_conj)
            factors.append(v_conj)
        try:
            trivial = trivialize_cocycle(g.torus, s2)
        except TorusError as err:
            raise ReductiveError("equivalence-search-failed") from err

    found = _pattern_search(g, classes.table, trivial,
                            set(classes.class_indices))
    if found is None:
        raise ReductiveError("equivalence-search-failed")
    pos = classes.class_indices.index(found[0])
    h = reduce(mmul, factors + [found[1]])
    if not g.real.carries(h, cocycle, classes.representatives[pos]):
        raise ReductiveError("witness-verification-failed")
    return pos, h


WEYL_WALK_LIMIT = 10000


def weyl_walk(g: ReductiveRealGroup):
    """The elements of W, lazily and breadth-first from the identity: each
    new one is an earlier one times a simple reflection, keyed by its root
    permutation.  Raises weyl-too-large past WEYL_WALK_LIMIT elements."""
    walk = [WeylElement([], meye(g.tower, g.datum.n),
                        tuple(range(len(g.root.roots))))]
    seen = {walk[0].perm}
    for e in walk:
        yield e
        for s in g.weyl:
            perm = tuple(e.perm[j] for j in s.perm)
            if perm not in seen:
                if len(seen) == WEYL_WALK_LIMIT:
                    raise ReductiveError("weyl-too-large")
                seen.add(perm)
                walk.append(_product(e, s))
