"""H^1 and cocycle equivalence for non-connected groups over the reals.

A non-connected group is given by the Lie algebra of its identity component,
the matrix of the real structure, one matrix representative per component,
and the component group as a multiplication table with its gamma-action.
The class list is assembled component-class by component-class:

  1. enumerate H^1 of the component group by brute force;
  2. for each class, form the 2-cocycle (g.gamma(g), inn(g) o gamma) of the
     identity component and decide whether the class lifts (torus closed
     forms, or the nonabelian-H^2 engine for a reductive identity
     component); a lifting witness s gives the cocycle ghat = s.g;
  3. twist the real structure by ghat and list H^1 of the twisted identity
     component;
  4. quotient by the action of the twisted-real component classes, realized
     through the connected equivalence solver, and translate by ghat.

Classes that fail to lift for a mathematical reason (the 2-cocycle is not
a coboundary) are reported in `non_lifting`; classes that cannot be decided
with the supplied data (missing cover, missing conjugator, a twisted
identity component whose basis is not real for the twisted structure) are
reported in `blocked` with a machine-readable reason, and the remaining
classes are still returned.

The real-structure matrix N may satisfy N.conj(N) = z for a central z != 1
(as happens for compact forms presented inside a simply connected group);
this is supported when the identity component is a torus or trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldTower, RealcohError
from .gammacoh import FiniteGammaGroup, h1_finite
from .h2nab import H2Error, delta, neutralize_reductive
from .liealg import LieAlgebraDatum
from .linalg import RealStructure, meq, meye, minverse, mmul
from .reductive import (
    ReductiveError,
    ReductiveRealGroup,
    build_reductive,
    h1_connected_reductive,
    solve_problem2_reductive,
)
from .torus import (
    QuasiTorusDatum,
    TorusError,
    TorusPresentation,
    build_presentation,
    h1_torus,
    h2_is_coboundary,
    trivialize_cocycle,
)


class NonConnectedError(RealcohError):
    pass


def _full_torus_qdatum(pres: TorusPresentation) -> QuasiTorusDatum:
    """The torus itself viewed as a quasi-torus (no characters)."""
    return QuasiTorusDatum(
        torus=pres,
        lattice_map=[[] for _ in range(pres.d)],
        quotient_tau=[],
        component_torus=pres,
        component_reps=[meye(pres.tower, pres.n)],
    )


@dataclass
class NonConnectedGroup:
    tower: FieldTower
    n: int
    lie_basis: list          # identity component; may be empty
    real: RealStructure
    component_reps: list     # one matrix per pi0 element
    pi0: FiniteGammaGroup
    mode: str                # "finite" | "torus" | "reductive"
    torus: TorusPresentation | None = None
    reductive: ReductiveRealGroup | None = None
    conjugator_hint: list | None = None

    def in_identity_component(self, mat: list):
        """True/False when decidable, None when not."""
        if self.mode == "finite":
            return meq(mat, meye(self.tower, self.n))
        if self.mode == "torus":
            return self.torus.membership(mat)
        if meq(mat, meye(self.tower, self.n)):
            return True
        if self.reductive.torus.membership(mat):
            return True
        return None


def build_nonconnected(lie_basis: list, real: RealStructure,
                       component_reps: list, pi0_table: list, pi0_gamma: list,
                       conjugator_hint: list = None) -> NonConnectedGroup:
    """The group with identity component Lie algebra lie_basis and real
    structure real, which it hands on to its torus or reductive identity
    component."""
    tower = real.tower
    n = len(real.nsigma)
    ident = meye(tower, n)
    pi0 = FiniteGammaGroup(pi0_table, pi0_gamma)
    if len(component_reps) != pi0.size:
        raise NonConnectedError("component-count-mismatch")

    # the real structure must be an involution: N.conj(N) central
    defect = real.defect()
    for mat in lie_basis + component_reps:
        if not meq(mmul(defect, mat), mmul(mat, defect)):
            raise NonConnectedError("invalid-real-structure",
                                    "N conj(N) is not central")

    if not lie_basis:
        group = NonConnectedGroup(tower, n, [], real, component_reps, pi0,
                                  "finite")
    else:
        abelian = all(
            meq(mmul(x, y), mmul(y, x)) for x in lie_basis for y in lie_basis
        )
        if abelian:
            pres = build_presentation(lie_basis, real, allow_defect=True)
            group = NonConnectedGroup(tower, n, lie_basis, real,
                                      component_reps, pi0, "torus",
                                      torus=pres)
        else:
            if not meq(defect, ident):
                raise NonConnectedError(
                    "invalid-real-structure",
                    "a central defect needs a torus identity component")
            red = build_reductive(lie_basis, real)
            group = NonConnectedGroup(tower, n, lie_basis, real,
                                      component_reps, pi0, "reductive",
                                      reductive=red,
                                      conjugator_hint=conjugator_hint)

    if lie_basis:
        datum = LieAlgebraDatum(lie_basis, tower)
        for g in component_reps:
            ginv = minverse(g, tower)
            for x in lie_basis:
                img = mmul(mmul(g, x), ginv)
                if not datum.contains(img):
                    raise NonConnectedError(
                        "representative-does-not-normalize")

    def check_member(mat, what):
        verdict = group.in_identity_component(mat)
        if verdict is False:
            raise NonConnectedError("pi0-data-inconsistent", what)
        if verdict is None:
            raise NonConnectedError("membership-undecided", what)

    for i in range(pi0.size):
        for j in range(pi0.size):
            prod = mmul(component_reps[i], component_reps[j])
            u = mmul(prod,
                     minverse(component_reps[pi0.table[i][j]], tower))
            check_member(u, "multiplication table")
        u = mmul(real.gamma(component_reps[i]),
                 minverse(component_reps[pi0.gamma[i]], tower))
        check_member(u, "gamma action")
    return group


# -- lifting a component class -----------------------------------------------------


def torus_shortcut(lie_basis: list, real: RealStructure, g: list):
    """Lift a component representative over a torus identity component.

    Returns (ghat, s) with ghat = s.g and ghat.gamma(ghat) = 1, or None when
    h = g.gamma(g) is not a coboundary of the torus twisted by inn(g)
    (the class has no real points over it).
    """
    h = mmul(g, real.gamma(g))
    pres_tw = build_presentation(lie_basis, real.inner(g), allow_defect=True)
    if pres_tw.lambda_inverse(h) is None:
        raise NonConnectedError("pi0-data-inconsistent",
                                "g.gamma(g) is not in the torus")
    s = h2_is_coboundary(_full_torus_qdatum(pres_tw),
                         minverse(h, real.tower))
    if s is None:
        return None
    ghat = mmul(s, g)
    if not real.is_cocycle(ghat):
        raise NonConnectedError("lift-verification-failed")
    return ghat, s


# -- per-class machinery -----------------------------------------------------------


@dataclass
class _ComponentClass:
    c: int                   # pi0 class representative (component index)
    ghat: list
    real: RealStructure      # inn(ghat) o gamma
    mode: str
    x_reps: list             # H^1 of the twisted identity component
    kept: list               # indices into x_reps surviving the quotient
    orbit_rep: list          # x index -> kept x index
    transport: list          # x index -> u with real.twist(u, x) = rep
    entry_offset: int
    pres_hat: TorusPresentation | None = None
    patterns: list | None = None
    tw_group: ReductiveRealGroup | None = None
    tw_classes: object = None

    def classify(self, w):
        """(x index, witness s) with real.twist(s, w) = x_reps[index]."""
        tower = self.real.tower
        if self.mode == "finite":
            if not meq(w, meye(tower, len(w))):
                raise NonConnectedError("not-in-identity-component")
            return 0, meye(tower, len(w))
        if self.mode == "torus":
            rep, signs, s = trivialize_cocycle(self.pres_hat, w)
            return self.patterns.index(signs), s
        return solve_problem2_reductive(self.tw_group, w,
                                        classes=self.tw_classes)


@dataclass
class NonConnectedH1Result:
    representatives: list    # verified cocycles in G
    provenance: list         # (component index, x index) per representative
    non_lifting: list        # component indices whose class has no lift
    blocked: list            # (component index, reason code)
    classes: list            # internal per-class data

    def order(self) -> int:
        return len(self.representatives)


def _lift_class(group: NonConnectedGroup, c: int):
    """(ghat, s) lifting component class c, None if non-lifting; raises
    NonConnectedError with a data-availability code when undecidable."""
    tower = group.tower
    g = group.component_reps[c]
    if group.mode == "finite":
        if group.real.is_cocycle(g):
            return g, meye(tower, group.n)
        return None
    if group.mode == "torus":
        return torus_shortcut(group.lie_basis, group.real, g)
    cocycle = delta(g, group.real, group.lie_basis)
    try:
        res = neutralize_reductive(group.reductive, cocycle,
                                   conjugator_hint=group.conjugator_hint)
    except H2Error as err:
        raise NonConnectedError(err.code, str(err))
    if not res.neutral:
        return None
    s = res.witness
    ghat = mmul(s, g)
    if not group.real.is_cocycle(ghat):
        raise NonConnectedError("lift-verification-failed")
    return ghat, s


def _twisted_x1(group: NonConnectedGroup, ghat: list):
    """H^1 data of the identity component with the real structure twisted
    by ghat."""
    tower = group.tower
    real_hat = group.real.inner(ghat)
    if group.mode == "finite":
        return real_hat, {"mode": "finite", "x_reps": [meye(tower, group.n)]}
    if group.mode == "torus":
        pres_hat = build_presentation(group.lie_basis, real_hat,
                                      allow_defect=True)
        res = h1_torus(pres_hat)
        return real_hat, {"mode": "torus", "x_reps": res.representatives,
                          "pres_hat": pres_hat,
                          "patterns": res.sign_patterns}
    try:
        tw_group = build_reductive(group.lie_basis, real_hat)
    except (ReductiveError, TorusError) as err:
        raise NonConnectedError("twist-data-required", str(err))
    tw_classes = h1_connected_reductive(tw_group)
    return real_hat, {"mode": "reductive",
                      "x_reps": tw_classes.representatives,
                      "tw_group": tw_group, "tw_classes": tw_classes}


def h1_nonconnected(group: NonConnectedGroup) -> NonConnectedH1Result:
    pi0_h1 = h1_finite(group.pi0, bound=10 ** 4)
    representatives = []
    provenance = []
    non_lifting = []
    blocked = []
    classes = []
    for c in pi0_h1.representatives:
        try:
            lifted = _lift_class(group, c)
        except NonConnectedError as err:
            blocked.append((c, err.code))
            continue
        if lifted is None:
            non_lifting.append(c)
            continue
        ghat, _ = lifted
        try:
            real_hat, tw = _twisted_x1(group, ghat)
        except NonConnectedError as err:
            blocked.append((c, err.code))
            continue
        cc = _ComponentClass(
            c=c, ghat=ghat, real=real_hat, mode=tw["mode"],
            x_reps=tw["x_reps"], kept=[], orbit_rep=[], transport=[],
            entry_offset=len(representatives),
            pres_hat=tw.get("pres_hat"), patterns=tw.get("patterns"),
            tw_group=tw.get("tw_group"), tw_classes=tw.get("tw_classes"),
        )
        _quotient_by_components(group, cc)
        for t in cc.kept:
            z = mmul(cc.x_reps[t], ghat)
            if not group.real.is_cocycle(z):
                raise NonConnectedError("cocycle-verification-failed")
            representatives.append(z)
            provenance.append((c, t))
        classes.append(cc)
    return NonConnectedH1Result(representatives, provenance,
                                non_lifting, blocked, classes)


def _quotient_by_components(group: NonConnectedGroup, cc: _ComponentClass):
    """Orbits of the twisted-real component classes on the twisted H^1."""
    tower = group.tower
    pi0 = group.pi0
    # gamma-action on pi0 twisted by the class component c
    ghat_comp = cc.c
    stab = []
    for e in range(pi0.size):
        tw_gamma_e = pi0.mul(pi0.mul(ghat_comp, pi0.gamma[e]),
                             pi0.inv[ghat_comp])
        if tw_gamma_e == e:
            stab.append(e)
    count = len(cc.x_reps)
    cc.orbit_rep = [None] * count
    cc.transport = [None] * count
    for t0 in range(count):
        if cc.orbit_rep[t0] is not None:
            continue
        cc.kept.append(t0)
        cc.orbit_rep[t0] = t0
        cc.transport[t0] = meye(tower, group.n)
        queue = [t0]
        while queue:
            cur = queue.pop()
            for e in stab:
                a_e = group.component_reps[e]
                y = cc.real.twist(a_e, cc.x_reps[cur])
                if not cc.real.is_cocycle(y):
                    raise NonConnectedError("orbit-action-failed")
                tprime, s_conn = cc.classify(y)
                if cc.orbit_rep[tprime] is None:
                    v = mmul(a_e, s_conn)
                    cc.orbit_rep[tprime] = t0
                    cc.transport[tprime] = mmul(minverse(v, tower),
                                                cc.transport[cur])
                    queue.append(tprime)


# -- equivalence -------------------------------------------------------------------


def solve_problem2_nonconnected(group: NonConnectedGroup, g: list,
                                classes: NonConnectedH1Result = None) -> tuple:
    """(index into the class list, witness b) with b^-1 g gamma(b) equal to
    the listed representative, verified exactly.  When no class matches and
    a twisted component could not decide membership for want of a torus
    conjugator, raises that conjugator-unavailable error rather than
    no-equivalent-class."""
    tower = group.tower
    if not group.real.is_cocycle(g):
        raise NonConnectedError("not-cocycle")
    if classes is None:
        classes = h1_nonconnected(group)
    undecided = None
    for cc in classes.classes:
        ghat_inv = minverse(cc.ghat, tower)
        for e in range(group.pi0.size):
            s = group.component_reps[e]
            w = mmul(group.real.twist(s, g), ghat_inv)
            if not cc.real.is_cocycle(w):
                continue
            try:
                t, s_conn = cc.classify(w)
            except (NonConnectedError, ReductiveError, TorusError) as err:
                if err.code == "conjugator-unavailable":
                    undecided = err
                continue
            rep_t = cc.orbit_rep[t]
            b = mmul(mmul(s, s_conn), cc.transport[t])
            idx = cc.entry_offset + cc.kept.index(rep_t)
            target = classes.representatives[idx]
            if group.real.carries(b, g, target):
                return idx, b
    if undecided is not None:
        raise undecided
    if classes.blocked:
        raise NonConnectedError(
            "no-match-with-blocked-classes",
            "blocked component classes: "
            + ", ".join(f"{c}:{code}" for c, code in classes.blocked))
    raise NonConnectedError("no-equivalent-class")

