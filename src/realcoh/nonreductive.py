"""H^1 and cocycle equivalence for connected groups with unipotent radical.

A connected group G splits as G^u . G^(r) with G^u the unipotent radical and
G^(r) a reductive complement.  The quotient map G -> G/G^u induces a
bijection on first cohomology, proved in one step in both directions with an
explicit exp(-log/2) correction.  This module packages:

  * lifting a cocycle of the quotient to a cocycle of G (sansuc_lift),
  * transporting a quotient-level equivalence witness to an exact witness
    in G (sansuc_transport),
  * the class list of G, which is the class list of the reductive part
    reinterpreted inside G, and
  * the full equivalence solver, which first solves the problem in the
    reductive part and then removes the remaining unipotent discrepancy.

All returned witnesses are verified exactly before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import FieldTower, RealcohError
from .liealg import (
    LeviDecomposition,
    LieAlgebraDatum,
    LieError,
    exp_nilpotent,
    in_span,
    levi_decompose,
    log_unipotent,
    reductive_projection,
    rref_rows,
)
from .linalg import RealStructure, minverse, mmul, mscale
from .reductive import (
    ReductiveH1Result,
    ReductiveRealGroup,
    build_reductive,
    h1_connected_reductive,
    solve_problem2_reductive,
)


class NonReductiveError(RealcohError):
    pass


@dataclass
class LeviSplitGroup:
    tower: FieldTower
    datum: LieAlgebraDatum      # full Lie algebra
    levi: LeviDecomposition
    reductive: ReductiveRealGroup
    u_rows: list                # unipotent radical coordinates
    real: RealStructure

    def project(self, g: list) -> list:
        """Image of a group element under the retraction onto G^(r)."""
        return reductive_projection(self.datum, self.levi, g)


def build_levi_split(lie_basis: list,
                     real: RealStructure) -> LeviSplitGroup:
    """Split off the unipotent radical and build the reductive complement,
    whose Cartan decomposition build_reductive computes with the same real
    structure; the Levi factor must be closed under theta(X) = -conj(X)^T.
    """
    tower = real.tower
    datum = LieAlgebraDatum(lie_basis, tower)
    if not all(real.fixes(m) for m in lie_basis):
        raise NonReductiveError("not-real-basis")
    levi = levi_decompose(datum)
    r_mats = levi.s_basis + levi.t_basis
    if not r_mats:
        raise NonReductiveError("trivial-reductive-part",
                                "the reductive complement is zero")
    reductive = build_reductive(r_mats, real)
    u_rows = rref_rows(datum.mats_to_rows(levi.n_basis))
    return LeviSplitGroup(tower=tower, datum=datum, levi=levi,
                          reductive=reductive, u_rows=u_rows, real=real)


def _log_in_radical(g: LeviSplitGroup, u: list) -> list:
    """log of a unipotent radical element, or raise."""
    try:
        lu = log_unipotent(u, g.tower)
        v = g.datum.coords(lu)
    except LieError:
        raise NonReductiveError("not-in-radical")
    if not in_span(v, g.u_rows):
        raise NonReductiveError("not-in-radical")
    return lu


def sansuc_lift(g: LeviSplitGroup, elem: list) -> list:
    """Correct an element that is a cocycle modulo G^u into an exact cocycle.

    The returned g' differs from elem by an element of G^u and satisfies
    g' * gamma(g') = 1 exactly.
    """
    tower = g.tower
    u = mmul(elem, g.real.gamma(elem))
    lu = _log_in_radical(g, u)
    s = exp_nilpotent(mscale(tower.from_rational(Fraction(-1, 2)), lu),
                      tower)
    out = mmul(s, elem)
    if not g.real.is_cocycle(out):
        raise NonReductiveError("lift-failed")
    return out


def sansuc_transport(g: LeviSplitGroup, z: list, zprime: list,
                     sbar: list) -> list:
    """Exact witness from a witness that works modulo G^u.

    Given cocycles z, z' of G and sbar with sbar^-1 * z * gamma(sbar) = z'
    modulo G^u, returns s' with s'^-1 * z * gamma(s') = z' exactly.
    """
    tower = g.tower
    z2 = g.real.twist(sbar, z)
    u = mmul(zprime, minverse(z2, tower))
    lu = _log_in_radical(g, u)
    t = exp_nilpotent(mscale(tower.from_rational(Fraction(-1, 2)), lu),
                      tower)
    sprime = mmul(sbar, t)
    if not g.real.carries(sprime, z, zprime):
        raise NonReductiveError("transport-failed")
    return sprime


def h1_connected(g: LeviSplitGroup) -> ReductiveH1Result:
    """Class list of G: the reductive class list, reinterpreted inside G."""
    return h1_connected_reductive(g.reductive)


def solve_problem2_connected(g: LeviSplitGroup, cocycle: list,
                             classes: ReductiveH1Result = None,
                             conjugator_hint: list = None) -> tuple:
    """Class index and witness for a cocycle of a connected group.

    Returns (index, s) with s^-1 * cocycle * gamma(s) equal to the stored
    representative, verified exactly.
    """
    tower = g.tower
    if not g.real.is_cocycle(cocycle):
        raise NonReductiveError("not-cocycle")
    if classes is None:
        classes = h1_connected(g)

    g_red = g.project(cocycle)
    if not g.real.is_cocycle(g_red):
        raise NonReductiveError("projection-not-cocycle")
    idx, s_r = solve_problem2_reductive(g.reductive, g_red, classes=classes,
                                        conjugator_hint=conjugator_hint)
    g_i = classes.representatives[idx]

    u = mmul(g.real.twist(s_r, cocycle), minverse(g_i, tower))
    lu = _log_in_radical(g, u)
    # u is a cocycle for the twisted real structure sigma_i = inn(g_i).sigma
    if not g.real.inner(g_i).is_cocycle(u):
        raise NonReductiveError("twisted-cocycle-failed")
    s_i = exp_nilpotent(mscale(tower.from_rational(Fraction(1, 2)), lu),
                        tower)
    s = mmul(s_r, s_i)
    if not g.real.carries(s, cocycle, g_i):
        raise NonReductiveError("witness-verification-failed")
    return idx, s
