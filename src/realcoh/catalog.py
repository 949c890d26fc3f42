"""Built-in group data: verified bases, real structures and component data
for the shipped families.

Families:
  * torus:<word>   products of indecomposable real tori, one letter per
                   factor: E = split, F = compact (norm-one), D = induced
                   (restriction of scalars), e.g. torus:fe
  * so(p,q)        special orthogonal algebra of the diagonal form with p
                   plus signs and q minus signs, p+q <= 9
  * sl(n,r)        special linear algebra over the reals, n <= 4
  * su(p,q)        special unitary algebra, p+q <= 3, realized through the
                   block embedding g -> diag(g, transpose-inverse) so the
                   real structure is conjugation by a matrix
  * sp(4,r)        split symplectic algebra of rank 2
  * o(2), o(3)     orthogonal groups with their reflection component
  * mu2            the two-element group inside GL(1)
  * n-sl2-t        normalizer of the diagonal torus in the 2x2 special
                   linear group, split real structure
  * n-sl2-t-compact  the same group with the compact real structure
  * gm-affine      multiplicative group acting on the affine line
  * sl2-c2         2x2 special linear algebra acting on the plane

Every entry is rebuilt and verified by the corresponding pipeline builder
on `get`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .field import FieldTower, RealcohError, format_element
from .linalg import RealStructure, mat_from_ints, meye, mzeros
from .nonconnected import build_nonconnected
from .nonreductive import build_levi_split
from .reductive import build_reductive
from .torus import build_presentation


class CatalogError(RealcohError):
    pass


@dataclass
class CatalogEntry:
    name: str
    kind: str                     # torus | reductive | nonreductive | nonconnected
    tower: FieldTower
    lie_basis: list
    nsigma: list
    component_reps: list | None = None
    pi0_table: list | None = None
    pi0_gamma: list | None = None
    conjugator_hint: list | None = None
    group: object = None          # built, verified pipeline object

    def to_json(self) -> str:
        def fmt(mat):
            return [[format_element(x) for x in row] for row in mat]

        data = {
            "name": self.name,
            "kind": self.kind,
            "n": len(self.nsigma),
            "lie_basis": [fmt(m) for m in self.lie_basis],
            "N_sigma": fmt(self.nsigma),
        }
        if self.kind == "nonconnected":
            data["component_reps"] = [fmt(m) for m in self.component_reps]
            data["pi0_table"] = self.pi0_table
            data["pi0_gamma"] = self.pi0_gamma
        return json.dumps(data, separators=(",", ":"))


# -- matrix helpers ----------------------------------------------------------------


def _block_embed(tower, blocks_sizes, index, mat):
    """Place mat at block `index` of a block-diagonal zero matrix."""
    n = sum(blocks_sizes)
    off = sum(blocks_sizes[:index])
    out = mzeros(tower, n, n)
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            out[off + i][off + j] = x
    return out


# -- tori --------------------------------------------------------------------------


_TORUS_BLOCKS = {
    "e": (1, [[[1]]], [[1]]),
    "f": (2, [[[0, 1], [-1, 0]]], [[1, 0], [0, 1]]),
    "d": (2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[0, 1], [1, 0]]),
}


def _torus_entry(word: str, tower: FieldTower) -> CatalogEntry:
    letters = [ch for ch in word.lower()]
    if not letters or any(ch not in _TORUS_BLOCKS for ch in letters):
        raise CatalogError("unknown-name", f"torus word {word!r}")
    sizes = [_TORUS_BLOCKS[ch][0] for ch in letters]
    n = sum(sizes)
    basis = []
    nsig = meye(tower, n)
    for idx, ch in enumerate(letters):
        size, block_basis, block_nsig = _TORUS_BLOCKS[ch]
        for bm in block_basis:
            basis.append(_block_embed(tower, sizes, idx,
                                      mat_from_ints(tower, bm)))
        off = sum(sizes[:idx])
        for i in range(size):
            for j in range(size):
                nsig[off + i][off + j] = tower.from_rational(
                    block_nsig[i][j])
    pres = build_presentation(basis, RealStructure(nsig, tower))
    return CatalogEntry(
        name=f"torus:{word.lower()}", kind="torus", tower=tower,
        lie_basis=basis, nsigma=nsig, group=pres,
    )


# -- orthogonal and linear families -------------------------------------------------


def _reductive_entry(name: str, tower: FieldTower, basis: list,
                     nsig: list) -> CatalogEntry:
    group = build_reductive(basis, RealStructure(nsig, tower))
    return CatalogEntry(name=name, kind="reductive", tower=tower,
                        lie_basis=basis, nsigma=nsig, group=group)


def _sopq_data(p: int, q: int, tower: FieldTower) -> list:
    n = p + q
    sign = [1] * p + [-1] * q
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            m = mzeros(tower, n, n)
            m[i][j] = tower.one()
            m[j][i] = tower.from_rational(-sign[i] * sign[j])
            basis.append(m)
    return basis


def _sopq_entry(p: int, q: int, tower: FieldTower) -> CatalogEntry:
    if p + q > 9 or p + q < 2 or p < 0 or q < 0:
        raise CatalogError("unknown-name", f"so({p},{q}) out of range")
    if p + q == 2:
        raise CatalogError(
            "unknown-name",
            f"so({p},{q}) is a one-dimensional torus: use "
            + ("catalog:torus:e" if p == q else "catalog:torus:f"))
    return _reductive_entry(f"so({p},{q})", tower, _sopq_data(p, q, tower),
                            meye(tower, p + q))


def _slnr_entry(n: int, tower: FieldTower) -> CatalogEntry:
    if not 2 <= n <= 4:
        raise CatalogError("unknown-name", f"sl({n},r) out of range")
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            anti = mzeros(tower, n, n)
            anti[i][j] = tower.one()
            anti[j][i] = tower.from_rational(-1)
            sym = mzeros(tower, n, n)
            sym[i][j] = tower.one()
            sym[j][i] = tower.one()
            basis += [anti, sym]
    for i in range(n - 1):
        d = mzeros(tower, n, n)
        d[i][i] = tower.one()
        d[i + 1][i + 1] = tower.from_rational(-1)
        basis.append(d)
    return _reductive_entry(f"sl({n},r)", tower, basis, meye(tower, n))


def _su_basis(p: int, q: int, tower: FieldTower) -> list:
    """Real basis of su(p,q) in the standard representation: the diagonal
    part, then the entries (a, b) whose signs agree, then the others."""
    n = p + q
    sign = [1] * p + [-1] * q
    i_unit = tower.i()
    basis = []
    for a in range(n - 1):
        d = mzeros(tower, n, n)
        d[a][a] = i_unit
        d[a + 1][a + 1] = -i_unit
        basis.append(d)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for a, b in sorted(pairs, key=lambda ab: sign[ab[0]] != sign[ab[1]]):
        s = tower.from_rational(sign[a] * sign[b])
        m1 = mzeros(tower, n, n)
        m1[a][b] = tower.one()
        m1[b][a] = -s
        m2 = mzeros(tower, n, n)
        m2[a][b] = i_unit
        m2[b][a] = i_unit * s
        basis += [m1, m2]
    return basis


def _iota_lie(tower, x):
    """Block embedding of the Lie algebra: x -> diag(x, -x^T)."""
    n = len(x)
    out = mzeros(tower, 2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            out[i][j] = x[i][j]
            out[n + i][n + j] = -x[j][i]
    return out


def _su_entry(p: int, q: int, tower: FieldTower) -> CatalogEntry:
    n = p + q
    if not 2 <= n <= 3:
        raise CatalogError("unknown-name", f"su({p},{q}) out of range")
    basis = [_iota_lie(tower, m) for m in _su_basis(p, q, tower)]
    nsig = mzeros(tower, 2 * n, 2 * n)
    sign = [1] * p + [-1] * q
    for i in range(n):
        nsig[i][n + i] = tower.from_rational(sign[i])
        nsig[n + i][i] = tower.from_rational(sign[i])
    return _reductive_entry(f"su({p},{q})", tower, basis, nsig)


def _sp4_entry(tower: FieldTower) -> CatalogEntry:
    # form matrix [[0, 1], [-1, 0]] in 2x2 blocks
    n = 4

    def sp_elt(a, b, c):
        # [[A, B], [C, -A^T]] with B, C symmetric
        m = mzeros(tower, n, n)
        for i in range(2):
            for j in range(2):
                m[i][j] = tower.from_rational(a[i][j])
                m[i][2 + j] = tower.from_rational(b[i][j])
                m[2 + i][j] = tower.from_rational(c[i][j])
                m[2 + i][2 + j] = tower.from_rational(-a[j][i])
        return m

    z = [[0, 0], [0, 0]]
    e11, e22, e12s = [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]
    rot = [[0, 1], [-1, 0]]
    basis = [
        sp_elt(rot, z, z),
        sp_elt(z, e11, [[-1, 0], [0, 0]]),
        sp_elt(z, e22, [[0, 0], [0, -1]]),
        sp_elt(z, e12s, [[0, -1], [-1, 0]]),
        sp_elt(e11, z, z),
        sp_elt(e22, z, z),
        sp_elt([[0, 1], [1, 0]], z, z),
        sp_elt(z, e11, e11),
        sp_elt(z, e22, e22),
        sp_elt(z, e12s, e12s),
    ]
    return _reductive_entry("sp(4,r)", tower, basis, meye(tower, n))


# -- non-connected and non-reductive entries ----------------------------------------


_Z2 = ([[0, 1], [1, 0]], [0, 1])


def _z2_entry(name: str, tower: FieldTower, basis: list, nsig: list,
              reps: list) -> CatalogEntry:
    """A group with two components, represented by reps, and the trivial
    gamma-action on them."""
    group = build_nonconnected(basis, RealStructure(nsig, tower), reps, *_Z2)
    return CatalogEntry(name=name, kind="nonconnected", tower=tower,
                        lie_basis=basis, nsigma=nsig, component_reps=reps,
                        pi0_table=_Z2[0], pi0_gamma=_Z2[1], group=group)


def _o2_entry(tower: FieldTower) -> CatalogEntry:
    rot = mat_from_ints(tower, [[0, 1], [-1, 0]])
    refl = mat_from_ints(tower, [[1, 0], [0, -1]])
    return _z2_entry("o(2)", tower, [rot], meye(tower, 2),
                     [meye(tower, 2), refl])


def _o3_entry(tower: FieldTower) -> CatalogEntry:
    basis = [mat_from_ints(tower, m) for m in (
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    )]
    minus = mat_from_ints(tower, [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    return _z2_entry("o(3)", tower, basis, meye(tower, 3),
                     [meye(tower, 3), minus])


def _mu2_entry(tower: FieldTower) -> CatalogEntry:
    return _z2_entry("mu2", tower, [], meye(tower, 1),
                     [mat_from_ints(tower, [[1]]),
                      mat_from_ints(tower, [[-1]])])


def _nsl2t_entry(tower: FieldTower, compact: bool) -> CatalogEntry:
    h = mat_from_ints(tower, [[1, 0], [0, -1]])
    w = mat_from_ints(tower, [[0, 1], [-1, 0]])
    return _z2_entry("n-sl2-t-compact" if compact else "n-sl2-t", tower,
                     [h], w if compact else meye(tower, 2),
                     [meye(tower, 2), w])


def _levi_entry(name: str, tower: FieldTower, basis: list) -> CatalogEntry:
    """A connected group with unipotent radical and the split real
    structure."""
    nsig = meye(tower, len(basis[0]))
    group = build_levi_split(basis, RealStructure(nsig, tower))
    return CatalogEntry(name=name, kind="nonreductive", tower=tower,
                        lie_basis=basis, nsigma=nsig, group=group)


def _gm_affine_entry(tower: FieldTower) -> CatalogEntry:
    d = mat_from_ints(tower, [[1, 0], [0, 0]])
    e = mat_from_ints(tower, [[0, 1], [0, 0]])
    return _levi_entry("gm-affine", tower, [d, e])


def _sl2_c2_entry(tower: FieldTower) -> CatalogEntry:
    h = mat_from_ints(tower, [[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    x = mat_from_ints(tower, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    y = mat_from_ints(tower, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    e1 = mat_from_ints(tower, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    e2 = mat_from_ints(tower, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    return _levi_entry("sl2-c2", tower, [h, x, y, e1, e2])


# -- registry ----------------------------------------------------------------------


# name -> builder on the tower
_NAMED = {
    "sp(4,r)": _sp4_entry,
    "o(2)": _o2_entry,
    "o(3)": _o3_entry,
    "mu2": _mu2_entry,
    "n-sl2-t": lambda tower: _nsl2t_entry(tower, compact=False),
    "n-sl2-t-compact": lambda tower: _nsl2t_entry(tower, compact=True),
    "gm-affine": _gm_affine_entry,
    "sl2-c2": _sl2_c2_entry,
}

# (name pattern, builder on the match and the tower)
_FAMILIES = [
    (r"torus:(.*)", lambda m, tower: _torus_entry(m[1], tower)),
    (r"so\((\d+),(\d+)\)",
     lambda m, tower: _sopq_entry(int(m[1]), int(m[2]), tower)),
    (r"sl\((\d+),r\)", lambda m, tower: _slnr_entry(int(m[1]), tower)),
    (r"su\((\d+)(?:,(\d+))?\)",
     lambda m, tower: _su_entry(int(m[1]), int(m[2] or 0), tower)),
]


def list_names() -> list:
    names = []
    names += [f"torus:{w}" for w in ("e", "f", "d", "fe", "fd", "fed")]
    names += [f"so({p},{q})" for p, q in
              ((1, 2), (2, 3), (3, 4), (4, 5))]
    names += [f"sl({n},r)" for n in (2, 3, 4)]
    names += ["su(2,0)", "su(1,1)", "su(3,0)", "su(2,1)", "sp(4,r)"]
    names += ["o(2)", "o(3)", "mu2", "n-sl2-t", "n-sl2-t-compact",
              "gm-affine", "sl2-c2"]
    return names


def get(name: str, tower: FieldTower = None) -> CatalogEntry:
    tower = tower or FieldTower()
    key = name.strip().lower().replace(" ", "")
    if key in _NAMED:
        return _NAMED[key](tower)
    for pattern, build in _FAMILIES:
        m = re.fullmatch(pattern, key)
        if m:
            return build(m, tower)
    raise CatalogError("unknown-name", name)
