"""Arithmetic for the oracles, kept apart from realcoh's own.

Answers arrive in two forms: CLI JSON, whose entries are written in realcoh's
element grammar ("1/2+3*i", "sqrt(2)"), and FieldElement matrices from the
library, read through their monomial coordinates.  Both are turned into
scalars of one of two kinds:

* Gaussian rationals (sympy's QQ_I), compared exactly with DomainMatrix;
* mpmath complex numbers at DPS digits, for anything with a square root,
  compared to within 10^-TOL_DIGITS of the matrices' size.

Nothing here calls realcoh's arithmetic.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import mpmath
import sympy
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import CoercionFailed

DPS = 120
TOL_DIGITS = 90


def gauss(re, im=0):
    """Gaussian rational from two rationals (int, Fraction or QQ)."""
    re, im = Fraction(re), Fraction(im)
    return QQ_I(QQ(re.numerator, re.denominator),
                QQ(im.numerator, im.denominator))


@functools.lru_cache(maxsize=1 << 16)
def parse_scalar(text: str):
    """A CLI matrix entry as a QQ_I element or an mpmath number."""
    expr = sympy.sympify(text, locals={"i": sympy.I, "sqrt": sympy.sqrt})
    try:
        return QQ_I.from_sympy(expr)
    except CoercionFailed:
        with mpmath.workdps(DPS + 10):
            re, im = expr.evalf(DPS + 10).as_real_imag()
            return mpmath.mpc(mpmath.mpf(str(re)), mpmath.mpf(str(im)))


def _gen_value(tower, k: int):
    """Positive square root of the tower's k-th radicand, in mpmath."""
    with mpmath.workdps(DPS + 10):
        return mpmath.sqrt(to_mp(_field_value(tower.gens[k])).real)


def _field_value(x):
    coords = x.coords
    if all(mask == 0 for (_, mask) in coords):
        return gauss(coords.get((0, 0), 0), coords.get((1, 0), 0))
    with mpmath.workdps(DPS + 10):
        total = mpmath.mpc(0)
        for (ib, mask), c in coords.items():
            term = mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator)
            if ib:
                term *= 1j
            k = 0
            while mask:
                if mask & 1:
                    term *= _gen_value(x.tower, k)
                k += 1
                mask >>= 1
            total += term
        return total


def scalar(x):
    """Oracle scalar from a string, an int/Fraction or a FieldElement."""
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, (int, Fraction)):
        return gauss(x)
    if hasattr(x, "coords"):
        return _field_value(x)
    return x


def matrix(rows) -> list:
    return [[scalar(x) for x in row] for row in rows]


def to_mp(x):
    if isinstance(x, mpmath.mpc):
        return x
    with mpmath.workdps(DPS + 10):
        re = mpmath.mpf(int(x.x.numerator)) / int(x.x.denominator)
        im = mpmath.mpf(int(x.y.numerator)) / int(x.y.denominator)
        return mpmath.mpc(re, im)


def conj(m: list) -> list:
    with mpmath.workdps(DPS + 10):
        return [[x.conjugate() if isinstance(x, mpmath.mpc)
                 else QQ_I(x.x, -x.y) for x in row] for row in m]


def _exact(mats) -> bool:
    return all(not isinstance(x, mpmath.mpc)
               for m in mats for row in m for x in row)


def domain_matrix(m: list) -> DomainMatrix:
    return DomainMatrix([list(row) for row in m], (len(m), len(m[0])), QQ_I)


def _mpm(m: list):
    return mpmath.matrix([[to_mp(x) for x in row] for row in m])


def products_equal(left: list, right: list) -> bool:
    """Whether the product of the matrices in `left` equals that of `right`."""
    mats = left + right
    if _exact(mats):
        lhs, rhs = domain_matrix(left[0]), domain_matrix(right[0])
        for m in left[1:]:
            lhs = lhs * domain_matrix(m)
        for m in right[1:]:
            rhs = rhs * domain_matrix(m)
        return lhs == rhs
    with mpmath.workdps(DPS):
        lhs, rhs = _mpm(left[0]), _mpm(right[0])
        for m in left[1:]:
            lhs = lhs * _mpm(m)
        for m in right[1:]:
            rhs = rhs * _mpm(m)
        if lhs.rows != rhs.rows or lhs.cols != rhs.cols:
            return False
        scale = max([1] + [abs(x) for x in rhs])
        diff = max(abs(a - b) for a, b in zip(lhs, rhs))
        return diff <= scale * mpmath.mpf(10) ** (-TOL_DIGITS)


def invertible(m: list) -> bool:
    if len(m) != len(m[0]):
        return False
    if _exact([m]):
        return domain_matrix(m).det() != QQ_I.zero
    with mpmath.workdps(DPS):
        return abs(mpmath.det(_mpm(m))) > mpmath.mpf(10) ** (-TOL_DIGITS)
