"""Exact arithmetic in a dynamically extended square-root-closed subfield of C.

The field is a tower Q(i)(sqrt(r1), ..., sqrt(rm)) where every radicand r_k is
a positive real element of the preceding subtower.  Elements are stored in a
unique normal form: a Q-linear combination of monomials i^b * prod sqrt(r_k),
b in {0,1}, over square-free subsets of the generators, held as integer
numerators over one positive common denominator with no common factor.  The
arithmetic runs on Python ints; fractions.Fraction appears only where
rationals enter or leave.  Zero testing is exact (no numerators), so all
downstream identity checks are zero tolerance.

Square roots are total on nonzero elements: perfect squares are recognised
inside the tower, real positive radicands extend the tower, negative reals go
through i, unit-modulus elements use the closed half-angle form, and general
complex elements factor through their modulus.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

import mpmath

Rational = Union[int, Fraction]

_SQRT_CACHE_LIMIT = 4096

# the monomials 1 and i of the normal form
_ONE_MONO = (0, 0)
_I_MONO = (1, 0)


class RealcohError(Exception):
    """Error with a stable machine-readable code; every module's error type
    derives from it."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message or code)


class FieldError(RealcohError):
    pass


def _rat_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    num = mpmath.libmp.isqrt(q.numerator)
    den = mpmath.libmp.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class FieldTower:
    """A growing tower Q(i)(sqrt(r1),...,sqrt(rm)).

    Adjunction mutates the tower (append only), so previously built elements
    stay valid.  One tower per computation session; adjunction must be
    serialized externally if used from several threads.
    """

    def __init__(self):
        self.gens: list[FieldElement] = []  # radicands, real positive
        self._sqrt_cache: dict = {}
        # the one zero of the tower: no method writes to an element's
        # _num or _den after construction, so every zero entry can share it
        self._zero = FieldElement(self, {})

    # -- element constructors -------------------------------------------------

    def from_rational(self, q: Rational) -> "FieldElement":
        if type(q) is not int:
            q = Fraction(q)
            if q:
                return FieldElement(self, {_ONE_MONO: q.numerator},
                                    q.denominator)
        return FieldElement(self, {_ONE_MONO: q}) if q else self._zero

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def i(self) -> "FieldElement":
        return FieldElement(self, {_I_MONO: 1})

    def gen_element(self, k: int) -> "FieldElement":
        """The element sqrt(r_k)."""
        return FieldElement(self, {(0, 1 << k): 1})

    def coerce(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.tower is not self:
                raise FieldError("tower-mismatch",
                                 "the element belongs to another tower")
            return x
        return self.from_rational(x)

    # -- square roots ---------------------------------------------------------

    def sqrt(self, x) -> "FieldElement":
        """Exact square root; may extend the tower.  Total for x != 0."""
        x = self.coerce(x)
        if x.is_zero():
            return self.zero()
        key = x._key()
        hit = self._sqrt_cache.get(key)
        if hit is not None:
            return hit
        r = self._sqrt_inner(x)
        if not (r * r - x).is_zero():
            raise FieldError("sqrt-verification-failed",
                             "the computed root does not square to x")
        r = _canonical_sign(r)
        if len(self._sqrt_cache) < _SQRT_CACHE_LIMIT:
            self._sqrt_cache[key] = r
        return r

    def _sqrt_inner(self, x: "FieldElement") -> "FieldElement":
        y = self._sqrt_in_tower(x)
        if y is not None:
            return y
        if x.is_real():
            if x.is_positive():
                return self._adjoin(x)
            return self.i() * self.sqrt(-x)
        norm2 = x * x.conj()  # real positive
        if (norm2 - self.one()).is_zero():
            # half-angle closed form for |x| = 1
            a = x.real_part()
            b = x.imag_part()
            if (x - self.one()).is_zero():
                return self.one()
            v = b + (self.one() - a) * self.i()
            scale = self.sqrt((self.one() - a) * self.from_rational(2))
            return v / scale
        m = self.sqrt(norm2)
        return self.sqrt(m) * self.sqrt(x / m)

    def _adjoin(self, r: "FieldElement") -> "FieldElement":
        """Adjoin sqrt(r) for a real positive r with no root in the tower."""
        self.gens.append(r)
        return self.gen_element(len(self.gens) - 1)

    def _sqrt_in_tower(self, x: "FieldElement") -> Optional["FieldElement"]:
        return self._sqrt_level(x, len(self.gens) - 1)

    def _sqrt_level(self, x: "FieldElement", k: int) -> Optional["FieldElement"]:
        """Square root of x using only generators 0..k and i, or None."""
        if x.is_zero():
            return self.zero()
        if k < 0:
            return self._sqrt_gaussian(x)
        g = self.gen_element(k)
        gval = self.gens[k]
        p, q = x._split(k)
        if q.is_zero():
            r = self._sqrt_level(p, k - 1)
            if r is not None:
                return r
            r = self._sqrt_level(p * gval, k - 1)
            if r is not None:
                return r * g / gval
            return None
        n2 = p * p - q * q * gval
        n = self._sqrt_level(n2, k - 1)
        if n is None:
            return None
        for sign in (1, -1):
            c2 = (p + n * sign) / 2
            if c2.is_zero():
                continue
            c = self._sqrt_level(c2, k - 1)
            if c is not None and not c.is_zero():
                d = q / (c * 2)
                return c + d * g
        return None

    def _sqrt_gaussian(self, x: "FieldElement") -> Optional["FieldElement"]:
        """Square root inside Q(i), or None."""
        a = x._rat_coeff(0, 0)
        b = x._rat_coeff(1, 0)
        if b == 0:
            r = _rat_sqrt(a)
            if r is not None:
                return self.from_rational(r)
            r = _rat_sqrt(-a)
            if r is not None:
                return self.from_rational(r) * self.i()
            return None
        s = _rat_sqrt(a * a + b * b)
        if s is None:
            return None
        for c2 in ((a + s) / 2, (a - s) / 2):
            c = _rat_sqrt(c2)
            if c is not None and c != 0:
                d = b / (2 * c)
                return self.from_rational(c) + self.from_rational(d) * self.i()
        return None

    # -- numerics (for sign determination only) -------------------------------

    def _gen_interval(self, k: int, prec: int):
        iv = mpmath.iv
        with mpmath.workprec(prec):
            rad = self.gens[k]._real_interval(prec)
            return iv.sqrt(rad)


def _canonical_sign(r: "FieldElement") -> "FieldElement":
    """Fix the sign of a square root deterministically.

    Convention: real part positive; if the real part is zero, imaginary part
    positive.
    """
    re = r.real_part()
    if not re.is_zero():
        return r if re.is_positive() else -r
    im = r.imag_part()
    if im.is_zero():
        return r
    return r if im.is_positive() else -r


def _reduced(tower: FieldTower, num: dict, den: int) -> "FieldElement":
    """The element num/den in normal form, for num with no zero value and
    den > 0: one gcd divides out the common factor.  An empty num gives the
    tower's zero."""
    if not num:
        return tower._zero
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
    return FieldElement(tower, num, den)


class FieldElement:
    """Element of a FieldTower in normal form num/den.

    _num maps monomials (i_bit, generator_mask) to nonzero Python ints and
    _den is a positive int with gcd(_den, *_num.values()) == 1; zero is {}
    over 1.  The form is unique, so _key() identifies the element.  The
    arithmetic runs on ints; Fraction appears only at the boundaries
    (from_rational, _rat_coeff, coords, parsing).
    """

    __slots__ = ("tower", "_num", "_den")

    def __init__(self, tower: FieldTower, num: dict, den: int = 1):
        self.tower = tower
        self._num = num
        self._den = den

    @property
    def coords(self) -> dict:
        """Read-only view: monomial -> nonzero Fraction coefficient."""
        return {m: Fraction(c, self._den) for m, c in self._num.items()}

    # -- helpers --------------------------------------------------------------

    def _key(self):
        return frozenset(self._num.items()), self._den

    def __hash__(self):
        return hash(self._key())

    def _rat_coeff(self, ib: int, mask: int) -> Fraction:
        return Fraction(self._num.get((ib, mask), 0), self._den)

    def _top_gen(self) -> int:
        top = -1
        for (_, mask) in self._num:
            if mask:
                top = max(top, mask.bit_length() - 1)
        return top

    def _split(self, k: int):
        """Write self = p + q*sqrt(r_k); returns (p, q)."""
        bit = 1 << k
        p, q = {}, {}
        for (ib, mask), c in self._num.items():
            if mask & bit:
                q[(ib, mask ^ bit)] = c
            else:
                p[(ib, mask)] = c
        return (_reduced(self.tower, p, self._den),
                _reduced(self.tower, q, self._den))

    def is_rational(self) -> bool:
        return all(m == (0, 0) for m in self._num)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("not-rational")
        return self._rat_coeff(0, 0)

    def is_gaussian(self) -> bool:
        return all(mask == 0 for (_, mask) in self._num)

    # -- ring structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        """Equal normal forms: the form is unique, so no difference is
        formed.  An int or Fraction is coerced first; an element of another
        tower raises tower-mismatch."""
        if type(other) is not FieldElement or other.tower is not self.tower:
            if not isinstance(other, (FieldElement, int, Fraction)):
                return NotImplemented
            other = self.tower.coerce(other)
        return self._den == other._den and self._num == other._num

    def _plus(self, other: "FieldElement", sign: int) -> "FieldElement":
        """self + sign*other, over the least common denominator."""
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        den = self._den
        if den == other._den:
            out = dict(a)
        else:
            g = gcd(den, other._den)
            scale = other._den // g
            out = {m: c * scale for m, c in a.items()}
            sign *= den // g
            den *= scale
        for m, c in b.items():
            s = out.get(m)
            if s is None:
                out[m] = sign * c
            else:
                s += sign * c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _reduced(self.tower, out, den)

    def __add__(self, other) -> "FieldElement":
        if type(other) is not FieldElement or other.tower is not self.tower:
            other = self.tower.coerce(other)
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.tower, {m: -c for m, c in self._num.items()},
                            self._den)

    def __sub__(self, other) -> "FieldElement":
        if type(other) is not FieldElement or other.tower is not self.tower:
            other = self.tower.coerce(other)
        return self._plus(other, -1)

    def __rsub__(self, other) -> "FieldElement":
        return self.tower.coerce(other) - self

    def __mul__(self, other) -> "FieldElement":
        if type(other) is not FieldElement or other.tower is not self.tower:
            other = self.tower.coerce(other)
        tower = self.tower
        a, b = self._num, other._num
        if not a or not b:
            return tower._zero
        den = self._den * other._den
        if len(a) == 1 and len(b) == 1:
            ((m1, c1),) = a.items()
            ((m2, c2),) = b.items()
            # disjoint generator masks: no radicand to multiply in
            if not m1[1] & m2[1]:
                coeff = -c1 * c2 if m1[0] and m2[0] else c1 * c2
                mono = (m1[0] ^ m2[0], m1[1] | m2[1])
                return _reduced(tower, {mono: coeff}, den)
        if len(b) == 1 and _ONE_MONO in b:
            q = b[_ONE_MONO]
            return _reduced(tower, {m: c * q for m, c in a.items()}, den)
        if len(a) == 1 and _ONE_MONO in a:
            q = a[_ONE_MONO]
            return _reduced(tower, {m: c * q for m, c in b.items()}, den)
        if self.is_gaussian() and other.is_gaussian():
            # (p + qi)(r + si) = (pr - qs) + (ps + qr)i
            p, q = a.get(_ONE_MONO, 0), a.get(_I_MONO, 0)
            r, s = b.get(_ONE_MONO, 0), b.get(_I_MONO, 0)
            out = {}
            re, im = p * r - q * s, p * s + q * r
            if re:
                out[_ONE_MONO] = re
            if im:
                out[_I_MONO] = im
            return _reduced(tower, out, den)
        # one dict of numerators over den for the whole sum; monomials that
        # share a generator multiply its radicand in, and are summed apart
        out = {}
        shared = None
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                coeff = -c1 * c2 if m1[0] and m2[0] else c1 * c2
                mono = (m1[0] ^ m2[0], m1[1] ^ m2[1])
                common = m1[1] & m2[1]
                if common:
                    term = FieldElement(tower, {mono: coeff})
                    k = 0
                    while common:
                        if common & 1:
                            term = term * tower.gens[k]
                        k += 1
                        common >>= 1
                    shared = term if shared is None else shared + term
                else:
                    s = out.get(mono)
                    out[mono] = coeff if s is None else s + coeff
        prod = _reduced(tower, {m: c for m, c in out.items() if c}, den)
        if shared is None:
            return prod
        return prod + _reduced(tower, shared._num, shared._den * den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise FieldError("division-by-zero")
        top = self._top_gen()
        if top < 0:
            # (a + bi)/d -> d(a - bi)/(a^2 + b^2)
            a = self._num.get(_ONE_MONO, 0)
            b = self._num.get(_I_MONO, 0)
            d = self._den
            out = {}
            if a:
                out[_ONE_MONO] = d * a
            if b:
                out[_I_MONO] = -d * b
            return _reduced(self.tower, out, a * a + b * b)
        p, q = self._split(top)
        g = self.tower.gens[top]
        denom = p * p - q * q * g
        if denom.is_zero():
            raise FieldError(
                "tower-degenerate",
                "conjugate norm vanished; generator dependent on subtower",
            )
        inv_denom = denom.inverse()
        return (p - q * self.tower.gen_element(top)) * inv_denom

    def __truediv__(self, other) -> "FieldElement":
        other = self.tower.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self.tower.coerce(other) / self

    def __pow__(self, e: int) -> "FieldElement":
        """Square and multiply from the lowest bit: x ** 1 is x itself, and
        the last square taken is the one the top bit needs."""
        if e < 0:
            return self.inverse() ** (-e)
        if not e:
            return self.tower.one()
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    # -- involution and real/imaginary structure ------------------------------

    def conj(self) -> "FieldElement":
        return FieldElement(
            self.tower,
            {m: (-c if m[0] else c) for m, c in self._num.items()},
            self._den,
        )

    def real_part(self) -> "FieldElement":
        return _reduced(
            self.tower, {m: c for m, c in self._num.items() if m[0] == 0},
            self._den,
        )

    def imag_part(self) -> "FieldElement":
        """The real element y with self = real_part + i*y."""
        return _reduced(
            self.tower,
            {(0, m[1]): c for m, c in self._num.items() if m[0] == 1},
            self._den,
        )

    def is_real(self) -> bool:
        return all(m[0] == 0 for m in self._num)

    def _real_interval(self, prec: int):
        """Rigorous enclosure of a real element."""
        iv = mpmath.iv
        with mpmath.workprec(prec):
            total = iv.mpf(0)
            for (ib, mask), c in self._num.items():
                if ib:
                    raise FieldError("not-real",
                                     "real enclosure of a non-real element")
                term = iv.mpf(c) / iv.mpf(self._den)
                k = 0
                m = mask
                while m:
                    if m & 1:
                        term = term * self.tower._gen_interval(k, prec)
                    k += 1
                    m >>= 1
                total = total + term
            return total

    def is_positive(self) -> bool:
        """Exact sign of a nonzero real element: a rational's from its
        numerator, any other's by interval refinement."""
        if not self.is_real():
            raise FieldError("not-real")
        if self.is_zero():
            return False
        if len(self._num) == 1 and _ONE_MONO in self._num:
            # a rational: _den > 0 in the normal form
            return self._num[_ONE_MONO] > 0
        prec = 64
        while True:
            box = self._real_interval(prec)
            if box.a > 0:
                return True
            if box.b < 0:
                return False
            prec *= 2
            if prec > 1 << 16:
                raise FieldError("precision-exhausted")

    def complex_approx(self, prec: int = 53) -> complex:
        with mpmath.workprec(prec):
            re = self.real_part()
            im = self.imag_part()
            rv = float(mpmath.mpf(re._real_interval(prec).mid)) if not re.is_zero() else 0.0
            ivv = float(mpmath.mpf(im._real_interval(prec).mid)) if not im.is_zero() else 0.0
            return complex(rv, ivv)

    # -- printing -------------------------------------------------------------

    def __repr__(self):
        return f"<{format_element(self)}>"


# -- textual element grammar --------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | atom
# atom   := rational | 'i' | 'sqrt' '(' expr ')' | '(' expr ')'


def format_element(x: FieldElement) -> str:
    if x.is_zero():
        return "0"
    tower = x.tower
    den = x._den
    parts = []
    for (ib, mask), c in sorted(x._num.items()):
        factors = []
        if abs(c) != den or (ib == 0 and mask == 0):
            g = gcd(c, den)
            factors.append(f"{abs(c) // g}/{den // g}" if den != g
                           else str(abs(c) // g))
        if ib:
            factors.append("i")
        k = 0
        m = mask
        while m:
            if m & 1:
                factors.append(f"sqrt({format_element(tower.gens[k])})")
            k += 1
            m >>= 1
        text = "*".join(factors) if factors else "1"
        parts.append(("-" if c < 0 else "+", text))
    sign0, first = parts[0]
    out = ("-" if sign0 == "-" else "") + first
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


class _Parser:
    def __init__(self, text: str, tower: FieldTower):
        self.text = text
        self.pos = 0
        self.tower = tower

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise FieldError("parse-error", f"expected {ch!r} at {self.pos}")
        self.pos += 1

    def parse(self) -> FieldElement:
        x = self.expr()
        self._skip()
        if self.pos != len(self.text):
            raise FieldError("parse-error", f"trailing input at {self.pos}")
        return x

    def expr(self) -> FieldElement:
        x = self.term()
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            y = self.term()
            x = x + y if op == "+" else x - y
        return x

    def term(self) -> FieldElement:
        x = self.factor()
        while self._peek() in ("*", "/"):
            op = self._peek()
            self.pos += 1
            y = self.factor()
            x = x * y if op == "*" else x / y
        return x

    def factor(self) -> FieldElement:
        if self._peek() == "-":
            self.pos += 1
            return -self.factor()
        return self.atom()

    def atom(self) -> FieldElement:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            x = self.expr()
            self._expect(")")
            return x
        if self.text.startswith("sqrt", self.pos):
            self.pos += 4
            self._expect("(")
            x = self.expr()
            self._expect(")")
            return self.tower.sqrt(x)
        if ch == "i" and not self.text.startswith("sqrt", self.pos):
            self.pos += 1
            return self.tower.i()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "/"
        ):
            # rational literal; '/' inside a literal only when followed by digits
            if self.text[self.pos] == "/":
                nxt = self.pos + 1
                if nxt >= len(self.text) or not self.text[nxt].isdigit():
                    break
            self.pos += 1
        if self.pos == start:
            raise FieldError("parse-error", f"unexpected input at {self.pos}")
        literal = self.text[start:self.pos]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(map(len, literal.split("/"))) > limit:
            raise FieldError("literal-too-long", f"rational literal at {start} "
                             f"has more than {limit} digits, int()'s limit")
        try:
            value = Fraction(literal)
        except (ValueError, ZeroDivisionError):
            raise FieldError("parse-error",
                             f"bad rational literal at {start}")
        return self.tower.from_rational(value)


def parse_element(text: str, tower: FieldTower) -> FieldElement:
    return _Parser(text, tower).parse()


# -- polynomials over the field ----------------------------------------------


def poly_normalize(p: list) -> list:
    while p and p[-1].is_zero():
        p.pop()
    return p


def poly_degree(p: list) -> int:
    return len(p) - 1


def poly_divmod(p: list, q: list, tower: FieldTower):
    p = list(p)
    if not q:
        raise FieldError("division-by-zero")
    quot = [tower.zero() for _ in range(max(0, len(p) - len(q) + 1))]
    lead_inv = q[-1].inverse()
    while len(p) >= len(q) and poly_normalize(p):
        if len(p) < len(q):
            break
        c = p[-1] * lead_inv
        d = len(p) - len(q)
        quot[d] = quot[d] + c
        for k, qc in enumerate(q):
            p[d + k] = p[d + k] - c * qc
        p = poly_normalize(p)
    return poly_normalize(quot), p


def poly_gcd(p: list, q: list, tower: FieldTower) -> list:
    p, q = poly_normalize(list(p)), poly_normalize(list(q))
    while q:
        _, r = poly_divmod(p, q, tower)
        p, q = q, r
    if p:
        inv = p[-1].inverse()
        p = [c * inv for c in p]
    return p


def poly_derivative(p: list) -> list:
    return poly_normalize([p[k] * k for k in range(1, len(p))])


def _factor_gaussian(p: list, tower: FieldTower) -> list:
    """Monic irreducible factors over Q(i) of a monic square-free polynomial
    with Gaussian-rational coefficients, in the order of sympy's factor_list.

    The roots in Q(i) are split off exactly first; sympy factors only a
    cofactor of degree >= 3, and finds there any root the first pass missed.
    """
    pieces, rest = _strip_gaussian_roots(p, tower)
    if poly_degree(rest) >= 3:
        pieces += _factor_sympy(rest, tower)
    elif poly_degree(rest) >= 1:
        pieces.append(rest)
    return sorted(pieces, key=_sympy_order)


def _sympy_order(f: list):
    """sympy's sort key for square-free factors over QQ<I>: the degree, then
    the coefficients from the top down, each as its ANP representation
    [b, a] for a + b*i ([a] when b = 0, [] for 0)."""
    def rep(c):
        a, b = c._rat_coeff(0, 0), c._rat_coeff(1, 0)
        return [b, a] if b else ([a] if a else [])

    return len(f), [rep(c) for c in reversed(f)]


def _strip_gaussian_roots(p: list, tower: FieldTower):
    """Split the roots in Q(i) off a monic square-free Gaussian polynomial p
    of degree n: (linear factors, cofactor).

    With D the common denominator of the coefficients, g(y) = D^n p(y/D) is
    monic over Z[i], so a root of p in Q(i) is y/D for a Gaussian integer
    root y of g.  Rounded complex approximations of the roots of g propose
    the y; exact division accepts them.  A quadratic cofactor that still
    splits over Q(i) (a root the approximations missed) is split here by its
    closed form, so that its roots are sorted with the others as sympy's are.
    """
    n = poly_degree(p)
    den = 1
    for c in p:
        den = lcm(den, c._rat_coeff(0, 0).denominator,
                  c._rat_coeff(1, 0).denominator)
    try:
        g = [complex(c._rat_coeff(0, 0) * den ** (n - k),
                     c._rat_coeff(1, 0) * den ** (n - k))
             for k, c in enumerate(p)]
        approx = _approx_roots(g)
    except (OverflowError, ZeroDivisionError):
        approx = []
    one = tower.one()
    linear, rest = [], p
    for z in approx:
        # past 2**52 a float no longer tells neighbouring integers apart
        if not (abs(z.real) < 2 ** 52 and abs(z.imag) < 2 ** 52):
            continue
        re, im = Fraction(round(z.real), den), Fraction(round(z.imag), den)
        root = tower.from_rational(re) + tower.from_rational(im) * tower.i()
        quot, rem = poly_divmod(rest, [-root, one], tower)
        if not rem:
            linear.append([-root, one])
            rest = quot
    if poly_degree(rest) == 2:
        b, c = rest[1], rest[0]
        s = tower._sqrt_gaussian(b * b - c * 4)
        if s is not None:
            linear += [[(b - s) / 2, one], [(b + s) / 2, one]]
            rest = [one]
    return linear, rest


def _approx_roots(g: list) -> list:
    """Complex approximations of the roots of a monic polynomial (complex
    coefficients, low degree first) by Weierstrass iteration."""
    n = len(g) - 1
    radius = 2 * max(abs(c) ** (1 / (n - k)) for k, c in enumerate(g[:-1]))
    z = [(radius or 1) * complex(0.4, 0.9) ** k for k in range(n)]
    for _ in range(100):
        moved = 0.0
        for k in range(n):
            value = 0j
            for c in reversed(g):
                value = value * z[k] + c
            den = 1
            for j in range(n):
                if j != k:
                    den *= z[k] - z[j]
            step = value / den
            z[k] -= step
            moved = max(moved, abs(step))
        if moved <= 1e-12 * (1 + max(abs(x) for x in z)):
            break
    return z


def _factor_sympy(p: list, tower: FieldTower) -> list:
    """Factor a polynomial with Gaussian-rational coefficients via sympy."""
    import sympy

    x = sympy.Symbol("x")
    expr = 0
    for k, c in enumerate(p):
        a = c._rat_coeff(0, 0)
        b = c._rat_coeff(1, 0)
        expr += (sympy.Rational(a.numerator, a.denominator)
                 + sympy.I * sympy.Rational(b.numerator, b.denominator)) * x ** k
    poly = sympy.Poly(expr, x, extension=[sympy.I])
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        coeffs = fac.all_coeffs()[::-1]
        converted = []
        for c in coeffs:
            c = sympy.nsimplify(c)
            re, im = c.as_real_imag()
            converted.append(
                tower.from_rational(Fraction(int(re.p), int(re.q)))
                + tower.from_rational(Fraction(int(im.p), int(im.q))) * tower.i()
            )
        # make monic
        inv = converted[-1].inverse()
        converted = [c * inv for c in converted]
        for _ in range(mult):
            out.append(poly_normalize(list(converted)))
    return out


def _split_squarefree(p: list, tower: FieldTower) -> list:
    """Split a monic square-free polynomial into linear/quadratic factors."""
    deg = poly_degree(p)
    if deg <= 1:
        return [p]
    if deg == 2:
        b, c = p[1], p[0]
        disc = b * b - c * 4
        if disc.is_zero():
            root = -b / 2
            lin = [-root, tower.one()]
            return [lin, lin]
        s = tower.sqrt(disc)
        r1 = (-b + s) / 2
        r2 = (-b - s) / 2
        return [[-r1, tower.one()], [-r2, tower.one()]]
    if all(c.is_gaussian() for c in p):
        pieces = _factor_gaussian(p, tower)
        out = []
        for piece in pieces:
            if poly_degree(piece) > 2:
                raise FieldError(
                    "factor-degree-exceeded",
                    f"irreducible factor of degree {poly_degree(piece)}",
                )
            out.extend(_split_squarefree(piece, tower) if poly_degree(piece) == 2 else [piece])
        return out
    raise FieldError(
        "factor-degree-exceeded",
        "cannot split degree > 2 polynomials with non-Gaussian coefficients",
    )


def split_poly(p: list, tower: FieldTower) -> list:
    """Split a monic polynomial into factors of degree <= 2.

    Returns a list of monic factors (as coefficient lists, low degree first)
    whose product is p.  Raises FieldError("factor-degree-exceeded") when an
    irreducible factor of degree > 2 appears over the current tower.
    """
    p = poly_normalize([tower.coerce(c) for c in p])
    if not p:
        raise FieldError("zero-polynomial")
    if not (p[-1] - tower.one()).is_zero():
        raise FieldError("not-monic")
    out = []
    rest = p
    while poly_degree(rest) > 0:
        d = poly_gcd(rest, poly_derivative(rest), tower)
        sqfree, _ = poly_divmod(rest, d, tower)
        for factor in _split_squarefree(sqfree, tower):
            out.append(factor)
            rest, rem = poly_divmod(rest, factor, tower)
            if rem:
                raise FieldError("factor-verification-failed",
                                 "split factor does not divide the polynomial")
    return out
