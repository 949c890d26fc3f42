import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ, QQ_I

from realcoh import field
from realcoh.field import (
    FieldError,
    FieldTower,
    format_element,
    parse_element,
    split_poly,
)


@pytest.fixture()
def tower():
    return FieldTower()


def poly_mul(p, q):
    """Product of two nonzero polynomials (coefficients low degree first)."""
    out = [p[0].tower.zero()] * (len(p) + len(q) - 1)
    for a, ca in enumerate(p):
        for b, cb in enumerate(q):
            out[a + b] = out[a + b] + ca * cb
    return out


def test_norm_identity(tower):
    one = tower.one()
    i = tower.i()
    assert (one + i) * (one - i) == 2


def test_sqrt2_squares(tower):
    r = tower.sqrt(2)
    assert r * r == 2


def test_rationalization(tower):
    r = tower.sqrt(2)
    assert 1 / r == r / 2


def test_sqrt_perfect_square(tower):
    assert tower.sqrt(4) == 2
    assert tower.sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_sqrt_minus_one_is_i(tower):
    assert tower.sqrt(-1) == tower.i()


def test_sqrt_adjoins_once(tower):
    a = tower.sqrt(2)
    b = tower.sqrt(8)
    assert b == 2 * a
    assert len(tower.gens) == 1


def test_sqrt_product_recognised(tower):
    a = tower.sqrt(2)
    b = tower.sqrt(3)
    c = tower.sqrt(6)
    assert c == a * b
    assert len(tower.gens) == 2


def test_nested_radical(tower):
    # sqrt(3 + 2*sqrt(2)) = 1 + sqrt(2)
    s2 = tower.sqrt(2)
    x = 3 + 2 * s2
    assert tower.sqrt(x) == 1 + s2


def test_unit_modulus_closed_form(tower):
    # (3+4i)/5 has modulus 1
    u = (tower.from_rational(3) + 4 * tower.i()) / 5
    v = tower.sqrt(u)
    assert v * v == u


def test_general_complex_sqrt(tower):
    x = tower.from_rational(1) + tower.i()
    v = tower.sqrt(x)
    assert v * v == x


def test_conj_is_involution(tower):
    x = tower.sqrt(2) + 3 * tower.i() - Fraction(1, 2)
    assert x.conj().conj() == x
    assert (x * x.conj()).is_real()


def test_division_by_zero(tower):
    with pytest.raises(FieldError) as err:
        tower.one() / tower.zero()
    assert err.value.code == "division-by-zero"


def test_other_tower_is_coded_error(tower):
    # elements of two towers never mix: each computation keeps one tower
    other = FieldTower()
    x = other.sqrt(2)
    assert tower.coerce(tower.i()) == tower.i()
    for op in (lambda: tower.coerce(x), lambda: tower.one() + x,
               lambda: tower.sqrt(x)):
        with pytest.raises(FieldError) as err:
            op()
        assert err.value.code == "tower-mismatch"


def test_eq_compares_normal_forms():
    """x == y compares normal forms; over seeded elements of a tower with
    two adjoined square roots, and int and Fraction operands on either
    side, it agrees with the zero test of the difference."""
    tower = FieldTower()
    r2, r3 = tower.sqrt(2), tower.sqrt(3)
    assert len(tower.gens) == 2
    rng = random.Random(27)

    def q():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    pool = [tower.from_rational(q()) + q() * tower.i() + q() * r2
            + q() * r3 * tower.i() + q() * r2 * r3 for _ in range(20)]
    pool += [tower.from_rational(x) for x in (0, 1, -1, Fraction(1, 2))]
    rationals = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    seen = set()
    for _ in range(300):
        x, w = rng.choice(pool), rng.choice(pool)
        same = x * w * w.inverse() if not w.is_zero() else (x + w) - w
        for y in (rng.choice(pool), same, (x + w) - w, rng.choice(rationals)):
            equal = (x - y).is_zero()
            assert (x == y) == equal
            assert (y == x) == equal
            assert (x != y) == (not equal)
            seen.add(equal)
    assert seen == {True, False}
    with pytest.raises(FieldError) as err:
        tower.one() == FieldTower().one()
    assert err.value.code == "tower-mismatch"


def test_pow_takes_no_spare_multiplication(tower, monkeypatch):
    x = tower.from_rational(2) + tower.i()
    powers = [tower.one()]
    for _ in range(5):
        powers.append(powers[-1] * x)
    calls = []
    mul = field.FieldElement.__mul__

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(field.FieldElement, "__mul__", counting)
    for e, expected in ((1, 0), (2, 1), (5, 3)):
        calls.clear()
        assert x ** e == powers[e]
        assert len(calls) == expected, e
    assert x ** 0 == 1


def test_shared_zero_stays_zero(tower):
    """Every zero() is one object, and no arithmetic writes to it."""
    zero = tower.zero()
    assert tower.zero() is zero
    assert tower.from_rational(0) is zero
    rng = random.Random(17)
    r2, r3 = tower.sqrt(2), tower.sqrt(3)
    pool = [tower.one(), tower.i(), r2, r3 * tower.i() - Fraction(1, 3),
            r2 * r3 + Fraction(2, 5), tower.i() * r2 - 7]
    for _ in range(60):
        x = rng.choice(pool) * rng.randint(-3, 3)
        results = [zero + x, x + zero, zero - x, x - zero, zero * x,
                   x * zero, -zero, zero.conj(), zero ** 3, x + zero * x,
                   x - x]
        if not x.is_zero():
            results.append(zero / x)
        assert all(isinstance(y, field.FieldElement) for y in results)
        assert results[0] == x and results[2] == -x and results[4] == 0
        assert zero == 0 and zero._num == {} and zero._den == 1
    assert zero * tower.sqrt(5) is zero


def test_sign_test(tower):
    x = tower.sqrt(2) - Fraction(141421, 100000)
    assert x.is_positive()
    y = tower.sqrt(2) - Fraction(141422, 100000)
    assert not y.is_positive()


def test_rational_sign_without_intervals(tower, monkeypatch):
    # a rational's sign is read off its numerator: no interval is built
    def no_interval(self, prec):
        raise AssertionError("interval arithmetic on a rational")

    monkeypatch.setattr(field.FieldElement, "_real_interval", no_interval)
    big, tiny = Fraction(10 ** 400), Fraction(1, 10 ** 30)
    values = [Fraction(-1), Fraction(4), Fraction(-3, 7), Fraction(5, 2),
              big, -big, big + 1 - big, tiny, -tiny, 1 + tiny - 1,
              Fraction(1, 3) - Fraction(1, 3) - tiny, big * tiny,
              -big / 3 + tiny]
    rng = random.Random(5)
    values += [Fraction(rng.randint(-10 ** 40, 10 ** 40),
                        rng.randint(1, 10 ** 30)) for _ in range(50)]
    for q in values:
        if q:
            assert tower.from_rational(q).is_positive() == (q > 0), q
    assert tower.from_rational(big + tiny) - tower.from_rational(big) \
        == tower.from_rational(tiny)
    assert (tower.from_rational(big + tiny)
            - tower.from_rational(big)).is_positive()
    assert not (tower.from_rational(big - tiny)
                - tower.from_rational(big)).is_positive()


def test_roundtrip_grammar(tower):
    x = tower.sqrt(2) / 3 - 5 * tower.i() * tower.sqrt(7) + Fraction(2, 9)
    assert parse_element(format_element(x), tower) == x


def test_roundtrip_nested(tower):
    x = tower.sqrt(2 + tower.sqrt(3))
    assert parse_element(format_element(x), tower) == x


def test_split_quadratics(tower):
    one = tower.one()
    # x^2 + 1 = (x - i)(x + i)
    factors = split_poly([one, tower.zero(), one], tower)
    roots = {format_element(-f[0]) for f in factors}
    assert roots == {"i", "-i"}
    # x^2 - 2
    factors = split_poly([tower.from_rational(-2), tower.zero(), one], tower)
    s2 = tower.sqrt(2)
    assert {(-f[0] == s2) or (-f[0] == -s2) for f in factors} == {True}


def test_split_cubic_fails(tower):
    one = tower.one()
    with pytest.raises(FieldError) as err:
        split_poly([tower.from_rational(-2), tower.zero(), tower.zero(), one], tower)
    assert err.value.code == "factor-degree-exceeded"


def test_split_reducible_cubic(tower):
    one = tower.one()
    # (x-1)(x^2+1)
    p = poly_mul([-one, one], [one, tower.zero(), one])
    factors = split_poly(p, tower)
    assert len(factors) == 3


def test_split_repeated_roots(tower):
    one = tower.one()
    # (x-1)^2 (x+2)
    p = poly_mul(poly_mul([-one, one], [-one, one]),
                 [tower.from_rational(2), one])
    factors = split_poly(p, tower)
    assert len(factors) == 3
    roots = sorted(f[0].as_rational() * -1 for f in factors)
    assert roots == [-2, 1, 1]


_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def _elements(draw, tower):
    q0 = draw(_rationals)
    q1 = draw(_rationals)
    q2 = draw(_rationals)
    return (
        tower.from_rational(q0)
        + tower.from_rational(q1) * tower.i()
        + tower.from_rational(q2) * tower.sqrt(5)
    )


@st.composite
def _triples(draw):
    tower = FieldTower()
    return tuple(_elements(draw, tower) for _ in range(3)), tower


@given(_triples())
@settings(max_examples=60, deadline=None)
def test_field_axioms(data):
    (x, y, z), tower = data
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == 1
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * x.conj()).imag_part().is_zero()


@given(_triples())
@settings(max_examples=30, deadline=None)
def test_sqrt_squares_back(data):
    (x, _, _), tower = data
    if x.is_zero():
        return
    r = tower.sqrt(x)
    assert r * r == x


def test_monomial_products(tower):
    # single-monomial factors, with and without generators in common
    one, i = tower.one(), tower.i()
    r2, r3 = tower.sqrt(2), tower.sqrt(3)
    monos = [tower.from_rational(c) * x * y * z
             for c in (Fraction(-3, 2), 2) for x in (one, i)
             for y in (one, r2) for z in (one, r3)]
    for a in monos:
        for b in monos:
            p = a * b
            assert len(p.coords) == 1
            assert abs(p.complex_approx() - a.complex_approx()
                       * b.complex_approx()) < 1e-9
    assert (i * r2) * (i * r2) == -2
    assert tower.zero() * r2 == 0 and r2 * tower.zero() == 0


# sparse coefficients, so that sums cancel and operands are often zero
_sparse = st.one_of(st.just(Fraction(0)), _rationals)


@st.composite
def _kernel_pairs(draw):
    """(x, y, Gaussian?) in one tower: Gaussian rationals, or combinations
    of 1, i, sqrt(2), sqrt(3) and their products; y is sometimes x, -x or
    conj(x), so that sums and products cancel."""
    tower = FieldTower()
    gaussian = draw(st.booleans())
    monos = [tower.one(), tower.i()]
    if not gaussian:
        r2, r3 = tower.sqrt(2), tower.sqrt(3)
        monos += [r2, r3, r2 * r3, tower.i() * r2]

    def element():
        return sum((tower.from_rational(draw(_sparse)) * m for m in monos),
                   tower.zero())

    x = element()
    y = draw(st.sampled_from([x, -x, x.conj(), None]))
    if y is None:
        y = element()
    return x, y, gaussian


def _to_qq_i(x):
    a, b = x._rat_coeff(0, 0), x._rat_coeff(1, 0)
    return QQ_I(QQ(a.numerator, a.denominator),
                QQ(b.numerator, b.denominator))


@given(_kernel_pairs())
@settings(max_examples=150, deadline=None)
def test_kernel_arithmetic_normal_form(data):
    x, y, gaussian = data
    assert (x - y).coords == (x + (-y)).coords
    for z in (x + y, x - y, x * y, -x):
        assert all(type(c) is Fraction and c != 0 for c in z.coords.values())
    if gaussian:
        for z, want in ((x * y, _to_qq_i(x) * _to_qq_i(y)),
                        (x + y, _to_qq_i(x) + _to_qq_i(y)),
                        (x - y, _to_qq_i(x) - _to_qq_i(y))):
            assert z.is_gaussian() and _to_qq_i(z) == want
    else:
        want = x.complex_approx() * y.complex_approx()
        assert abs((x * y).complex_approx() - want) <= 1e-9 * max(1, abs(want))


def _format_over_coords(x):
    """The textual form of x, written from the Fraction coefficients of
    the coords view: the reference for format_element."""
    if not x.coords:
        return "0"
    parts = []
    for (ib, mask), c in sorted(x.coords.items()):
        factors = [str(abs(c))] if abs(c) != 1 or (ib, mask) == (0, 0) \
            else []
        if ib:
            factors.append("i")
        factors += [f"sqrt({_format_over_coords(r)})"
                    for k, r in enumerate(x.tower.gens) if mask >> k & 1]
        parts.append(("-" if c < 0 else "+", "*".join(factors) or "1"))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {sign} {text}" for sign, text in parts[1:])


def _assert_integer_normal_form(z):
    assert type(z._den) is int and z._den > 0
    assert all(type(c) is int and c != 0 for c in z._num.values())
    assert gcd(z._den, *z._num.values()) == 1
    assert z._num or z._den == 1


@given(_kernel_pairs())
@settings(max_examples=150, deadline=None)
def test_kernel_integer_normal_form(data):
    x, y, gaussian = data
    results = [x + y, x - y, x * y, -x, x.conj(), x.real_part(),
               x.imag_part()]
    results += [part for k in range(len(x.tower.gens)) for part in x._split(k)]
    results += [w.inverse() for w in (x, y) if not w.is_zero()]
    for z in results:
        _assert_integer_normal_form(z)
        assert format_element(z) == _format_over_coords(z)
    same = [((x + y) - y, x)]
    if not y.is_zero():
        same.append((x * y * y.inverse(), x))
    for u, v in same:
        assert u._key() == v._key() and hash(u) == hash(v)
    if gaussian and not x.is_zero():
        assert x.inverse().is_gaussian()
        assert _to_qq_i(x.inverse()) == QQ_I.revert(_to_qq_i(x))


def test_sqrt_wrong_root_is_coded_error(tower, monkeypatch):
    monkeypatch.setattr(FieldTower, "_sqrt_inner", lambda self, x: self.one())
    with pytest.raises(FieldError) as err:
        tower.sqrt(tower.from_rational(5))
    assert err.value.code == "sqrt-verification-failed"


def test_real_enclosure_of_non_real_is_coded_error(tower):
    with pytest.raises(FieldError) as err:
        (tower.i() + 1)._real_interval(53)
    assert err.value.code == "not-real"


def test_split_poly_wrong_factor_is_coded_error(tower, monkeypatch):
    # x + 1 does not divide x^2 - 4
    monkeypatch.setattr(field, "_split_squarefree",
                        lambda p, tw: [[tw.one(), tw.one()]])
    with pytest.raises(FieldError) as err:
        split_poly([tower.from_rational(-4), tower.zero(), tower.one()],
                   tower)
    assert err.value.code == "factor-verification-failed"


def _gaussian_products(seed, count):
    """Seeded monic products of distinct Gaussian-rational linear factors,
    some times a quadratic irreducible over Q(i); degree 3 to 6."""
    rng = random.Random(seed)
    tower = FieldTower()

    def gauss(a, b):
        return tower.from_rational(a) + tower.from_rational(b) * tower.i()

    def rat():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))

    quadratics = [[gauss(-2, 0), gauss(0, 0), gauss(1, 0)],    # x^2 - 2
                  [gauss(3, 0), gauss(1, 0), gauss(1, 0)],     # x^2 + x + 3
                  [gauss(0, -3), gauss(0, 0), gauss(1, 0)]]    # x^2 - 3i
    out = []
    while len(out) < count:
        quadratic = rng.random() < 0.5
        roots = set()
        while len(roots) < rng.randint(1 if quadratic else 3, 4):
            roots.add((rat(), rat()))
        p = [tower.one()]
        for a, b in sorted(roots):
            p = poly_mul(p, [-gauss(a, b), tower.one()])
        if quadratic:
            p = poly_mul(p, rng.choice(quadratics))
        out.append((p, tower))
    return out


def _same_factors(got, want):
    return [[c.coords for c in f] for f in got] == \
        [[c.coords for c in f] for f in want]


@pytest.mark.parametrize("seed", range(4))
def test_factor_gaussian_matches_sympy(seed):
    for p, tower in _gaussian_products(seed, 10):
        assert _same_factors(field._factor_gaussian(p, tower),
                             field._factor_sympy(p, tower))


def test_factor_gaussian_missed_roots_match_sympy(monkeypatch):
    # approximations that find one root, or none: sympy or the quadratic
    # closed form must still give the same factors in the same order
    approx_roots = field._approx_roots
    for keep in (0, 1):
        monkeypatch.setattr(field, "_approx_roots",
                            lambda g: approx_roots(g)[:keep])
        for p, tower in _gaussian_products(10 + keep, 6):
            assert _same_factors(field._factor_gaussian(p, tower),
                                 field._factor_sympy(p, tower))


def test_factor_gaussian_huge_coefficients(tower):
    # (x - 10^400)(x - i)(x + 1): too large for a float
    one = tower.one()
    p = poly_mul(poly_mul([-tower.from_rational(10 ** 400), one],
                          [-tower.i(), one]), [one, one])
    assert _same_factors(field._factor_gaussian(p, tower),
                         field._factor_sympy(p, tower))
