"""Integer polynomials and exact rational root finding."""

import random
from fractions import Fraction

import pytest

from prymlab.curves import integral_model, new_curve
from prymlab.errors import DegenerateCurve, DegenerateParameters
from prymlab.families import instantiate, list_families
from prymlab.polynomials import (
    IntPolynomial,
    _real_root_brackets,
    biquadratic_roots,
    rational_roots,
)
from prymlab.rationals import is_nth_power


def test_normalization_and_degree():
    p = IntPolynomial.of([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial.of([0]).degree == -1


def test_evaluation():
    p = IntPolynomial.of([-3, 0, 1])  # x^2 - 3
    assert p(Fraction(2)) == 1
    assert p(Fraction(1, 2)) == Fraction(-11, 4)


def test_rational_roots_known():
    # (x - 1)(x + 2)(2x - 3) = 2x^3 + x^2 - 7x ... expand: (x^2 + x - 2)(2x - 3)
    # = 2x^3 - 3x^2 + 2x^2 - 3x - 4x + 6 = 2x^3 - x^2 - 7x + 6
    p = IntPolynomial.of([6, -7, -1, 2])
    assert rational_roots(p) == {Fraction(1), Fraction(-2), Fraction(3, 2)}
    assert rational_roots(IntPolynomial.of([1, 0, 1])) == set()  # x^2 + 1
    assert rational_roots(IntPolynomial.of([-2, 0, 1])) == set()  # x^2 - 2
    assert rational_roots(IntPolynomial.of([0, 0, 1])) == {Fraction(0)}


def test_rational_roots_fuzz_roundtrip():
    rng = random.Random(41)
    for _ in range(120):
        roots = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))
        ]
        coeffs = [1]
        for r in roots:
            # multiply by (q x - p) with r = p/q
            p_, q_ = r.numerator, r.denominator
            new = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += q_ * c
                new[i] += -p_ * c
            coeffs = new
        found = rational_roots(IntPolynomial.of(coeffs))
        assert set(roots) <= found
        poly = IntPolynomial.of(coeffs)
        for r in found:
            assert poly(r) == 0


def test_biquadratic_matches_enumeration():
    rng = random.Random(59)
    for _ in range(400):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        if b == 0:
            continue
        fast = biquadratic_roots(a, b)
        slow = rational_roots(IntPolynomial.of([b, 0, a, 0, 1]))
        assert fast == slow, (a, b)
    # split example and rational (non-integer) coefficients
    assert biquadratic_roots(-5, 4) == {
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
    }
    assert biquadratic_roots(Fraction(-5, 4), Fraction(1, 4)) == {
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(1),
        Fraction(-1),
    }


def _from_roots(lead, roots):
    # lead * prod (x - r) cleared of denominators: prod (q x - p) for r = p/q
    coeffs = [lead]
    for r in roots:
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += r.denominator * c
            new[i] -= r.numerator * c
        coeffs = new
    return IntPolynomial.of(coeffs)


def test_rational_roots_edge_cases():
    F = Fraction
    # negative leading coefficient: -(2x - 3)(x + 5)(x^2 + 1)
    p = IntPolynomial.of([-c for c in (-15, 7, -13, 7, 2)])
    assert p.coeffs[-1] < 0 and rational_roots(p) == {F(3, 2), F(-5)}
    # repeated roots, with and without zero
    assert rational_roots(_from_roots(3, [F(2), F(2), F(2), F(-1, 3)])) == {F(2), F(-1, 3)}
    assert rational_roots(_from_roots(-1, [F(0), F(0), F(5, 2), F(5, 2)])) == {F(0), F(5, 2)}
    # degree 1
    assert rational_roots(IntPolynomial.of([7, -2])) == {F(7, 2)}
    assert rational_roots(IntPolynomial.of([0, 5])) == {F(0)}
    assert rational_roots(IntPolynomial.of([4])) == set()
    # roots next to the root bound of the monic rescaling
    m = 10 ** 30 + 57
    assert rational_roots(IntPolynomial.of([-m, 1])) == {F(m)}
    assert rational_roots(_from_roots(1, [F(m), F(-1)])) == {F(m), F(-1)}
    assert rational_roots(_from_roots(1, [F(-m), F(1), F(1)])) == {F(-m), F(1)}
    assert rational_roots(_from_roots(4, [F(-m, 4), F(3, 4)])) == {F(-m, 4), F(3, 4)}
    # q' = 4y^3 + 39y^2 - 38y + 1 has two roots in (0, 1) and q'(0), q'(1) > 0:
    # without both ends of that unit interval, q looks monotone on (-15, 1]
    assert rational_roots(IntPolynomial.of([4, 1, -19, 13, 1])) == {F(1)}
    assert rational_roots(_from_roots(1, [F(1, 3), F(2, 3)])) == {F(1, 3), F(2, 3)}
    with pytest.raises(ValueError):
        rational_roots(IntPolynomial.of([0]))


def test_rational_roots_lifting_quartic_for_b_a_primorial_cube():
    # b = t^3, t = 2*3*5*...*29: 3t^2 has 78732 divisors, the walk the old
    # root finder took; g_{7,t} has no rational root (C(7, t^3) has two_rank 0)
    t = 6469693230
    g = IntPolynomial.of([-3 * t * t, 4 * 7, -6 * t, 0, 1])
    assert rational_roots(g) == set()
    roots = [Fraction(t), Fraction(-2 * t), Fraction(6), Fraction(-10, 3)]
    assert rational_roots(_from_roots(3, roots)) == set(roots)


def _root_free(rng, degree, bits):
    # a factor of the given degree (0, 2, 3 or 4) with no rational root
    c = rng.getrandbits(bits) + 1
    if degree == 2:
        return IntPolynomial.of([rng.randint(1, 9) * c, 0, rng.randint(1, 9)])  # no real root
    if degree == 3:
        return IntPolynomial.of([-2 * c ** 3, 0, 0, 1])  # its real root is c 2^(1/3)
    if degree == 4:
        return IntPolynomial.of([c, 0, rng.randint(0, c), 0, rng.randint(1, 9)])  # positive
    return IntPolynomial.of([rng.choice([-1, 1]) * rng.randint(1, 2 ** 40)])


def _times(p, q):
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPolynomial.of(out)


def test_rational_roots_finds_exactly_the_planted_roots():
    # degree 1..4, non-monic, coefficients up to ~300 bits, repeated roots and 0
    rng = random.Random(2117)
    for _ in range(400):
        degree = rng.randint(1, 4)
        bits = rng.choice([4, 20, 300 // degree])
        planted = []
        for _ in range(rng.choice([n for n in range(degree + 1) if degree - n != 1])):
            if planted and rng.random() < 0.25:
                planted.append(rng.choice(planted))  # repeated
            elif rng.random() < 0.1:
                planted.append(Fraction(0))
            else:
                planted.append(Fraction(rng.choice([-1, 1]) * rng.getrandbits(bits),
                                        rng.randint(1, 2 ** rng.randint(0, 30))))
        p = _times(_from_roots(1, planted), _root_free(rng, degree - len(planted), bits))
        assert p.degree == degree and rational_roots(p) == set(planted), (p, planted)
    # roots on and next to the root bound 1 + 2 max(...) of the monic rescaling
    for r in (1, 2, 3, 2 ** 64, 2 ** 64 + 1, 10 ** 90 + 7):
        for root in (r, -r):
            assert rational_roots(IntPolynomial.of([-root, 1])) == {root}
            assert rational_roots(_from_roots(1, [Fraction(root)] * 4)) == {root}
            assert rational_roots(_from_roots(5, [Fraction(root, 5)] * 2)) == {Fraction(root, 5)}
        assert rational_roots(IntPolynomial.of([-r * r, 0, 1])) == {r, -r}
        assert rational_roots(IntPolynomial.of([-r ** 4, 0, 0, 0, 1])) == {r, -r}
        assert rational_roots(IntPolynomial.of([-2 * r ** 3, 0, 0, 1])) == set()
    assert rational_roots(IntPolynomial.of([-4, 0, 1])) == {2, -2}


def _cauchy_roots(p):
    # rational_roots as it ran with the Cauchy bound 1 + max|c_i| of the monic
    # rescaling, kept as the reference for the bound
    k = next(i for i, c in enumerate(p.coeffs) if c)
    coeffs, roots = p.coeffs[k:], ({Fraction(0)} if k else set())
    n, lead = len(coeffs) - 1, coeffs[-1]
    q = IntPolynomial(tuple(c * lead ** (n - 1 - i) for i, c in enumerate(coeffs[:-1])) + (1,))
    bound = 1 + max((abs(c) for c in q.coeffs[:-1]), default=0)
    return roots | {Fraction(y, lead) for y in _real_root_brackets(q, bound) if q(y) == 0}


def _lifting_quartic(c):
    # g_{a,t} of the integral model, as two_torsion builds it, when b = t^3
    m = integral_model(c)
    t = is_nth_power(m.b, 3)
    if t is None:
        return None
    a, t = m.a.numerator, t.numerator
    return IntPolynomial.of([-3 * t * t, 4 * a, -6 * t, 0, 1])


def test_lifting_quartics_keep_their_roots_under_the_new_bound():
    # every g_{a,t} of the benchmark's box and of the 16 families at small
    # parameters, against the Cauchy-bound reference
    curves = []
    for a in range(-30, 31):
        for b in range(1, 31):
            try:
                curves.append(new_curve(a, b))
            except DegenerateCurve:
                pass
    small = sorted({Fraction(n, d) for n in range(-4, 5) for d in range(1, 4)})
    rng = random.Random(2118)
    for spec in list_families():
        draws = [[v] for v in small] if len(spec.param_names) == 1 else [
            [rng.choice(small) for _ in spec.param_names] for _ in range(40)]
        for values in draws:
            try:
                curves.append(instantiate(spec.id, dict(zip(spec.param_names, values))))
            except DegenerateParameters:
                pass
    quartics = [g for g in map(_lifting_quartic, curves) if g is not None]
    assert len(quartics) > 300 and sum(bool(rational_roots(g)) for g in quartics) > 90
    assert max(abs(c) for g in quartics for c in g.coeffs).bit_length() > 60
    for g in quartics:
        assert rational_roots(g) == _cauchy_roots(g), g
