"""Integer polynomials and exact rational root finding."""

import random
from fractions import Fraction

import pytest

from prymlab.polynomials import (
    IntPolynomial,
    biquadratic_roots,
    rational_roots,
)


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
    # roots next to the Cauchy bound 1 + max|c_i| of the monic rescaling
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
