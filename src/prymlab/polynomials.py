"""Dense integer polynomials of low degree and exact rational root finding.

Coefficients are stored lowest degree first.  Everything here serves quartics
(x^4 + a x^2 + b and its dual) and the degree-4 lifting polynomial, so the
representation stays dense.  The root finder factors nothing: it brackets the
real roots of a monic rescaling by exact integer bisection inside Fujiwara's
root bound and checks each candidate by exact evaluation, so its cost grows
with the digits of the coefficients over the degree, not with how many
divisors they have.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Set, Tuple

from .rationals import RationalLike, integer_nth_root, is_nth_power


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coeffs[i] multiplies x^i.  Leading coeff nonzero."""

    coeffs: Tuple[int, ...]

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x: RationalLike) -> RationalLike:
        acc = 0  # an int argument keeps the evaluation in int
        for c in reversed(self.coeffs):  # Horner
            acc = acc * x + c
        return acc


def rational_roots(p: IntPolynomial) -> Set[Fraction]:
    """Exactly the rational roots of nonzero p, each checked by evaluation.

    A vanishing constant term contributes the root 0 and is stripped.  With
    l the leading coefficient of the rest (degree n), the rational roots are
    y/l for the integer roots y of the monic q(y) = l^(n-1) p(y/l), because a
    root u/v in lowest terms has v | l.  Those integer roots are among the
    floors of q's real roots, which lie inside its Fujiwara bound and, by
    Gauss-Lucas, so do the real roots of all of its derivatives.
    """
    if not p.coeffs:
        raise ValueError("zero polynomial")
    k = next(i for i, c in enumerate(p.coeffs) if c)  # p = x^k * (the rest)
    coeffs, roots = p.coeffs[k:], ({Fraction(0)} if k else set())
    n, lead = len(coeffs) - 1, coeffs[-1]
    q = IntPolynomial(tuple(c * lead ** (n - 1 - i) for i, c in enumerate(coeffs[:-1])) + (1,))
    roots.update(Fraction(y, lead) for y in _real_root_brackets(q, _root_bound(q)) if q(y) == 0)
    return roots


def _root_bound(q: IntPolynomial) -> int:
    # Fujiwara: every complex root of the monic q = y^n + c_{n-1} y^(n-1) + ...
    # + c_0 has modulus at most 2 max(|c_{n-i}|^(1/i), |c_0 / 2|^(1/n)), i < n;
    # with integer ceilings of those roots, 1 more is a strict bound
    n = q.degree
    return 1 + 2 * max((_ceil_root((abs(c) + 1) // 2 if i == 0 else abs(c), n - i)
                        for i, c in enumerate(q.coeffs[:-1])), default=0)


def _ceil_root(m: int, k: int) -> int:
    # the least c >= 0 with c^k >= m
    return integer_nth_root(m - 1, k) + 1 if m else 0


def _real_root_brackets(q: IntPolynomial, bound: int) -> List[int]:
    # Sorted integers holding the floor and the ceiling of every real root of
    # q; the real roots of q and of its derivatives lie in (-bound, bound).
    # Between consecutive brackets of q' more than 1 apart, q is strictly
    # monotone, so a sign change there is one root, bisected to a unit
    # interval.  A unit piece may hold two roots of q: keep both of its ends.
    if q.degree < 1:
        return []
    dq = IntPolynomial(tuple(i * c for i, c in enumerate(q.coeffs))[1:])
    ends = sorted({-bound, bound, *_real_root_brackets(dq, bound)})
    out = set()
    for lo, hi in zip(ends, ends[1:]):
        v_lo, v_hi = q(lo), q(hi)
        if v_lo * v_hi < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if q(mid) * v_lo > 0 else (lo, mid)
        if hi - lo == 1 or v_lo * v_hi == 0:
            out.update((lo, hi))
    return sorted(out)


def biquadratic_roots(a: RationalLike, b: RationalLike) -> Set[Fraction]:
    """Rational roots of x^4 + a x^2 + b without divisor enumeration.

    y = e x, e the product of the denominators, makes a and b integers.  Then
    z = x^2 solves z^2 + a z + b = 0, so a^2 - 4b must be a square s^2 and
    z = (-a +- s)/2 a square, which it is not when -a +- s is odd: a few
    integer square roots, cheap at any height; only roots become Fractions.
    """
    e = a.denominator * b.denominator
    if e != 1:
        return {y / e for y in biquadratic_roots((e * e * a).numerator, (e ** 4 * b).numerator)}
    a, b = a.numerator, b.numerator
    s = is_nth_power(a * a - 4 * b, 2)
    if s is None:
        return set()
    roots: Set[Fraction] = set()
    for twice_z in {-a + s.numerator, -a - s.numerator}:
        w = None if twice_z % 2 else is_nth_power(twice_z // 2, 2)
        if w is not None:
            roots.update({w, -w})
    return roots
