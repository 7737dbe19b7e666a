"""The bielliptic Picard curve y^3 = x^4 + a x^2 + b and its algebraic transforms.

Conventions.  A curve is the pair (a, b) of rationals with discriminant
Delta = 16*b*(a^2 - 4b) != 0; singular pairs are rejected at construction and
no downstream operation ever sees one.  The j-invariant is (4b - a^2)/(4b),
nonzero and finite exactly because Delta != 0.  A curve is "special" when
a = 0 (extra automorphisms mu_12; plain curves have mu_6).

Transforms implemented here:

* sextic twist by delta != 0:            (a, b) -> (delta*a, delta^2*b);
* bigonal dual:                          (a, b) -> (8a, 16*(a^2 - 4b));
* marked isomorphism (a, b) ~ (l^6 a, l^12 b), tested by sixth/twelfth-power
  extraction (twelfth in the special case);
* integral normal form: the marked-isomorphic integer model in which no prime
  p has p^6 | a and p^12 | b simultaneously.

The two elliptic quotients are y^2 = x^3 + 16(a^2-4b) (tag "E") and
y^2 = x^3 + b (tag "Ehat"); the Prym of the bielliptic cover sits between the
curve's Jacobian and E, which is what the point-counting oracle exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import DegenerateCurve, InternalInconsistency, NotACube
from .factorization import factor_integer, power_primes, valuation
from .polynomials import IntPolynomial
from .rationals import RationalLike, format_rational, is_nth_power, parse_rational


@dataclass(frozen=True)
class Curve:
    """y^3 = x^4 + a x^2 + b with 16*b*(a^2 - 4b) != 0."""

    a: Fraction
    b: Fraction
    _is_model = False  # not a field: set by integral_model on what it returns

    def __str__(self) -> str:
        return f"C({format_rational(self.a)}, {format_rational(self.b)})"


@dataclass(frozen=True)
class EllipticModel:
    """y^2 = x^3 + c, tagged with its role ("E" or "Ehat")."""

    c: Fraction
    role: str


@dataclass(frozen=True)
class Genus2Model:
    """-a*s * y^2 = (x^2 + 2x - 2) * (s^3 x^4 + 4 s^3 x^3 + 2dx - d), d = a^2 - 4s^3.

    s is the rational cube root of b; sextic holds the expanded right-hand
    side, lowest degree first.  When a = 0 the left-hand scale vanishes and
    the model is vacuous; it is still emitted verbatim.
    """

    s: Fraction
    lhs_scale: Fraction
    sextic: Tuple[Fraction, ...]


def new_curve(a: RationalLike, b: RationalLike) -> Curve:
    """Construct a curve, rejecting singular (a, b)."""
    a, b = Fraction(a), Fraction(b)
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    if bn == 0 or an * an * bd == 4 * bn * ad * ad:  # b = 0 or a^2 = 4b
        raise DegenerateCurve(
            f"discriminant vanishes for (a, b) = ({format_rational(a)}, {format_rational(b)})"
        )
    return Curve(a, b)


def discriminant(c: Curve) -> Fraction:
    """Delta = 16*b*(a^2 - 4b)."""
    (an, ad), (bn, bd) = c.a.as_integer_ratio(), c.b.as_integer_ratio()
    return Fraction(16 * bn * (an * an * bd - 4 * bn * ad * ad), (ad * bd) ** 2)


def j_invariant(c: Curve) -> Fraction:
    """j = (4b - a^2)/(4b); never 0 or infinity on a smooth curve."""
    (an, ad), (bn, bd) = c.a.as_integer_ratio(), c.b.as_integer_ratio()
    return Fraction(4 * bn * ad * ad - an * an * bd, 4 * bn * ad * ad)


def is_special(c: Curve) -> bool:
    """True iff a = 0 (automorphism group mu_12 instead of mu_6)."""
    return c.a == 0


def bigonal_dual(c: Curve) -> Curve:
    """The dual curve (a', b') = (8a, 16*(a^2 - 4b)), built unchecked: it is smooth
    since Delta != 0 gives b' != 0 and a'^2 - 4b' = 64a^2 - 64(a^2 - 4b) = 256b != 0."""
    (an, ad), (bn, bd) = c.a.as_integer_ratio(), c.b.as_integer_ratio()
    return Curve(Fraction(8 * an, ad),
                 Fraction(16 * (an * an * bd - 4 * bn * ad * ad), ad * ad * bd))


def sextic_twist(c: Curve, delta: RationalLike) -> Curve:
    """Twist (a, b) -> (delta*a, delta^2*b); delta != 0."""
    delta = Fraction(delta)
    if delta == 0:
        raise ValueError("twist delta must be nonzero")
    return new_curve(delta * c.a, delta * delta * c.b)


def is_isomorphic_marked(c1: Curve, c2: Curve) -> Optional[Fraction]:
    """A scale l with (a2, b2) = (l^6 a1, l^12 b1), or None.

    Special curves compare by a twelfth-power test on b2/b1; otherwise the
    sixth root of a2/a1 is extracted and b2 = (a2/a1)^2 * b1 verified exactly.
    """
    if is_special(c1) != is_special(c2):
        return None
    if is_special(c1):
        return is_nth_power(c2.b / c1.b, 12)
    ratio = c2.a / c1.a
    lam = is_nth_power(ratio, 6)
    if lam is None:
        return None
    if c2.b != ratio * ratio * c1.b:
        return None
    return lam


def is_geometrically_isomorphic(c1: Curve, c2: Curve) -> bool:
    """True iff j-invariants agree (isomorphism over the algebraic closure)."""
    return j_invariant(c1) == j_invariant(c2)


def integral_model(c: Curve) -> Curve:
    """The marked-isomorphic integer model with no prime having p^6 | a and p^12 | b.

    The scale is prod p^-min(v_p(a)//6, v_p(b)//12) (v_p(b)//12 when a = 0):
    only denominator primes, which are factored, and primes with p^12 |
    gcd(num(a)^2, num(b)), found by `power_primes`, can have a nonzero exponent.
    The result is marked (not a field: ==, hash, repr ignore it) and a marked
    curve is returned at once: a model is its own fixed point, and a layer
    handed one does not normalize it again.  An unmarked input, even its own
    model, gets a new marked curve; nothing is stored on the caller's object.
    """
    if c._is_model:
        return c
    primes = set(power_primes(math.gcd(c.a.numerator ** 2, c.b.numerator), 12))
    for q in (c.a.denominator, c.b.denominator):
        if q > 1:
            primes.update(factor_integer(q))
    lam = 1
    for p in primes:
        vb = _valuation_q(c.b, p)
        e = vb // 12 if c.a == 0 else min(_valuation_q(c.a, p) // 6, vb // 12)
        lam /= Fraction(p) ** e
    # smooth, since c is
    out = Curve(c.a, c.b) if lam == 1 else Curve(lam ** 6 * c.a, lam ** 12 * c.b)
    if out.a.denominator != 1 or out.b.denominator != 1:
        raise InternalInconsistency(f"integral model {out} of {c} is not integral")
    object.__setattr__(out, "_is_model", True)
    return out


def _valuation_q(q: Fraction, p: int) -> int:
    # p-adic valuation of a nonzero rational
    return valuation(q.numerator, p) - valuation(q.denominator, p)


def quartic_f(c: Curve) -> IntPolynomial:
    """f = x^4 + a x^2 + b for an integral model."""
    _require_integral(c)
    return IntPolynomial.of([int(c.b), 0, int(c.a), 0, 1])


def quartic_fhat(c: Curve) -> IntPolynomial:
    """fhat = x^4 + 8a x^2 + 16(a^2 - 4b): the quartic of the bigonal dual.

    If f has roots {±alpha, ±beta} then fhat has roots {±2alpha ± 2beta}.
    """
    _require_integral(c)
    return IntPolynomial.of([int(16 * (c.a * c.a - 4 * c.b)), 0, int(8 * c.a), 0, 1])


def _require_integral(c: Curve) -> None:
    if c.a.denominator != 1 or c.b.denominator != 1:
        raise ValueError(f"integral model required, got {c}")


def elliptic_quotients(c: Curve) -> Tuple[EllipticModel, EllipticModel]:
    """(E, Ehat) = (y^2 = x^3 + 16(a^2-4b), y^2 = x^3 + b)."""
    (an, ad), (bn, bd) = c.a.as_integer_ratio(), c.b.as_integer_ratio()
    return (
        EllipticModel(Fraction(16 * (an * an * bd - 4 * bn * ad * ad), ad * ad * bd), "E"),
        EllipticModel(c.b, "Ehat"),
    )


def genus2_model(c: Curve) -> Genus2Model:
    """The genus-2 quotient model, defined whenever b is a rational cube."""
    s = is_nth_power(c.b, 3)
    if s is None:
        raise NotACube(f"b = {format_rational(c.b)} is not a rational cube")
    d = c.a * c.a - 4 * c.b  # = a^2 - 4 s^3
    s3 = c.b
    sextic = (2 * d, -6 * d, 3 * d, 2 * d - 8 * s3, 6 * s3, 6 * s3, s3)
    return Genus2Model(s=s, lhs_scale=-c.a * s, sextic=tuple(Fraction(x) for x in sextic))


def curve_to_dict(c: Curve) -> Dict[str, str]:
    """JSON form {"a": "p/q", "b": "p/q"}."""
    return {"a": format_rational(c.a), "b": format_rational(c.b)}


def curve_from_dict(d: Dict[str, str]) -> Curve:
    """Inverse of curve_to_dict (validates smoothness)."""
    return new_curve(parse_rational(d["a"]), parse_rational(d["b"]))
