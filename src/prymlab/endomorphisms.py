"""Endomorphism structure of the Prym surface.

Everything here is decided by power-class tests on the discriminant
delta = 16*b*(a^2 - 4b) and by exact j-matching against the complete table of
rational CM j-invariants.

Endomorphism field.  All endomorphisms are defined over L = Q(omega, delta^(1/6))
(omega a primitive cube root of unity).  Its Galois group is dihedral of order
2d where d = lcm(d2, d3):

* d2 = 1 iff delta or -3*delta is a rational square (i.e. delta is a square in
  Q(omega)), else 2;
* d3 = 1 iff delta is a rational cube (equivalent to being a cube in Q(omega),
  since the quadratic field cannot split a cubic), else 3.

Real multiplication / GL2-type.  The Prym acquires everything over Q exactly
when d = 1, and d = 1 is the sixth-power case: delta or -27*delta is a
rational sixth power.  Indeed a rational square that is also a cube is a
sixth power; if -3*delta is a square and delta a cube then -27*delta =
9*(-3*delta) = (-3)^3*delta is both, hence a sixth power; and conversely
delta = r^6 or -27*delta = r^6 makes delta a cube and delta or -3*delta a
square.  Since delta != 0, delta and -3*delta cannot both be squares, and the
sign says which one is: delta > 0 gives End = Z[sqrt(2)], delta < 0 gives
End = Z[sqrt(6)]; d > 1 gives End = Z.  GL2-type is precisely d = 1.  The
Z[sqrt(2)] surfaces are principally polarizable, the Z[sqrt(6)] ones are not.

CM.  The finitely many rational CM classes are detected by j or 1/j hitting the
hard-coded table; for those, the trichotomy above is suppressed (its hypotheses
assume geometric simplicity) and operations whose contracts require a non-CM
surface raise CMNotSupported.  Sato-Tate labels are attached to the Galois
label alone: D6 -> "J(E_6)", D3 -> "J(E_3)", nothing is asserted for D1/D2.

Every rule above is stated once, in endo_field, which returns all the claims
for one curve as a frozen EndoFieldDescriptor; the public predicates read it.

The Shimura-curve coordinate t = (j+1)^2 / (4j) and its lifting criterion
(t(t-1) a square or zero) are exposed for cross-checks; every j realized by a
rational curve does lift, since t(t-1) = ((j^2-1)/(4j))^2 identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .curves import Curve, discriminant, j_invariant
from .errors import CMNotSupported
from .rationals import RationalLike, is_nth_power, is_square

# Complete list of rational CM j-invariants with their discriminants.
# j = 0 is excluded by smoothness and never matches.
CM_TABLE = {
    Fraction(1): -4,
    Fraction(-1): -24,
    Fraction(256, 135): -75,
    Fraction(-27): -84,
    Fraction(27, 125): -120,
    Fraction(15625, 729): -228,
    Fraction(-48384, 15625): -147,
    Fraction(-1771561, 421875): -372,
    Fraction(-11390625, 4913): -408,
}

# CM_TABLE keyed by j and by 1/j: no 1/j is another entry's j, and j = 1, -1
# are their own inverses with the same discriminant
_CM_BY_J_OR_INVERSE = {**{1 / j: disc for j, disc in CM_TABLE.items()}, **CM_TABLE}


@dataclass(frozen=True)
class EndRing:
    """End(P) over Q: Z, Z[sqrt(2)], Z[sqrt(6)], or CM with its discriminant."""

    kind: str  # "Z" | "Z_sqrt2" | "Z_sqrt6" | "CM"
    cm_discriminant: Optional[int] = None


@dataclass(frozen=True)
class EndoFieldDescriptor:
    """End(P) of one curve: the splitting data of L = Q(omega, delta^(1/6)) with
    Gal(L/Q) = D_d, j, and every endomorphism claim read off them."""

    delta: Fraction
    d2: int      # 1 or 2
    d3: int      # 1 or 3
    d: int       # lcm(d2, d3) in {1, 2, 3, 6}
    degree: int  # 2*d
    group_label: str  # "D1" | "D2" | "D3" | "D6"
    j: Fraction
    ring: EndRing
    gl2_type: bool                           # d = 1
    principally_polarizable: Optional[bool]  # End = Z[sqrt(2)]; None with CM
    ns_rank: Optional[int]                   # 2 iff d = 1; None with CM
    sato_tate: Optional[str]                 # "J(E_6)" for D6, "J(E_3)" for D3


def endo_field(c: Curve) -> EndoFieldDescriptor:
    """End(P) of the Prym of c, from one delta, one j and one CM lookup."""
    delta = discriminant(c)
    # delta = n/d in lowest terms: n*d has its square class, n*d^2 its cube class
    nd = delta.numerator * delta.denominator
    d2 = 1 if (is_square(nd) or is_square(-3 * nd)) else 2
    d3 = 1 if is_nth_power(nd * delta.denominator, 3) is not None else 3
    d = lcm(d2, d3)
    j = j_invariant(c)
    cm = _CM_BY_J_OR_INVERSE.get(j)
    # CM beats real multiplication; else d = 1 gives Z[sqrt2] or Z[sqrt6] by
    # the sign of delta, and d > 1 gives Z
    if cm is not None:
        ring = EndRing("CM", cm)
    elif d != 1:
        ring = EndRing("Z")
    else:
        ring = EndRing("Z_sqrt2" if delta > 0 else "Z_sqrt6")
    # the NS rank is 1 + dim of the invariants of the reflection representation;
    # over Q the image always holds a reflection, so they are nonzero iff d = 1
    simple = cm is None
    return EndoFieldDescriptor(
        delta=delta, d2=d2, d3=d3, d=d, degree=2 * d, group_label=f"D{d}", j=j, ring=ring,
        gl2_type=d == 1,
        principally_polarizable=ring.kind == "Z_sqrt2" if simple else None,
        ns_rank=(2 if d == 1 else 1) if simple else None,
        sato_tate={6: "J(E_6)", 3: "J(E_3)"}.get(d),
    )


def _without_cm(c: Curve) -> EndoFieldDescriptor:
    # the claims whose hypotheses assume a geometrically simple Prym
    e = endo_field(c)
    if e.ring.cm_discriminant is not None:
        raise CMNotSupported(f"curve has CM (discriminant {e.ring.cm_discriminant})")
    return e


def cm_discriminant(c: Curve) -> Optional[int]:
    """CM discriminant when j or 1/j is in the rational CM table, else None."""
    return endo_field(c).ring.cm_discriminant


def end_ring(c: Curve) -> EndRing:
    """End(P)/Q: CM beats the real-multiplication trichotomy Z[sqrt2]/Z[sqrt6]/Z."""
    return endo_field(c).ring


def is_gl2_type(c: Curve) -> bool:
    """True iff d = 1, i.e. delta or -27*delta is a rational sixth power."""
    return endo_field(c).gl2_type


def is_principally_polarizable(c: Curve) -> bool:
    """For non-CM Pryms: principally polarizable iff End = Z[sqrt(2)]."""
    return _without_cm(c).principally_polarizable


def ns_rank(c: Curve) -> int:
    """Neron-Severi rank of a non-CM Prym: 2 iff d = 1."""
    return _without_cm(c).ns_rank


def sato_tate_label(c: Curve) -> Optional[str]:
    """"J(E_6)" for D6 Galois image, "J(E_3)" for D3; no label otherwise."""
    return endo_field(c).sato_tate


def elkies_t(j: RationalLike) -> Fraction:
    """Shimura-curve coordinate t = (j+1)^2 / (4j) = (n+d)^2 / (4nd) for j = n/d != 0."""
    n, d = j.numerator, j.denominator
    if n == 0:
        raise ValueError("elkies_t needs j != 0")
    return Fraction((n + d) ** 2, 4 * n * d)


def lifts_to_Y(t: RationalLike) -> bool:
    """True iff t(t-1) is a rational square or zero."""
    t = Fraction(t)
    return is_square(t * (t - 1))
