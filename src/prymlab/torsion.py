"""Exact rational torsion of the Prym surface.

The torsion group is always of the shape (Z/2)^m x (Z/3)^n and lands in the
short list {1, Z/2, Z/3, Z/6, (Z/2)^2, (Z/3)^2, Z/6 x Z/3}; there is no 4- or
9-torsion, and m = 2 forces n = 0.  The two parts are computed independently:

2-part (exact).  The 2-torsion sits in an exact sequence between the rational
2-torsion of the two elliptic quotients:

* a point below:  16*(a^2 - 4b) is a rational cube  (E side), contributing 1;
* a point above lifts:  b = t^3 for the real cube root t, and the lifting
  quartic g_{a,t}(z) = z^4 - 6t z^2 + 4a z - 3t^2 has a rational root.

Over Q each elliptic 2-group has order at most 2 (omega is irrational), so the
rank is just the sum of the two indicator bits — no Z/4 can occur.

3-part (exact when possible, honest lower bound otherwise).  The rank r of the
prime-above-3 torsion is read off the quartic f = x^4 + a x^2 + b: r = 2 iff f
splits into linear factors, r >= 1 iff f or its dual fhat has a rational root.
The full 3-torsion interleaves with the same computation for the sextic twist
by -27; with twist rank r_twist, the group order's 3-part lies between r and
min(2, r + r_twist).  Exactness holds when r = 2 (nothing above (Z/3)^2), when
r_twist = 0, or when a multiplicative oracle bound pins the 3-adic valuation
to r.  No rational criterion is known for lifting twist points, so the
remaining case is reported as a lower bound rather than resolved.

Real-multiplication module structure.  When End(P) = Z[sqrt(D)], the torsion
is a cyclic module Z[sqrt(D)]/a_p for a prime ideal a_p; the admissible groups
are, for D = 2: {1, Z/2, (Z/3)^2} and for D = 6: {1, Z/2, Z/3} — anything
else trips InternalInconsistency, as do the m = 2 side conditions.  All such
assertions are theorems applied as assembly constraints: they cannot fire on
correct code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Set, Tuple

from .curves import Curve, integral_model
from .endomorphisms import EndRing, end_ring
from .errors import InternalInconsistency
from .factorization import valuation
from .polynomials import IntPolynomial, biquadratic_roots, rational_roots
from .rationals import format_rational, is_nth_power

EXACT = "Exact"
LOWER_BOUND = "LowerBound"

# The classification, one row per shape (m, n) of (Z/2)^m x (Z/3)^n: the
# printed name, the invariant factors (largest first) and the End(P)-module
# label for each real-multiplication ring that can carry the group.  A shape
# missing from the table, or an RM ring missing from its row, is impossible.
CLASSIFICATION = {
    (0, 0): ("trivial", (), {"Z_sqrt2": "trivial", "Z_sqrt6": "trivial"}),
    (1, 0): ("Z/2", (2,), {"Z_sqrt2": "mod_a2", "Z_sqrt6": "mod_a2"}),
    (0, 1): ("Z/3", (3,), {"Z_sqrt6": "mod_a3"}),
    (1, 1): ("Z/6", (6,), {}),
    (2, 0): ("Z/2 x Z/2", (2, 2), {}),
    (0, 2): ("Z/3 x Z/3", (3, 3), {"Z_sqrt2": "mod_a3"}),
    (1, 2): ("Z/6 x Z/3", (6, 3), {}),
}
_RM_KINDS = ("Z_sqrt2", "Z_sqrt6")


class TwoTorsionReport(NamedTuple):
    e_part: bool                      # 16(a^2-4b) is a cube
    ehat_point: Optional[Fraction]    # real cube root t of b, when b is a cube
    lift: bool                        # g_{a,t} has a rational root
    rank: int                         # e_part + lift, in {0, 1, 2}
    witness_root: Optional[Fraction]  # a rational root of g_{a,t}, if lift


class ThreePartReport(NamedTuple):
    r: int        # rank of the prime-above-3 part
    r_twist: int  # same for the -27 sextic twist
    lower: int
    upper: int
    status: str   # EXACT or LOWER_BOUND
    witnesses: Tuple[Fraction, ...]


class TorsionReport(NamedTuple):
    invariant_factors: Tuple[int, ...]
    group_name: str
    status: str
    two: TwoTorsionReport
    three: ThreePartReport
    end_module: Optional[str]  # "trivial" | "mod_a2" | "mod_a3" for RM rings


def two_torsion(c: Curve) -> TwoTorsionReport:
    """Exact rational 2-torsion via the two cube tests and the lifting quartic."""
    m = integral_model(c)
    a, b = m.a.numerator, m.b.numerator
    e_part = is_nth_power(16 * (a * a - 4 * b), 3) is not None
    t = is_nth_power(b, 3)
    lift = False
    witness = None
    if t is not None:
        # g_{a,t}(z) = z^4 - 6t z^2 + 4a z - 3t^2, with integral a and t
        g = IntPolynomial.of([-3 * t.numerator ** 2, 4 * a, -6 * t.numerator, 0, 1])
        roots = rational_roots(g)
        if roots:
            lift = True
            witness = min(roots)  # deterministic pick
    rank = int(e_part) + int(lift)
    return TwoTorsionReport(
        e_part=e_part, ehat_point=t, lift=lift, rank=rank, witness_root=witness
    )


def p_torsion_rank(c: Curve) -> Tuple[int, Set[Fraction]]:
    """Rank of the prime-above-3 torsion with root witnesses.

    2 iff f splits completely; 1 iff f or fhat has a rational root (but f does
    not split); 0 otherwise.  Witnesses are roots for the integral model.
    """
    m = integral_model(c)
    return _rank_from_roots(m.a.numerator, m.b.numerator)


def _rank_from_roots(a: int, b: int) -> Tuple[int, Set[Fraction]]:
    # p_torsion_rank for the integral curve (a, b): the counts of rational
    # roots of f and fhat, hence the rank, are unchanged by (l^6 a, l^12 b)
    f_roots = biquadratic_roots(a, b)
    if len(f_roots) == 4:  # Delta != 0 makes f squarefree, so split <=> 4 roots
        return 2, f_roots
    fhat_roots = biquadratic_roots(8 * a, 16 * (a * a - 4 * b))
    witnesses = f_roots | fhat_roots
    return (1, witnesses) if witnesses else (0, witnesses)


def three_part(c: Curve, oracle_bound: Optional[int] = None) -> ThreePartReport:
    """Full 3-part: rank plus exactness status, optionally oracle-assisted.

    An oracle_bound of 0 (the gcd of no orders) carries no information.
    """
    m = integral_model(c)
    a, b = m.a.numerator, m.b.numerator
    r, wits = _rank_from_roots(a, b)
    r_twist, _ = _rank_from_roots(-27 * a, 729 * b)  # the sextic twist by -27
    upper = min(2, r + r_twist)
    status = LOWER_BOUND
    if r == 2 or r_twist == 0:
        status = EXACT
    if oracle_bound:
        v3 = valuation(oracle_bound, 3)
        if v3 < r:
            raise InternalInconsistency(
                f"oracle 3-part {v3} below proven rank {r} for {c}"
            )
        if v3 == r:
            status = EXACT
    if status == EXACT:
        upper = r
    return ThreePartReport(
        r=r, r_twist=r_twist, lower=r, upper=upper, status=status,
        witnesses=tuple(sorted(wits)),
    )


def torsion_group(
    c: Curve, oracle_bound: Optional[int] = None, ring: Optional[EndRing] = None
) -> TorsionReport:
    """Assemble the full torsion group and check it against the classification.

    `ring` is End(P) when the caller has derived it already; else end_ring(c).
    """
    model = integral_model(c)
    two = two_torsion(model)
    three = three_part(model, oracle_bound)
    m, n = two.rank, three.r
    if oracle_bound:
        v2 = valuation(oracle_bound, 2)
        if v2 < m:
            raise InternalInconsistency(f"oracle 2-part {v2} below proven rank {m} for {c}")
    if m == 2 and (three.r != 0 or three.r_twist != 0):
        # 2-torsion is twist-invariant and (Z/2)^2 x Z/3 is excluded, so a
        # maximal 2-part with any 3-part signal is impossible.
        raise InternalInconsistency(f"(Z/2)^2 with 3-part signal on {c}")
    row = CLASSIFICATION.get((m, n))
    if row is None:
        raise InternalInconsistency(f"group shape ({m}, {n}) off the list on {c}")
    name, factors, modules = row
    if ring is None:
        ring = end_ring(c)
    module = modules.get(ring.kind)
    if module is None and ring.kind in _RM_KINDS:
        raise InternalInconsistency(
            f"torsion ({m}, {n}) impossible for End = {ring.kind} on {c}"
        )
    return TorsionReport(
        invariant_factors=factors,
        group_name=name,
        status=three.status,
        two=two,
        three=three,
        end_module=module,
    )


def end_module_structure(c: Curve) -> Optional[str]:
    """Module label of the torsion over a real-multiplication End(P).

    None when End(P) is not Z[sqrt(2)] or Z[sqrt(6)].
    """
    return torsion_group(c).end_module


def torsion_to_dict(rep: TorsionReport) -> Dict:
    """JSON form of a TorsionReport (rationals as strings)."""
    return {
        "group": rep.group_name,
        "invariant_factors": list(rep.invariant_factors),
        "status": "exact" if rep.status == EXACT else "lower_bound",
        "two_rank": rep.two.rank,
        "three_rank": rep.three.r,
        "witnesses": {
            "two_root": None
            if rep.two.witness_root is None
            else format_rational(rep.two.witness_root),
            "three_roots": [format_rational(w) for w in rep.three.witnesses],
        },
        "end_module": rep.end_module,
    }
