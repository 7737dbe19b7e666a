"""Assembly of full classification records (the CLI's JSON payloads).

A ClassifyRecord collects everything the library knows about one curve:
invariants, the endomorphism profile, the exact torsion report, the bigonal
dual, and optionally the oracle summary over a set of good primes.  All
rationals are serialized as base-10 strings; integer-valued data (ranks,
orders, L-polynomial coefficients) are plain JSON integers.  No floats.

When the oracle runs, its multiplicative bound feeds back into the torsion
computation, upgrading a three-part lower bound to exact whenever the bound's
3-adic valuation matches the proven rank.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from .curves import (
    Curve,
    bigonal_dual,
    curve_to_dict,
    integral_model,
    is_special,
    j_invariant,
)
from .endomorphisms import (
    SATO_TATE_LABELS,
    EndRing,
    cm_discriminant,
    elkies_t,
    end_ring_from,
    endo_field,
)
from .oracle import good_primes, prym_order, require_good_primes
from .rationals import format_rational
from .torsion import torsion_group, torsion_to_dict

DEFAULT_ORACLE_PRIMES = 5


def endo_profile(c: Curve) -> Dict:
    """The endomorphism profile as a JSON-ready dict.

    Everything is derived from one endo_field and one cm_discriminant call.
    principally_polarizable and ns_rank are null for CM curves (their
    hypotheses fail); the Sato-Tate label depends only on the Galois label.
    """
    field = endo_field(c)
    cm = cm_discriminant(c)
    ring = end_ring_from(field, cm)
    gl2 = field.d == 1
    simple = cm is None
    return {
        "delta": format_rational(field.delta),
        "d": field.d,
        "degree": field.degree,
        "group_label": field.group_label,
        "end_ring": ring.kind,
        "cm_discriminant": cm,
        "gl2_type": gl2,
        "principally_polarizable": ring.kind == "Z_sqrt2" if simple else None,
        "ns_rank": (2 if gl2 else 1) if simple else None,
        "sato_tate": SATO_TATE_LABELS.get(field.group_label),
        "elkies_t": format_rational(elkies_t(j_invariant(c))),
    }


def oracle_summary(c: Curve, primes: Iterable[int]) -> Dict:
    """Per-prime L-data and the gcd bound, as a JSON-ready dict; every prime is
    checked before the first count."""
    m = integral_model(c)
    per_prime: List[Dict] = []
    bound = 0
    for p in require_good_primes(m, primes):
        pc = prym_order(m, p)
        per_prime.append(
            {
                "p": p,
                "l_c": list(pc.l_c.coeffs),
                "l_e": list(pc.l_e.coeffs),
                "prym_order": pc.order,
            }
        )
        bound = math.gcd(bound, pc.order)
    return {"per_prime": per_prime, "gcd": bound}


def classify_record(
    c: Curve,
    with_oracle: bool = False,
    primes: Optional[Iterable[int]] = None,
) -> Dict:
    """Full record for one curve; oracle data included on request.

    Explicit primes imply the oracle; with_oracle alone selects the first
    DEFAULT_ORACLE_PRIMES good primes from 5 upward.  The curve is normalized
    once; the oracle and torsion layers get its integral model, the printed
    invariants and the endomorphism profile the curve as given.  End(P) is
    derived once, by endo_profile, and handed to torsion_group.
    """
    m = integral_model(c)
    summary = None
    bound = None
    if with_oracle or primes is not None:
        summary = oracle_summary(m, good_primes(m, DEFAULT_ORACLE_PRIMES)
                                 if primes is None else primes)
        bound = summary["gcd"]
    endo = endo_profile(c)
    ring = EndRing(endo["end_ring"], endo["cm_discriminant"])
    torsion = torsion_group(m, oracle_bound=bound, ring=ring)
    return {
        "curve": curve_to_dict(c),
        "j": format_rational(j_invariant(c)),
        "delta": endo["delta"],
        "special": is_special(c),
        "endo": endo,
        "torsion": torsion_to_dict(torsion),
        "oracle": summary,
        "dual": curve_to_dict(bigonal_dual(c)),
    }
