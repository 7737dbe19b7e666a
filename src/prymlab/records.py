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
)
from .endomorphisms import EndoFieldDescriptor, elkies_t, endo_field
from .oracle import good_primes, prym_order, require_good_primes
from .rationals import format_rational
from .torsion import torsion_group, torsion_to_dict

DEFAULT_ORACLE_PRIMES = 5


def endo_to_dict(e: EndoFieldDescriptor) -> Dict:
    """JSON form of an End(P) value (rationals as strings)."""
    return {
        "delta": format_rational(e.delta),
        "d": e.d,
        "degree": e.degree,
        "group_label": e.group_label,
        "end_ring": e.ring.kind,
        "cm_discriminant": e.ring.cm_discriminant,
        "gl2_type": e.gl2_type,
        "principally_polarizable": e.principally_polarizable,
        "ns_rank": e.ns_rank,
        "sato_tate": e.sato_tate,
        "elkies_t": format_rational(elkies_t(e.j)),
    }


def endo_profile(c: Curve) -> Dict:
    """The endomorphism profile of c as a JSON-ready dict."""
    return endo_to_dict(endo_field(c))


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
    derived once, by endo_field, and its ring handed to torsion_group.
    """
    m = integral_model(c)
    summary = None
    bound = None
    if with_oracle or primes is not None:
        summary = oracle_summary(m, good_primes(m, DEFAULT_ORACLE_PRIMES)
                                 if primes is None else primes)
        bound = summary["gcd"]
    e = endo_field(c)
    # serialized before the torsion: a huge delta fails fast in format_rational
    endo = endo_to_dict(e)
    torsion = torsion_group(m, oracle_bound=bound, ring=e.ring)
    return {
        "curve": curve_to_dict(c),
        "j": format_rational(e.j),
        "delta": endo["delta"],
        "special": is_special(c),
        "endo": endo,
        "torsion": torsion_to_dict(torsion),
        "oracle": summary,
        "dual": curve_to_dict(bigonal_dual(c)),
    }
