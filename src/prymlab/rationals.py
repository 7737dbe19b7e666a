"""Exact rational scalars and nth-power tests.

Rationals are ``fractions.Fraction`` throughout: always in lowest terms with
positive denominator, which is exactly the normal form the rest of the library
assumes.  The wire format (CLI arguments, JSON fields) is base-10 ``"p/q"`` or
``"p"``; no floats appear anywhere.

The nth-power test never factors: a reduced fraction is an nth power iff
numerator and denominator separately are, and those are settled by an integer
nth root found by binary search.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

Rational = Fraction
RationalLike = Union[Fraction, int]


_WIRE_RE = re.compile(r"[+-]?\d+(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (base 10) into an exact rational."""
    body = text.strip()
    m = _WIRE_RE.fullmatch(body)
    if m is None:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    if m.group(1) is not None and int(m.group(1)) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(body)


def format_rational(q: RationalLike) -> str:
    """Render in the wire format "p/q", or "p" when the denominator is 1."""
    return str(Fraction(q))


def integer_nth_root(n: int, k: int) -> int:
    """Floor of the kth root of n >= 0, by binary search (no floats)."""
    if n < 0 or k < 1:
        raise ValueError(f"integer_nth_root needs n >= 0 and k >= 1, got n = {n}, k = {k}")
    if n < 2 or k == 1:
        return n
    hi = 1 << (n.bit_length() // k + 1)   # hi^k > n
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo

def _exact_int_root(n: int, k: int) -> Optional[int]:
    # nonnegative n only; returns r >= 0 with r**k == n, else None
    r = integer_nth_root(n, k)
    return r if r ** k == n else None


def is_nth_power(q: RationalLike, n: int) -> Optional[Fraction]:
    """Return r with r**n == q if one exists in Q, else None.

    For even n the input must be >= 0 and the positive root is returned; for
    odd n the unique real rational root is returned (negative when q < 0).
    """
    assert n >= 1
    q = Fraction(q)
    if n == 1:
        return q
    if q == 0:
        return Fraction(0)
    negative = q < 0
    if negative and n % 2 == 0:
        return None
    num = _exact_int_root(abs(q.numerator), n)
    if num is None:
        return None
    den = _exact_int_root(q.denominator, n)
    if den is None:
        return None
    root = Fraction(num, den)
    return -root if negative else root


def is_square(q: RationalLike) -> bool:
    """True iff q is a square in Q (0 counts)."""
    return is_nth_power(q, 2) is not None
