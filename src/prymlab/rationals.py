"""Exact rational scalars and nth-power tests.

Public functions return ``fractions.Fraction`` in lowest terms with positive
denominator (an ``int`` is accepted as input); the layers compute on integer
numerators and denominators and build each rational they return once.  The
wire format (CLI arguments, JSON fields) is ``"p/q"`` or ``"p"`` in ASCII
base-10 digits; no floats appear anywhere.

The nth-power test never factors: a reduced fraction is an nth power iff
numerator and denominator separately are, and those are settled by an integer
nth root (``math.isqrt`` for squares, Newton's iteration in integers
otherwise).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[Fraction, int]


_WIRE_RE = re.compile(r"[+-]?(\d+)(?:/(\d+))?", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (base 10, ASCII digits) into an exact rational.

    A numerator or denominator longer than Python's limit for integer string
    conversion (``sys.get_int_max_str_digits()``, leading zeros counted) is
    refused with a message of its own rather than Python's.
    """
    m = _wire_match(text)
    if m.group(2) is not None and int(m.group(2)) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(m.group(0))


def parse_int(text: str) -> int:
    """An integer in the wire format: "p", never "p/q"."""
    if "/" in text:
        raise ValueError(f"not an integer: {text!r}")
    return int(_wire_match(text).group(0))


def _wire_match(text: str) -> re.Match:
    # the match of text, stripped, against _WIRE_RE, within the digit limit
    m = _WIRE_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    digits = max(len(m.group(1)), len(m.group(2) or ""))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, before 3.10.7
    if limit and digits > limit:
        raise ValueError(f"a {digits}-digit number exceeds the {limit}-digit limit")
    return m


def format_rational(q: RationalLike) -> str:
    """Render in the wire format "p/q", or "p" when the denominator is 1.

    A numerator or denominator past Python's limit for integer string
    conversion is refused with a message of its own rather than Python's.
    """
    try:
        return str(q if isinstance(q, Fraction) else Fraction(q))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a number in the result exceeds the {limit}-digit limit") from None


def integer_nth_root(n: int, k: int) -> int:
    """Floor of the kth root of n >= 0, by Newton's iteration in integers.

    The start 2^ceil(bits/k) lies above the root.  From any x above the floor
    r of the root, y = ((k - 1) x + n // x^(k-1)) // k satisfies r <= y < x
    (the arithmetic-geometric mean inequality), so the steps fall to r, and
    the first step that does not fall marks it.  The start overshoots the
    root by at most a factor 2, which each step shrinks by about 1 - 1/k
    until the quadratic convergence of Newton's method takes over: O(k + log
    bits) steps.
    """
    if n < 0 or k < 1:
        raise ValueError(f"integer_nth_root needs n >= 0 and k >= 1, got n = {n}, k = {k}")
    if n < 2 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_nth_power(q: RationalLike, n: int) -> Optional[Fraction]:
    """Return r with r**n == q if one exists in Q, else None.

    For even n the input must be >= 0 and the positive root is returned; for
    odd n the unique real rational root is returned (negative when q < 0).
    """
    if n < 1:
        raise ValueError(f"is_nth_power needs n >= 1, got {n}")
    num, den = q.numerator, q.denominator  # an int has both, den = 1
    if num < 0 and n % 2 == 0:
        return None
    root, den_root = integer_nth_root(abs(num), n), integer_nth_root(den, n)
    if root ** n != abs(num) or den_root ** n != den:
        return None
    return Fraction(-root if num < 0 else root, den_root)


def is_square(q: RationalLike) -> bool:
    """True iff q is a square in Q (0 counts)."""
    return is_nth_power(q, 2) is not None
