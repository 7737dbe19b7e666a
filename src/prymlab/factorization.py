"""Integer factorization and primality.

Pipeline: trial division, then a perfect-power check (r^e is factored as r)
and Brent's variant of Pollard rho on what remains, with a Miller-Rabin
primality check that is deterministic below psi_13 ~ 3.3 * 10^24 (the primes
up to 41 as witnesses, Sorenson-Webster 2017) and also tries 16 bases drawn
from random.Random(n) above it, so a given n always gets the same answer.
Trial division runs over the 25 primes below 100, then over the primes from
101 to 10^6 of an odd-only sieve (~3 MB).  The sieve is built the first time a
loop gets past 97, never at import.  A loop stops at the first p with p^2
(p^k when `power_primes` looks for p^k | n) above what is left, so it gets
past 97 only when the primes below 97 leave 97^2 (97^k) or more: a box curve,
or a denominator of any size whose primes are below 97, never builds it.

Only denominators are factored in full: `curves.integral_model` finds the
numerator primes it needs with `power_primes`, trial division up to the 12th
root of a gcd, once per record.  Residual rho cliffs: a denominator or gcd
cofactor (>= 10^72) that is no perfect power and has two primes above 10^6
(cost ~ the square root of the smaller).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, Iterator, List

from .rationals import integer_nth_root

_SIEVE_LIMIT = 10 ** 6
_small_primes: List[int] = []
# Trial division stops at the first p with p^2 (power_primes: p^k) above what is
# left, so when the primes below 97 leave less than 97^k these finish the job.
_PRIMES_BELOW_100 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                     67, 71, 73, 79, 83, 89, 97)

# Witnesses making Miller-Rabin deterministic below psi_13 (Sorenson-Webster);
# without 41 the bound is psi_12 = 318665857834031151167461, which passes 2..37.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521
_MR_ROUNDS = 16  # seeded random bases from psi_13 on


def _sieve() -> List[int]:
    global _small_primes
    if not _small_primes:
        flags = bytearray([1]) * (_SIEVE_LIMIT // 2)  # flags[j] stands for 2j + 1
        flags[0] = 0
        for i in range(3, math.isqrt(_SIEVE_LIMIT) + 1, 2):
            if flags[i // 2]:  # the odd multiples of i from i^2 lie i flags apart
                flags[i * i // 2 :: i] = bytes(len(range(i * i // 2, _SIEVE_LIMIT // 2, i)))
        _small_primes = [2, *itertools.compress(range(1, _SIEVE_LIMIT, 2), flags)]
    return _small_primes


class _SieveTail:
    """The sieve's primes from 101 on; iterating it builds the sieve."""

    def __iter__(self) -> Iterator[int]:
        primes = iter(_sieve())
        # a list iterator moved to 101: no copy, and no cost per prime as islice has
        primes.__setstate__(len(_PRIMES_BELOW_100))
        return primes


_SIEVE_TAIL = _SieveTail()


def _trial_primes() -> Iterator[int]:
    # the primes below 10^6 in order, at C speed: chain iterates the tail, and
    # so builds the sieve, only when a loop asks for a prime past 97
    return itertools.chain(_PRIMES_BELOW_100, _SIEVE_TAIL)


def is_prime(n: int) -> bool:
    """Miller-Rabin: deterministic below psi_13 ~ 3.3e24, seeded by n above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES
    if n >= _PSI_13:
        rng = random.Random(n)  # deterministic per input, as rho's walk is
        witnesses += tuple(rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS))
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random) -> int:
    # Brent's cycle-finding Pollard rho; returns a nontrivial factor of composite odd n.
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:  # backtrack
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor_integer(n: int) -> Dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: Dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    rng = random.Random(n)  # deterministic per input
    stack = [(n, 1)]  # (cofactor, multiplicity)
    while stack:
        m, k = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + k
            continue
        # m = r^e, e largest: every prime of m exceeds 10^6 > 2^19, so 2^(19e) < m
        for e in range((m.bit_length() - 1) // 19, 1, -1):
            r = integer_nth_root(m, e)
            if r ** e == m:
                stack.append((r, k * e))
                break
        else:
            d = _brent_rho(m, rng)
            stack.append((d, k))
            stack.append((m // d, k))
    return out


def power_primes(n: int, k: int) -> List[int]:
    """The primes p with p^k | n (n nonzero), increasing: trial division stops
    at the first p with p^k above the cofactor left by smaller primes, and only
    a cofactor of ~10^(6k) or more, left past the sieve, goes to factor_integer."""
    if n == 0:
        raise ValueError("power_primes of 0")
    n, out = abs(n), []
    for p in _trial_primes():
        if p ** k > n:
            return out
        e = valuation(n, p)
        n //= p ** e
        if e >= k:
            out.append(p)
    return out + sorted(p for p, e in factor_integer(n).items() if e >= k)


def valuation(n: int, p: int) -> int:
    """Exponent of p in nonzero n."""
    if n == 0 or p < 2:
        raise ValueError(f"valuation({n}, {p}) needs n != 0 and p >= 2")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def primes_from(start: int) -> Iterator[int]:
    """Primes >= start in increasing order."""
    n = max(2, start)
    if n == 2:
        yield 2
        n = 3
    elif n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 2
