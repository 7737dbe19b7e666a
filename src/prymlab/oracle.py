"""Finite-field point-counting oracle.

This is the independent verification engine: it never consults the exact
rational criteria, only counts points mod p and reconstructs L-polynomials.

For a good prime p (p >= 5, p not dividing 6*Delta of the integral model):

* #C(F_{p^k}) for k = 1, 2, 3 by cube-character counting: for each x the
  number of y with y^3 = v is 1 if v = 0, 3 if v is a nonzero cube, else 0 —
  when q = 1 mod 3; when q = 2 mod 3 cubing is a bijection and the count is
  q + 1 with no enumeration at all.
* #E(F_p) for the elliptic quotient y^2 = x^3 + c by quadratic characters.
* L-polynomials from the power sums s_k = q + 1 - N_k by one Newton loop.
* The Prym quartic L_P from its power sums s_1, s_2, and L_C = L_E * L_P as
  a product (Jac(C) ~ E x P).  At p = 1 mod 3 the s_k(P) come from one O(p)
  pass of cubic character sums over F_p, with no extension field (see
  `_character_power_sums`).  At p = 2 mod 3, and at p = 1 mod 3 when the
  character sum d1 vanishes, s_k(P) = s_k(C) - s_k(E) is read off N_1,
  #E(F_p) and the F_{p^2} sweep for N_2.  L_P(1) = #P(F_p), which every
  rational torsion subgroup divides (reduction is injective on prime-to-p
  torsion, and p >= 5 > 3).  The F_{p^3} sweep only serves the tests: its
  N_3 gives an independent L_C.

Extension-field sweeps (k = 2, 3) are vectorized with numpy over coordinate
columns, chunked to bound memory.  They call FiniteField's mul and base-p
digit coding directly on int64 columns, so there is one multiplication
formula; its intermediates stay below 3p^3 + 3p^2 < 2^63 for every
p < 1.4e6.  A naive double loop over (x, y) is kept as a second, independent
counter for small p.

The sweep size is capped: primes above PRYMLAB_PRIME_CAP (default 499) are
refused with BadPrime.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .curves import Curve, EllipticModel, elliptic_quotients, integral_model
from .errors import BadPrime, InternalInconsistency, WeilBoundViolation
from .factorization import is_prime, primes_from
from .finitefields import FiniteField

_CHUNK = 1 << 20


def _prime_cap() -> int:
    return int(os.environ.get("PRYMLAB_PRIME_CAP", "499"))


@dataclass(frozen=True)
class LPolynomial:
    """L(T) = sum c_i T^i, degree 2g, with c_0 = 1 and the functional equation
    c_{2g-i} = p^{g-i} c_i."""

    p: int
    genus: int
    coeffs: Tuple[int, ...]

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class PrymCount:
    """L_C = L_E * L_P at one good prime; order = L_P(1) = #P(F_p)."""

    p: int
    l_c: LPolynomial
    l_e: LPolynomial
    l_p: Tuple[int, ...]
    order: int


def good_primes(c: Curve, count: int) -> List[int]:
    """First `count` primes p >= 5 not dividing 6*Delta (integral model); none if count <= 0."""
    bad = _six_delta(integral_model(c))
    out: List[int] = []
    primes = primes_from(5)
    while len(out) < count:
        p = next(primes)
        if bad % p != 0:
            out.append(p)
    return out


def _reduce_fraction(q: Fraction, p: int) -> int:
    if q.denominator % p == 0:
        raise BadPrime(f"p = {p} divides a denominator")
    return q.numerator * pow(q.denominator, -1, p) % p


def _six_delta(m: Curve) -> int:
    # 6*Delta = 96*b*(a^2 - 4b) of an integral model, in ints
    a, b = int(m.a), int(m.b)
    return 96 * b * (a * a - 4 * b)


def _require_good(m: Curve, p: int) -> None:
    if p < 5 or not is_prime(p):
        raise BadPrime(f"p = {p} is not a usable prime (need a prime >= 5)")
    if _six_delta(m) % p == 0:
        raise BadPrime(f"p = {p} divides 6*Delta")
    if p > _prime_cap():
        raise BadPrime(f"p = {p} above enumeration cap {_prime_cap()}")


def require_good_primes(c: Curve, primes: Sequence[int]) -> None:
    """BadPrime for the first prime in `primes` the oracle cannot use on c."""
    m = integral_model(c)
    for p in primes:
        _require_good(m, p)


def count_points_C(c: Curve, p: int, k: int = 1) -> int:
    """#C(F_{p^k}) including the point at infinity; k is 1, 2 or 3."""
    if k not in (1, 2, 3):
        raise ValueError(f"count_points_C needs k in (1, 2, 3), got {k}")
    m = integral_model(c)
    _require_good(m, p)
    q = p ** k
    if q % 3 == 2:
        return q + 1  # cubing is a bijection: one y per x, plus infinity
    a, b = int(m.a) % p, int(m.b) % p
    if k == 1:
        return _count_prime_field(p, a, b) + 1
    return _count_extension(p, k, a, b) + 1


def _count_prime_field(p: int, a: int, b: int) -> int:
    cubes = bytearray(p)
    for x in range(p):
        cubes[pow(x, 3, p)] = 1
    affine = 0
    for x in range(p):
        x2 = x * x % p
        v = (x2 * x2 + a * x2 + b) % p
        if v == 0:
            affine += 1
        elif cubes[v]:
            affine += 3
    return affine


def _count_extension(p: int, k: int, a: int, b: int) -> int:
    """Affine count over F_{p^k} (q = 1 mod 3 branch), numpy-chunked."""
    field = FiniteField(p, k)
    q = field.q
    # pass 1: mark the image of cubing
    is_cube = np.zeros(q, dtype=bool)
    for lo in range(0, q, _CHUNK):
        x = field.digits(np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64))
        is_cube[field.index(field.mul(field.mul(x, x), x))] = True
    # pass 2: classify f(x) = x^4 + a x^2 + b
    affine = 0
    for lo in range(0, q, _CHUNK):
        x = field.digits(np.arange(lo, min(lo + _CHUNK, q), dtype=np.int64))
        x2 = field.mul(x, x)
        x4 = field.mul(x2, x2)
        f = [(x4[i] + a * x2[i]) % p for i in range(k)]
        f[0] = (f[0] + b) % p
        enc = field.index(f)
        zero = enc == 0
        affine += int(np.count_nonzero(zero))
        affine += 3 * int(np.count_nonzero(is_cube[enc] & ~zero))
    return affine


def count_points_C_naive(c: Curve, p: int) -> int:
    """Independent brute-force count of #C(F_p): a plain double loop over (x, y)."""
    m = integral_model(c)
    _require_good(m, p)
    a, b = int(m.a) % p, int(m.b) % p
    total = 1  # infinity
    for x in range(p):
        x2 = x * x % p
        v = (x2 * x2 + a * x2 + b) % p
        for y in range(p):
            if y * y * y % p == v:
                total += 1
    return total


def count_points_E(e: EllipticModel, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + c, including infinity, by quadratic characters."""
    if p < 5 or not is_prime(p):
        raise BadPrime(f"p = {p} is not a usable prime (need a prime >= 5)")
    c = _reduce_fraction(Fraction(e.c), p)
    if c == 0:
        raise BadPrime(f"p = {p} divides 6c in y^2 = x^3 + c")
    if p % 3 == 2:
        return p + 1  # supersingular: x -> x^3 bijective, pairs cancel
    roots = _square_root_counts(p)
    count = 1  # infinity
    for x in range(p):
        count += roots[(x * x % p * x + c) % p]
    return count


def _square_root_counts(p: int) -> bytearray:
    """Entry v is the number of y in F_p with y^2 = v: 1 at 0, 2 at a nonzero square."""
    roots = bytearray(p)
    roots[0] = 1
    for y in range(1, (p + 1) // 2):
        roots[y * y % p] = 2
    return roots


def _from_power_sums(s: Sequence[int], p: int, genus: int) -> LPolynomial:
    """L-polynomial from the power sums s_1..s_g of its reciprocal roots.

    Newton: k e_k = sum_{i<=k} (-1)^(i-1) e_{k-i} s_i and c_i = (-1)^i e_i; the
    functional equation c_{2g-i} = p^(g-i) c_i fills the top half.  Raises
    WeilBoundViolation on a non-integral e_k, |c_1| > 2g sqrt(p) or L(+-1) <= 0.
    """
    e = [1]
    for k in range(1, genus + 1):
        k_ek = sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1))
        if k_ek % k != 0:
            raise WeilBoundViolation(f"non-integral e{k} from power sums {list(s)} at p={p}")
        e.append(k_ek // k)
    low = [(-1) ** i * e[i] for i in range(genus + 1)]
    coeffs = tuple(low + [p ** (genus - i) * low[i] for i in range(genus - 1, -1, -1)])
    lpoly = LPolynomial(p=p, genus=genus, coeffs=coeffs)
    c1 = coeffs[1]
    if c1 * c1 > 4 * genus * genus * p:
        raise WeilBoundViolation(f"|c1| = {abs(c1)} exceeds 2g*sqrt(p) at p={p}")
    if lpoly(1) <= 0 or lpoly(-1) <= 0:
        raise WeilBoundViolation(f"L(+-1) not positive at p={p}: {coeffs}")
    return lpoly


def l_polynomial(counts: Sequence[int], p: int, genus: int) -> LPolynomial:
    """L-polynomial from N_1..N_g; WeilBoundViolation if no zeta function fits."""
    if len(counts) != genus:
        raise ValueError(f"need N_1..N_{genus}, got {len(counts)} counts")
    return _from_power_sums([p ** k + 1 - n for k, n in enumerate(counts, 1)], p, genus)


def _character_power_sums(p: int, a: int, b: int, n_e: int) -> Optional[List[int]]:
    """[s_1(P), s_2(P)] at p = 1 mod 3 from cubic character sums; None when d1 = 0.

    chi is the cubic character with chi(r) = w for the least non-cube r, w a
    primitive cube root of unity in Z[w]; x + y w is stored as (x, y).  With
    g(u) = u^2 + a u + b, f(x) = g(x^2) and E isomorphic to y^3 = g(u):
    S_E = sum_u chi(g(u)) and S_C = sum_x chi(f(x)) = sum_u #{x: x^2 = u} chi(g(u)).
    The mu_3-action splits Jac(C) ~ E x P, so Frobenius on the chi-part of P
    has trace -d1, d1 = S_C - S_E, and determinant d2; the complex
    conjugates of its eigenvalues are p over them, so conj(d1) = p d1 / d2 and
    d2 = p d1^2 / N(d1).  Then s_1 = -Tr(d1) and s_2 = Tr(d1^2 - 2 d2) with
    Tr(x + y w) = 2x - y.  d1 = 0 leaves d2 open.  The same pass gives
    #E(F_p) = p + 1 + Tr(S_E), checked against n_e.  (Ireland-Rosen, ch. 8
    and 10, count y^m = f(x) by such character sums.)
    """
    # cls[v] = i for v in r^i (F_p^*)^3; 3 marks v = 0, which chi skips
    r = 2
    while pow(r, (p - 1) // 3, p) == 1:
        r += 1
    cls = bytearray([2]) * p
    cls[0] = 3
    for z in range(1, p):
        t = z * z * z % p
        cls[t] = 0
        cls[t * r % p] = 1
    roots = _square_root_counts(p)
    n_c = [0, 0, 0, 0]
    n_e_cls = [0, 0, 0, 0]
    for u in range(p):
        i = cls[(u * (u + a) + b) % p]
        n_c[i] += roots[u]
        n_e_cls[i] += 1
    # S = n_0 + n_1 w + n_2 w^2 = (n_0 - n_2) + (n_1 - n_2) w, since w^2 = -1 - w
    e0, e1 = n_e_cls[0] - n_e_cls[2], n_e_cls[1] - n_e_cls[2]
    if p + 1 + 2 * e0 - e1 != n_e:
        raise InternalInconsistency(
            f"#E(F_p) = {n_e} but the cubic character sum gives {p + 1 + 2 * e0 - e1} at p={p}"
        )
    x, y = n_c[0] - n_c[2] - e0, n_c[1] - n_c[2] - e1  # d1 = x + y w
    if x == y == 0:
        return None
    sq = (x * x - y * y, 2 * x * y - y * y)  # d1^2
    norm = x * x - x * y + y * y
    if (p * sq[0]) % norm or (p * sq[1]) % norm:
        raise WeilBoundViolation(f"p*d1^2 not divisible by N(d1) = {norm} at p={p}")
    d2 = (p * sq[0] // norm, p * sq[1] // norm)
    return [y - 2 * x, 2 * (sq[0] - 2 * d2[0]) - (sq[1] - 2 * d2[1])]


def prym_order(c: Curve, p: int) -> PrymCount:
    """#P(F_p) = L_P(1) from the power sums s_k(P), k = 1, 2, and L_C = L_E * L_P.

    At p = 1 mod 3 the s_k(P) come from one O(p) pass of cubic character sums
    over F_p.  At p = 2 mod 3, and when that pass finds d1 = 0, they are
    s_k(P) = s_k(C) - s_k(E), read off N_1, #E(F_p) and the F_{p^2} sweep
    N_2 = count_points_C(m, p, 2).
    """
    m = integral_model(c)
    _require_good(m, p)
    n_e = count_points_E(elliptic_quotients(m)[0], p)
    l_e = l_polynomial([n_e], p, 1)
    s = _character_power_sums(p, int(m.a) % p, int(m.b) % p, n_e) if p % 3 == 1 else None
    if s is None:
        s_e = -l_e.coeffs[1]
        # s_2(E) = s_E^2 - 2p: the two roots of L_E multiply to p
        s = [p + 1 - count_points_C(m, p, 1) - s_e,
             p * p + 1 - count_points_C(m, p, 2) - (s_e * s_e - 2 * p)]
    l_p = _from_power_sums(s, p, 2).coeffs
    l_c = [0] * 7
    for i, u in enumerate(l_e.coeffs):
        for j, v in enumerate(l_p):
            l_c[i + j] += u * v
    order = sum(l_p)
    # Weil interval (sqrt(p)-1)^4 <= order <= (sqrt(p)+1)^4, in exact integers:
    # the bounds are M -+ K sqrt(p) with M = p^2 + 6p + 1, K = 4(p + 1).
    mid = p * p + 6 * p + 1
    spread = 4 * (p + 1)
    if order <= 0 or (order - mid) ** 2 > spread * spread * p:
        raise WeilBoundViolation(f"Prym order {order} outside Weil range at p={p}")
    return PrymCount(p=p, l_c=LPolynomial(p, 3, tuple(l_c)), l_e=l_e, l_p=l_p, order=order)


def torsion_multiplicative_bound(c: Curve, primes: Sequence[int]) -> int:
    """gcd of #P(F_p) over the given good primes; |P(Q)_tors| divides it."""
    if not primes:
        raise BadPrime("need at least one good prime")
    m = integral_model(c)
    require_good_primes(m, primes)
    return math.gcd(*(prym_order(m, p).order for p in primes))
