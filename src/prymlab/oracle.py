"""Finite-field point-counting oracle.

This is the independent verification engine: it never consults the exact
rational criteria, only counts points mod p and reconstructs L-polynomials.

For a good prime p (p >= 5, p not dividing 6*Delta of the integral model):

* #C(F_{p^k}) for k = 1, 2, 3 in pure Python with O(p) memory (below); when
  q = 2 mod 3 cubing is a bijection and the count is q + 1 with no enumeration.
* #E(F_p) for the elliptic quotient y^2 = x^3 + c by quadratic characters.
* L-polynomials from the power sums s_k = q + 1 - N_k by one Newton loop.
* The Prym quartic L_P from its power sums s_1, s_2, and L_C = L_E * L_P as
  a product (Jac(C) ~ E x P).  At p = 1 mod 3 the s_k(P) come from one O(p)
  pass of cubic character sums over F_p, with no extension field (see
  `_character_power_sums`).  At p = 2 mod 3, and at p = 1 mod 3 when the
  character sum d1 vanishes, s_k(P) = s_k(C) - s_k(E) is read off N_1,
  #E(F_p) and the F_{p^2} count N_2.  L_P(1) = #P(F_p), which every
  rational torsion subgroup divides (reduction is injective on prime-to-p
  torsion, and p >= 5 > 3).  N_3 only serves the tests: its L_C is independent.

Counting sums over u = x^2, not x: the affine count is sum_u (1 + psi(u))
n3(g(u)), g(u) = u^2 + a u + b, psi the Legendre symbol of the norm N(u) and
n3(v) the number of cube roots of v.  F_q = F_p(z) with z^k = r, the least
non-square (k = 2) or non-cube (k = 3), and every table is indexed by F_p: at
p = 1 mod 3, v is a cube iff N(v) is a cube of F_p (Hasse-Davenport); at
p = 2 mod 3 (k = 2 only), F_p^* lies in the cubes and v is a cube iff its line
v0 / v1 is that of some (s + z)^3.  Frobenius multiplies z by a root of
unity, so each Frobenius orbit of u is summed once.  N_2 costs O(p^2) and
N_3 O(p^3) steps.  A naive double loop over (x, y) is kept as a second,
independent counter for small p.

Counting is capped: primes above PRYMLAB_PRIME_CAP (default 499) are
refused with BadPrime.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .curves import Curve, EllipticModel, elliptic_quotients, integral_model
from .errors import BadPrime, InternalInconsistency, WeilBoundViolation
from .factorization import is_prime, primes_from


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
    """First `count` primes p >= 5 not dividing 6*Delta (integral model); none if
    count <= 0.  BadPrime at the first good prime above the cap, as soon as the
    enumeration reaches it."""
    bad = _six_delta(integral_model(c))
    cap = _prime_cap()
    out: List[int] = []
    primes = primes_from(5)
    while len(out) < count:
        p = next(primes)
        if bad % p != 0:
            _check_cap(p, cap)
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
    _check_cap(p, _prime_cap())


def _check_cap(p: int, cap: int) -> None:
    if p > cap:
        raise BadPrime(f"p = {p} above enumeration cap {cap}")


def require_good_primes(c: Curve, primes: Sequence[int]) -> None:
    """BadPrime for the first prime in `primes` the oracle cannot use on c or
    that repeats an earlier one."""
    m = integral_model(c)
    seen = set()
    for p in primes:
        if p in seen:
            raise BadPrime(f"p = {p} given twice")
        _require_good(m, p)
        seen.add(p)


def count_points_C(c: Curve, p: int, k: int = 1) -> int:
    """#C(F_{p^k}) including the point at infinity; k is 1, 2 or 3.

    Pure Python with O(p) memory: N_1 costs O(p) steps, N_2 O(p^2), N_3 O(p^3).
    """
    if k not in (1, 2, 3):
        raise ValueError(f"count_points_C needs k in (1, 2, 3), got {k}")
    m = integral_model(c)
    _require_good(m, p)
    q = p ** k
    if q % 3 == 2:
        return q + 1  # cubing is a bijection: one y per x, plus infinity
    a, b = int(m.a) % p, int(m.b) % p
    roots = _square_root_counts(p)
    if p % 3 == 2:  # so k = 2
        return _count_quadratic(p, a, b, roots, None) + 1
    r, cls = _cube_classes(p)
    n3 = bytes((3, 0, 0, 1)[i] for i in cls)  # v in F_q has n3[N(v)] cube roots
    if k == 1:
        return sum(roots[u] * n3[(u * (u + a) + b) % p] for u in range(p)) + 1
    if k == 2:
        return _count_quadratic(p, a, b, roots, n3) + 1
    return _count_cubic(p, a, b, roots, r, n3) + 1


def _count_quadratic(p: int, a: int, b: int, roots: bytearray, n3: Optional[bytes]) -> int:
    """Affine count over F_{p^2} = F_p(z), z^2 = r; n3 is None at p = 2 mod 3."""
    r = 2
    while roots[r]:
        r += 1
    split = n3 is not None
    if not split:
        # F_p^* lies in the cubes; line[s] = 3 when s + z is a cube, from (s + z)^3
        n3 = bytes([1]) + bytes([3]) * (p - 1)
        inv = [0] + [pow(x, -1, p) for x in range(1, p)]
        line = bytearray(p)
        for s in range(p):
            w1 = (3 * s * s + r) % p
            if w1:
                line[(s * s + 3 * r) * s * inv[w1] % p] = 3
    # u = u0 in F_p has N(u) = u0^2; off F_p, u = u1 (t + z) and its conjugate
    # (u1 -> -u1) each weigh 1 + psi(t + z): 2 for t in lines, else 0
    total = sum(roots[u * u % p] * n3[(u * (u + a) + b) ** 2 % p] for u in range(p))
    lines = [t for t in range(p) if roots[(t * t - r) % p]]
    half = 0
    for u1 in range(1, (p + 1) // 2):
        c = r * u1 * u1 + b
        for t in lines:
            u0 = t * u1
            v0 = (u0 * (u0 + a) + c) % p
            v1 = u1 * (2 * u0 + a) % p
            if split:
                half += n3[(v0 * v0 - r * v1 * v1) % p]
            elif v1:
                half += line[v0 * inv[v1] % p]
            else:
                half += n3[v0]
    return total + 4 * half


def _count_cubic(p: int, a: int, b: int, roots: bytearray, r: int, n3: bytes) -> int:
    """Affine count over F_{p^3} = F_p(z), z^3 = r (p = 1 mod 3)."""
    w = pow(r, (p - 1) // 3, p)  # Frobenius: z -> w z, so (u1, u2) -> (w u1, w^2 u2)
    reps = [x for x in range(1, p) if x < x * w % p and x < x * w * w % p]
    total = 0
    for u1 in [0] + reps:
        for u2 in range(p) if u1 else [0] + reps:
            # N(u) = u0^3 - m u0 + n, and g(u) = v0 + v1 z + v2 z^2
            m, n = 3 * r * u1 * u2, r * u1 ** 3 + r * r * u2 ** 3
            c0, c1, c2 = 2 * r * u1 * u2 + b, a * u1 + r * u2 * u2, u1 * u1 + a * u2
            orbit = 0
            for u0 in range(p):
                weight = roots[(u0 * (u0 * u0 - m) + n) % p]
                if weight:
                    v0 = (u0 * (u0 + a) + c0) % p
                    v1 = (2 * u0 * u1 + c1) % p
                    v2 = (2 * u0 * u2 + c2) % p
                    norm = v0 * (v0 * v0 - 3 * r * v1 * v2) + r * v1 ** 3 + r * r * v2 ** 3
                    orbit += weight * n3[norm % p]
            total += orbit if u1 == u2 == 0 else 3 * orbit
    return total


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


def _cube_classes(p: int) -> Tuple[int, bytearray]:
    """The least non-cube r mod p (p = 1 mod 3), and cls[v] = i for v in r^i (F_p^*)^3.

    cls[0] = 3 marks v = 0, which the cubic character skips."""
    r = 2
    while pow(r, (p - 1) // 3, p) == 1:
        r += 1
    cls = bytearray([2]) * p
    cls[0] = 3
    for z in range(1, p):
        t = z * z * z % p
        cls[t] = 0
        cls[t * r % p] = 1
    return r, cls


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
    cls = _cube_classes(p)[1]
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
