"""Finite-field point-counting oracle.

This is the independent verification engine: it never consults the exact
rational criteria, only counts points mod p and reconstructs L-polynomials.

For a good prime p (p >= 5, p not dividing 6*Delta of the integral model):

* #C(F_{p^k}) for k = 1, 2 in pure Python (below); when q = 2 mod 3
  cubing is a bijection and the count is q + 1 with no enumeration.
* #E(F_p) for the elliptic quotient y^2 = x^3 + c by quadratic characters.
* `l_polynomial`: the genus-g L-polynomial from N_1..N_g by Newton's
  identities on the power sums s_k = p^k + 1 - N_k.  `prym_order` needs no
  loop: it reads L_E = 1 + e1 T + p T^2 and the Prym quartic
  L_P = 1 - s_1 T + (s_1^2 - s_2)/2 T^2 - p s_1 T^3 + p^2 T^4 off the
  functional equation, and both pass the Weil checks `l_polynomial` makes.
* L_C = L_E * L_P as a product (Jac(C) ~ E x P).  At p = 1 mod 3 the
  s_k(P) come from cubic character sums over F_p, with no extension field
  (see `_character_power_sums`).  At p = 2 mod 3, and at p = 1 mod 3 when
  the character sum d1 vanishes, s_1(P) = 0 and s_2(P) = s_2(C) - s_2(E) is
  read off #E(F_p) and the F_{p^2} count N_2.  L_P(1) = #P(F_p), which every
  rational torsion subgroup divides (reduction is injective on prime-to-p
  torsion, and p >= 5 > 3).  No record needs N_3; the tests count it with
  their own tables (`tests/finitefields.py`), so its L_C is independent.

Counting sums over u = x^2, not x: the affine count is sum_u (1 + psi(u))
n3(g(u)), g(u) = u^2 + a u + b, psi the Legendre symbol of the norm N(u) and
n3(v) the number of cube roots of v.  F_{p^2} = F_p(z) with z^2 = r, the
least non-square, and every table is indexed by F_p: at p = 1 mod 3, v is a
cube iff N(v) is a cube of F_p (Hasse-Davenport); at p = 2 mod 3, F_p^* lies
in the cubes and v is a cube iff its line v0 / v1 is that of some (s + z)^3.
Frobenius maps z to -z, so each conjugate pair of u is summed once.  At
p = 1 mod 3 every sum over F_p (N_1, #E(F_p), the character sums, the F_p
part of N_2) is a few ANDs and popcounts of p-bit ints against cached square
rows of (p, k), g(u) = (u + a/2)^2 + k, and per-prime bitsets
(`_class_counts`).  N_2 costs (p - 1)/2 steps of one AND and one popcount of
p-bit ints: off F_p, whether g(u) is a cube depends on the curve only through
E = 4r + (4b - a^2)/u1^2 and a shift, so the cube test is a per-prime row of
E, cached (`_count_quadratic`).  A count whose rows are all new also builds
its (p - 1)/2 rows, (p + 1)/2 steps each.  A naive double loop over (x, y) is
kept as a second, independent counter for small p.

Everything past the curve's reduction mod p is integer arithmetic.  The
tables that depend on p alone (square-root counts, cube classes, the bitsets
of the nonzero squares and cubes, the F_{p^2} lines and inverses), the cube
rows, which depend on (p, E), and the square rows, which depend on (p, k), are
built on first use, kept as immutable bytes, tuples and ints, and shared by
every curve counted at p: a scan asks for the same few primes on every record.
The table caches hold the last 64 primes, each table O(p) entries.  Whatever
the prime cap, the cube-row cache holds the last 8192 (p, E) entries of one
or three p-bit rows, at most ~4 MB at the default cap of 499, and the
square-row cache the last 4096 (p, k) entries of three p-bit rows, at most
~2 MB.  Every count checks p before it reads a table.

Primes are checked in one place, `_require_good`: p must be an int prime >= 5,
prime to 6*Delta (to 6 num(c) den(c) in `count_points_E`) and at most
PRYMLAB_PRIME_CAP (default 499, read at each call), else BadPrime.  Every
public entry that takes a p checks it.  `prym_order` checks its p once: it
reads E's constant c = 16(a^2 - 4b) off the integral model's integers and
counts E with the kernel `_count_E` that `count_points_E` runs after its own
check, since 6c = 96(a^2 - 4b) divides 6*Delta = 96 b (a^2 - 4b); only its
fallback's `count_points_C` call checks p again.  A prime list is read once, by
`require_good_primes`, into the tuple its callers iterate, each prime checked
in list order before any count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .curves import Curve, EllipticModel, integral_model
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
            _require_good(p, bad, cap, "6*Delta")
            out.append(p)
    return out


def _six_delta(m: Curve) -> int:
    # 6*Delta = 96*b*(a^2 - 4b) of an integral model, in ints
    a, b = m.a.numerator, m.b.numerator
    return 96 * b * (a * a - 4 * b)


def _require_good(p: int, bad: int, cap: int, what: str) -> None:
    """The good-prime rule: BadPrime unless p is an int prime >= 5, does not divide
    bad (named by what) and is at most cap."""
    if not isinstance(p, int) or p < 5 or not is_prime(p):
        raise BadPrime(f"p = {p} is not a usable prime (need a prime >= 5)")
    if bad % p == 0:
        raise BadPrime(f"p = {p} divides {what}")
    if p > cap:
        raise BadPrime(f"p = {p} above enumeration cap {cap}")


def require_good_primes(c: Curve, primes: Iterable[int]) -> Tuple[int, ...]:
    """The primes as a tuple, read once from any iterable; BadPrime for the first
    one, in list order, that repeats an earlier one or is no good prime of c.

    Each prime is checked as it is read, so an endless iterable is refused at
    its first repeat, non-prime or prime above the cap."""
    bad = _six_delta(integral_model(c))
    cap = _prime_cap()
    checked: Dict[int, None] = {}  # insertion-ordered
    for p in primes:
        if p in checked:
            raise BadPrime(f"p = {p} given twice")
        _require_good(p, bad, cap, "6*Delta")
        checked[p] = None
    return tuple(checked)


def count_points_C(c: Curve, p: int, k: int = 1) -> int:
    """#C(F_{p^k}) including the point at infinity; k is 1 or 2.

    Pure Python.  At p = 1 mod 3, N_1 is a few popcounts of p-bit ints
    (`_class_counts`).  N_2 costs (p - 1)/2 steps of an AND and a popcount of
    p-bit ints, plus O(p^2) steps when the cube rows it reads at p are new.  A
    new row costs O(p) steps; the row caches are bounded (~4 MB and ~2 MB at
    the default cap).  `prym_order` needs no N_3: the brute-force N_3 the
    tests check L_C with lives beside them, in `tests/finitefields.py`.
    """
    if k not in (1, 2):
        raise ValueError(f"count_points_C needs k in (1, 2), got {k}")
    m = integral_model(c)
    _require_good(p, _six_delta(m), _prime_cap(), "6*Delta")
    q = p ** k
    if q % 3 == 2:
        return q + 1  # cubing is a bijection: one y per x, plus infinity
    a, b = m.a.numerator % p, m.b.numerator % p
    if k == 2:
        return _count_quadratic(p, a, b) + 1
    n_c = _class_counts(p, a, b)[1]
    return 3 * n_c[0] + n_c[3] + 1  # 3 roots on the nonzero cubes, 1 at 0


def _count_quadratic(p: int, a: int, b: int) -> int:
    """Affine count over F_{p^2} = F_p(z), z^2 = r.

    u = u0 in F_p has N(u) = u0^2, a nonzero square but at u0 = 0.  Off F_p,
    u = u1 (t + z) and its conjugate (u1 -> -u1) each weigh 1 + psi(t + z): 2
    for t in lines, else 0.  With y = 2t + a/u1 and E = 4r + (4b - a^2)/u1^2,
    g(u) = u1^2 w, w = (y^2 + E)/4 + y z, and whether w is a cube reads only
    (p, E, y): so each u1 costs one AND of the per-prime row of E with the line
    set shifted by a/u1, and one popcount.  w = 0 only at E = y = 0.
    """
    r, spread, units, _, _ = _quadratic_tables(p)
    if p % 3 == 2:
        # n3 is 3 on F_p^* and 1 at 0; b != 0 and g has roots[a^2 - 4b] roots in F_p
        total = 3 + 2 * (3 * (p - 1) - 2 * _square_root_counts(p)[(a * a - 4 * b) % p])
    else:
        # v in F_p has norm v^2, and n3[v^2] = n3[v]: u = 0 once, the other u
        # twice; b != 0 at a good p, so n3[b] is 3 on the cubes and 0 off them
        n3b, n_e = 3 * (_cube_classes(p).cls[b] == 0), _class_counts(p, a, b)[0]
        total = n3b + 2 * (3 * n_e[0] + n_e[3] - n3b)
    r4, d, na = 4 * r % p, (4 * b - a * a) % p, -a % p
    cubes = zeros = 0
    for iu, iu2, c in units:
        e = (r4 + d * iu2) % p
        shifted = spread >> (na * iu % p)  # bit y: y - a/u1 = 2t for a t in lines
        cubes += (shifted & _cube_rows(p, e)[c]).bit_count()
        if not e:
            zeros += shifted & 1
    return total + 4 * (3 * cubes + zeros)


def count_points_C_naive(c: Curve, p: int) -> int:
    """Independent brute-force count of #C(F_p): a plain double loop over (x, y)."""
    m = integral_model(c)
    _require_good(p, _six_delta(m), _prime_cap(), "6*Delta")
    a, b = m.a.numerator % p, m.b.numerator % p
    total = 1  # infinity
    for x in range(p):
        x2 = x * x % p
        v = (x2 * x2 + a * x2 + b) % p
        for y in range(p):
            if y * y * y % p == v:
                total += 1
    return total


def count_points_E(e: EllipticModel, p: int) -> int:
    """#E(F_p) for y^2 = x^3 + c, including infinity: p checked against
    6 num(c) den(c), c reduced mod p, then the kernel `_count_E`."""
    num, den = e.c.numerator, e.c.denominator
    _require_good(p, 6 * num * den, _prime_cap(), "6 num(c) den(c) in y^2 = x^3 + c")
    return _count_E(p, num * pow(den, -1, p) % p)


def _count_E(p: int, c: int) -> int:
    """#E(F_p) for y^2 = x^3 + c, c a nonzero residue mod a checked p, by quadratic
    characters: at p = 1 mod 3 one AND and one popcount of the per-prime bitsets
    of the nonzero cubes and the nonzero squares shifted by c."""
    if p % 3 == 2:
        return p + 1  # supersingular: x -> x^3 bijective, pairs cancel
    cls, squares, cubes = _cube_classes(p)
    # x^3 is 0 once and each nonzero cube t three times; t + c is a nonzero
    # square on the bits of cubes & (squares >> c), and 0 at t = -c
    hits = 2 * (cubes & squares >> c).bit_count() + (cls[-c % p] == 0)
    return 1 + _square_root_counts(p)[c] + 3 * hits


# Tables that depend on p alone, built once per prime and shared by every count
# at p.  Each holds O(p) entries and p is at most the prime cap; the caches keep
# the most recent _TABLE_PRIMES primes.
_TABLE_PRIMES = 64


@functools.lru_cache(maxsize=_TABLE_PRIMES)
def _square_root_counts(p: int) -> bytes:
    """Entry v is the number of y in F_p with y^2 = v: 1 at 0, 2 at a nonzero square."""
    roots = bytearray(p)
    roots[0] = 1
    for y in range(1, (p + 1) // 2):
        roots[y * y % p] = 2
    return bytes(roots)


_ROW_DIGITS = tuple(b"0" * c + b"1" + b"0" * (255 - c) for c in range(3))  # byte c -> "1"


def _bits(text: bytes, c: int) -> int:
    """The int whose bit v is set where text, read from v = len - 1 down to 0, holds byte c."""
    return int(text.translate(_ROW_DIGITS[c]), 2)


class _CubeTables(NamedTuple):
    cls: bytes  # cls[v] = i for v in r^i (F_p^*)^3, r the least non-cube; cls[0] = 3 marks v = 0
    squares: int  # X | X << p, X the p-bit set of the nonzero squares: >> s rotates by s
    cubes: int  # the p-bit set of the nonzero cubes


@functools.lru_cache(maxsize=_TABLE_PRIMES)
def _cube_classes(p: int) -> _CubeTables:
    """Cube classes of F_p for p = 1 mod 3; the cubic character skips cls 3."""
    r = 2
    while pow(r, (p - 1) // 3, p) == 1:
        r += 1
    cls = bytearray([2]) * p
    cls[0] = 3
    for z in range(1, p):
        t = z * z * z % p
        cls[t] = 0
        cls[t * r % p] = 1
    cls = bytes(cls)
    squares = _bits(_square_root_counts(p)[::-1], 2)
    return _CubeTables(cls, squares | squares << p, _bits(cls[::-1], 0))


@functools.lru_cache(maxsize=_TABLE_PRIMES)
def _quadratic_tables(p: int) -> Tuple[int, int, Tuple[Tuple[int, int, int], ...],
                                        Tuple[Tuple[int, int], ...], bytes]:
    """(r, spread, units, pairs, classes) for F_{p^2} = F_p(z), z^2 = r, r the least
    non-square: what the count and its cube rows read.

    spread is X | X << p, X the p-bit set of the 2t mod p over the t with
    psi(t + z) = 1, i.e. t^2 - r a nonzero square.  units holds (1/u1, 1/u1^2,
    the row class u1 reads) for 1 <= u1 <= (p-1)/2.  At p = 2 mod 3, F_p^* lies
    in the cubes, every u1 reads row 0, classes[s] = 0 marks the s with s + z a
    cube (read off (s + z)^3), and pairs[y - 1] = (y/4, 1/(4y)).  At
    p = 1 mod 3, u1 reads the row of class -cls(u1), classes is the cube-class
    table of F_p, and pairs[y] = (y^2/4, r y^2).
    """
    roots = _square_root_counts(p)
    r = 2
    while roots[r]:
        r += 1
    half = (p - 1) // 2
    inv = (0,) + tuple(pow(x, -1, p) for x in range(1, p))
    spread = sum(1 << (2 * t % p) for t in range(p) if roots[(t * t - r) % p])
    if p % 3 == 2:
        classes = bytearray([1]) * p
        for s in range(p):
            w1 = (3 * s * s + r) % p
            if w1:
                classes[(s * s + 3 * r) * s * inv[w1] % p] = 0
        units = tuple((inv[u], inv[u] * inv[u] % p, 0) for u in range(1, half + 1))
        pairs = tuple((y * inv[4] % p, inv[4 * y % p]) for y in range(1, half + 1))
    else:
        classes = _cube_classes(p).cls
        units = tuple((inv[u], inv[u] * inv[u] % p, -classes[u] % 3) for u in range(1, half + 1))
        pairs = tuple((y * y * inv[4] % p, r * y * y % p) for y in range(half + 1))
    return r, spread | spread << p, units, pairs, bytes(classes)


# A row is a p-bit int.  The cache holds at most _ROW_SETS (p, E) entries of one
# row (p = 2 mod 3) or three (p = 1 mod 3), whatever the prime cap: full of
# three-row entries near p = 499 it takes ~4 MB (~480 bytes an entry), and every
# row of every p = 2 mod 3 up to 499 (10981 entries) would take ~1.3 MB.
_ROW_SETS = 8192


@functools.lru_cache(maxsize=_ROW_SETS)
def _cube_rows(p: int, e: int) -> Tuple[int, ...]:
    """The rows of E = e: bit y of row c is set when w = (y^2 + e)/4 + y z has
    cube class c, so u1^2 w is a nonzero cube of F_{p^2} exactly on row -cls(u1).

    At p = 2 mod 3 there is one row, of the y where w is a nonzero cube: its line
    (y + e/y)/4 is a cube line, or y = 0 and w = e/4 != 0.  At p = 1 mod 3
    there are three, by the class of N(w) = ((y^2 + e)/4)^2 - r y^2 (none at
    w = 0).  Both tests are even in y, so a row is read off y <= (p-1)/2.
    """
    _, _, _, pairs, classes = _quadratic_tables(p)
    if p % 3 == 2:
        half = bytes([0 if e else 3]) + bytes(classes[(q + e * w) % p] for q, w in pairs)
        return _even_rows(half, 1)
    e4 = e * pow(4, -1, p) % p
    return _even_rows(bytes(classes[((q + e4) ** 2 - ry) % p] for q, ry in pairs), 3)


# The square rows: at most _SQUARE_ROW_SETS (p, k) entries of three p-bit rows
# (p = 1 mod 3), whatever the prime cap; ~0.5 KB an entry near p = 499, so
# ~2 MB when full.
_SQUARE_ROW_SETS = 4096


@functools.lru_cache(maxsize=_SQUARE_ROW_SETS)
def _square_rows(p: int, k: int) -> Tuple[int, ...]:
    """Bit w of row i is set when w^2 + k has cube class i (p = 1 mod 3).

    g(u) = u^2 + a u + b = (u + h)^2 + k with h = a/2 and k = b - h^2, so the
    u where g(u) has class i are row i shifted down by h.
    """
    cls = _cube_classes(p).cls
    return _even_rows(bytes(cls[(w * w + k) % p] for w in range((p + 1) // 2)), 3)


def _even_rows(half: bytes, count: int) -> Tuple[int, ...]:
    """Rows 0..count-1 of a class table even in y, given at y = 0..(p-1)/2."""
    text = half[1:] + half[::-1]  # the classes of y = p - 1 down to 0, high bit first
    return tuple(_bits(text, c) for c in range(count))


def _weil_checked(coeffs: Tuple[int, ...], p: int, genus: int) -> Tuple[int, ...]:
    """coeffs, the L-polynomial c_0..c_2g of a genus-g curve or abelian variety
    at p, once it passes the Weil checks; WeilBoundViolation on
    |c_1| > 2g sqrt(p) or L(+-1) <= 0."""
    c1 = coeffs[1]
    if c1 * c1 > 4 * genus * genus * p:
        raise WeilBoundViolation(f"|c1| = {abs(c1)} exceeds 2g*sqrt(p) at p={p}")
    even, odd = sum(coeffs[0::2]), sum(coeffs[1::2])
    if even + odd <= 0 or even - odd <= 0:  # L(1) and L(-1)
        raise WeilBoundViolation(f"L(+-1) not positive at p={p}: {coeffs}")
    return coeffs


def l_polynomial(counts: Sequence[int], p: int, genus: int) -> LPolynomial:
    """L-polynomial from N_1..N_g; WeilBoundViolation if no zeta function fits.

    The power sums of the reciprocal roots are s_k = p^k + 1 - N_k.  Newton:
    k e_k = sum_{i<=k} (-1)^(i-1) e_{k-i} s_i and c_i = (-1)^i e_i; the
    functional equation c_{2g-i} = p^(g-i) c_i fills the top half.  Raises
    WeilBoundViolation on a non-integral e_k, |c_1| > 2g sqrt(p) or
    L(+-1) <= 0, and ValueError unless genus is an int >= 1, p an int >= 2
    and counts g ints.
    """
    if not isinstance(genus, int) or genus < 1:
        raise ValueError(f"l_polynomial needs an int genus >= 1, got genus = {genus!r}")
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"l_polynomial needs an int p >= 2, got p = {p!r}")
    if len(counts) != genus:
        raise ValueError(f"need N_1..N_{genus}, got {len(counts)} counts")
    if not all(isinstance(n, int) for n in counts):
        raise ValueError(f"l_polynomial needs int counts, got counts = {list(counts)!r}")
    s = [p ** k + 1 - n for k, n in enumerate(counts, 1)]
    low = [1]  # c_0..c_g; with c_i = (-1)^i e_i Newton reads -k c_k = sum c_{k-i} s_i
    for k in range(1, genus + 1):
        k_ck = 0
        for i in range(1, k + 1):
            k_ck -= low[k - i] * s[i - 1]
        if k_ck % k != 0:
            raise WeilBoundViolation(f"non-integral e{k} from power sums {s} at p={p}")
        low.append(k_ck // k)
    coeffs = tuple(low + [p ** (genus - i) * low[i] for i in range(genus - 1, -1, -1)])
    return LPolynomial(p=p, genus=genus, coeffs=_weil_checked(coeffs, p, genus))


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
    Tr(x + y w) = 2x - y.  d1 = 0 leaves d2 open.  The class counts behind
    S_E and S_C are popcounts of the square rows (`_class_counts`).  They
    also give #E(F_p) = p + 1 + Tr(S_E), checked against n_e.
    (Ireland-Rosen, ch. 8 and 10, count y^m = f(x) by such character sums.)
    """
    n_e_cls, n_c = _class_counts(p, a, b)
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


def _class_counts(p: int, a: int, b: int) -> Tuple[List[int], List[int]]:
    """(n_e, n_c) at p = 1 mod 3: n_e[i] counts the u in F_p and n_c[i] the x in
    F_p where g(u), f(x) = g(x^2) have cube class i (3 for zero).

    With h = a/2, the rows of k = b - h^2 give n_e[i] = popcount(row_i); the
    nonzero squares u weigh 2 each and sit on row_i & (squares >> (p - h)),
    and u = 0 adds 1 at the class of g(0) = b.  Class 3 is what the others
    leave of p.
    """
    cls, squares, _ = _cube_classes(p)
    h = a * (p + 1) // 2 % p
    rows = _square_rows(p, (b - h * h) % p)
    shifted = squares >> (p - h)  # bit w: w - h is a nonzero square
    n_e = [row.bit_count() for row in rows]
    n_c = [2 * (row & shifted).bit_count() for row in rows]
    n_c[cls[b]] += 1  # u = 0, where g(0) = b != 0
    n_e.append(p - sum(n_e))
    n_c.append(p - sum(n_c))
    return n_e, n_c


def prym_order(c: Curve, p: int) -> PrymCount:
    """#P(F_p) = L_P(1) from the power sums s_k(P), k = 1, 2, and L_C = L_E * L_P.

    p is checked once, against 6*Delta, and the model reduced once; #E(F_p)
    for E: y^2 = x^3 + 16(a^2 - 4b) is counted from those residues by
    `_count_E`, with no quotient curve built.  At p = 1 mod 3 the s_k(P) come
    from cubic character sums over F_p, read off cached square rows.  At
    p = 2 mod 3, and when that pass finds d1 = 0, s_1(P) = 0 and
    s_2(P) = s_2(C) - s_2(E) is read off #E(F_p) and the F_{p^2} sweep
    N_2 = count_points_C(m, p, 2), the one count of C the fallback makes.

    L_E and L_P are read off the functional equation, with no Newton loop:
    L_E = 1 + e1 T + p T^2, e1 = #E(F_p) - p - 1, and
    L_P = 1 + c1 T + c2 T^2 + p c1 T^3 + p^2 T^4, c1 = -s_1 and
    2 c2 = s_1^2 - s_2.  Both pass `_weil_checked`, and each refusal reads
    as `l_polynomial`'s for the same power sums.
    """
    m = integral_model(c)
    _require_good(p, _six_delta(m), _prime_cap(), "6*Delta")
    a, b = m.a.numerator % p, m.b.numerator % p
    # E: y^2 = x^3 + 16(a^2 - 4b); p is good for E, as 6c | 6*Delta = 6c b
    e1 = _count_E(p, 16 * (a * a - 4 * b) % p) - p - 1  # -s_1(E)
    l_e = LPolynomial(p, 1, _weil_checked((1, e1, p), p, 1))
    s = _character_power_sums(p, a, b, p + 1 + e1) if p % 3 == 1 else None
    if s is None:
        # s_1(P) = 0, so N_1 is not counted: at p = 2 mod 3, N_1 = #E(F_p) =
        # p + 1; at p = 1 mod 3 the pass found d1 = 0, and s_1(P) = -Tr(d1).
        # s_2(P) = s_2(C) - s_2(E), s_2(E) = s_1(E)^2 - 2p: the two roots of
        # L_E multiply to p
        s = [0, p * p + 1 - count_points_C(m, p, 2) - (e1 * e1 - 2 * p)]
    s1, s2 = s
    c2, odd = divmod(s1 * s1 - s2, 2)
    if odd:
        raise WeilBoundViolation(f"non-integral e2 from power sums {s} at p={p}")
    c1 = -s1
    l_p = _weil_checked((1, c1, c2, p * c1, p * p), p, 2)
    c3, c4 = l_p[3:]
    # L_C = (1 + e1 T + p T^2)(1 + c1 T + c2 T^2 + c3 T^3 + c4 T^4)
    l_c = (1, c1 + e1, c2 + e1 * c1 + p, c3 + e1 * c2 + p * c1, c4 + e1 * c3 + p * c2,
           e1 * c4 + p * c3, p * c4)
    order = sum(l_p)
    # Weil interval (sqrt(p)-1)^4 <= order <= (sqrt(p)+1)^4, in exact integers:
    # the bounds are M -+ K sqrt(p) with M = p^2 + 6p + 1, K = 4(p + 1).
    mid = p * p + 6 * p + 1
    spread = 4 * (p + 1)
    if order <= 0 or (order - mid) ** 2 > spread * spread * p:
        raise WeilBoundViolation(f"Prym order {order} outside Weil range at p={p}")
    return PrymCount(p=p, l_c=LPolynomial(p, 3, l_c), l_e=l_e, l_p=l_p, order=order)


def torsion_multiplicative_bound(c: Curve, primes: Iterable[int]) -> int:
    """gcd of #P(F_p) over the given good primes; |P(Q)_tors| divides it."""
    m = integral_model(c)
    checked = require_good_primes(m, primes)
    if not checked:
        raise BadPrime("need at least one good prime")
    return math.gcd(*(prym_order(m, p).order for p in checked))
