"""Small finite fields F_{p^k} for p >= 5 and k in {1, 2, 3}: the tests'
brute-force reference field.

Elements of F_{p^k} are coordinate tuples (c_0, ..., c_{k-1}) relative to the
power basis of a fixed monic irreducible modulus M(z) of degree k.  The
modulus is deterministic: coefficient tuples (c_{k-1}, ..., c_0) are scanned
in base-p counter order and the first irreducible polynomial wins, so repeated
runs on any machine agree.  For degree 2 and 3 irreducibility is just "no
root in F_p".

The oracle's point counter does not use this module: its tables are indexed
by F_p only.  The tests count points here element by element, with the field
axioms, x^(q-1) = 1 and the Frobenius fixed field tested alongside, so the
two counts are independent.

`count_points_C3` is the tests' N_3 = #C(F_{p^3}), which the package does not
count: the third power sum that checks L_C = L_E * L_P.  It reads F_{p^3}
through norms to F_p, with tables of its own, and is itself checked against
the tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from prymlab.factorization import is_prime


def smallest_irreducible(p: int, k: int) -> Tuple[int, ...]:
    """Low coefficients (c_0, ..., c_{k-1}) of the first irreducible monic
    z^k + c_{k-1} z^{k-1} + ... + c_0 in counter order over (c_{k-1},...,c_0)."""
    if k not in (2, 3):
        raise ValueError(f"smallest_irreducible needs k in (2, 3), got {k}")
    for n in range(p ** k):
        coeffs = tuple(n // p ** i % p for i in range(k))  # c_0 varies fastest
        if not _has_root(coeffs, p, k):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _has_root(low_coeffs: Tuple[int, ...], p: int, k: int) -> bool:
    for x in range(p):
        acc = 1  # monic leading term
        for c in reversed(low_coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def count_points_C3(a: int, b: int, p: int) -> int:
    """#C(F_{p^3}) for y^3 = x^4 + a x^2 + b, the point at infinity included;
    a, b are the integers of an integral model and p a prime >= 5 of good
    reduction.

    Sums over u = x^2: the affine count is sum_u (1 + psi(u)) n3(g(u)),
    g(u) = u^2 + a u + b.  In F_{p^3} = F_p(z), z^3 = r with r the least
    non-cube, u has as many square roots as N(u) has in F_p, and g(u) as many
    cube roots as N(g(u)) (v^((q-1)/m) = N(v)^((p-1)/m) for m | p - 1).
    Frobenius sends z to w z, w = r^((p-1)/3), so (u1, u2) runs over one pair
    of each orbit of (u1, u2) -> (w u1, w^2 u2) and the count of a free orbit
    is tripled.  The tables are built here, by plain loops over F_p.
    """
    q = p ** 3
    if p % 3 == 2:
        return q + 1  # cubing is a bijection of F_q: one y per x
    roots = [0] * p  # roots[v]: the y in F_p with y^2 = v
    cube_roots = [0] * p  # cube_roots[v]: the y in F_p with y^3 = v
    for y in range(p):
        roots[y * y % p] += 1
        cube_roots[y * y * y % p] += 1
    r = 2
    while cube_roots[r]:
        r += 1
    w = pow(r, (p - 1) // 3, p)
    reps = [x for x in range(1, p) if x < x * w % p and x < x * w * w % p]
    total = 1  # infinity
    for u1 in [0] + reps:
        for u2 in range(p) if u1 else [0] + reps:
            orbit = 0
            for u0 in range(p):
                # N(u0 + u1 z + u2 z^2) = u0^3 + r u1^3 + r^2 u2^3 - 3 r u0 u1 u2
                norm_u = u0 ** 3 + r * u1 ** 3 + r * r * u2 ** 3 - 3 * r * u0 * u1 * u2
                weight = roots[norm_u % p]
                if weight:
                    # g(u) = v0 + v1 z + v2 z^2, reduced by z^3 = r
                    v0 = (u0 * u0 + 2 * r * u1 * u2 + a * u0 + b) % p
                    v1 = (2 * u0 * u1 + r * u2 * u2 + a * u1) % p
                    v2 = (2 * u0 * u2 + u1 * u1 + a * u2) % p
                    norm_v = v0 ** 3 + r * v1 ** 3 + r * r * v2 ** 3 - 3 * r * v0 * v1 * v2
                    orbit += weight * cube_roots[norm_v % p]
            total += orbit if u1 == u2 == 0 else 3 * orbit
    return total


class FiniteField:
    """F_{p^k} with fixed modulus; provides exact tuple arithmetic."""

    def __init__(self, p: int, k: int):
        if k not in (1, 2, 3):
            raise ValueError(f"FiniteField needs k in (1, 2, 3), got {k}")
        if p < 5 or not is_prime(p):
            raise ValueError(f"FiniteField needs a prime p >= 5, got {p}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus: Tuple[int, ...] = smallest_irreducible(p, k) if k > 1 else ()

    def element(self, *coords: int) -> "FiniteFieldElement":
        if len(coords) != self.k:
            raise ValueError(
                f"F_{self.p}^{self.k} element needs {self.k} coordinates, got {len(coords)}")
        return FiniteFieldElement(self, tuple(c % self.p for c in coords))

    def from_int(self, n: int) -> "FiniteFieldElement":
        """Embed an integer via the prime subfield."""
        return self.element(*([n] + [0] * (self.k - 1)))

    def zero(self) -> "FiniteFieldElement":
        return self.from_int(0)

    def one(self) -> "FiniteFieldElement":
        return self.from_int(1)

    def decode(self, index: int) -> "FiniteFieldElement":
        """Inverse of encode: base-p digits of index are the coordinates."""
        return FiniteFieldElement(self, tuple(index // self.p ** i % self.p for i in range(self.k)))

    def mul(self, x: Tuple[int, ...], y: Tuple[int, ...]) -> Tuple[int, ...]:
        """Product of coordinate tuples, reduced by the modulus."""
        k = self.k
        prod = [0] * (2 * k - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
        for d in range(2 * k - 2, k - 1, -1):
            top = prod.pop()  # z^d = -sum c_i z^(d - k + i) modulo M(z)
            for i, c in enumerate(self.modulus):
                prod[d - k + i] -= top * c
        return tuple(v % self.p for v in prod)


@dataclass(frozen=True)
class FiniteFieldElement:
    """An element of F_{p^k} as coordinates over the fixed modulus."""

    field: FiniteField
    coords: Tuple[int, ...]

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def k(self) -> int:
        return self.field.k

    def encode(self) -> int:
        """Index sum(c_i * p^i) in [0, q)."""
        return sum(c * self.p ** i for i, c in enumerate(self.coords))

    def _check_field(self, other: "FiniteFieldElement") -> None:
        if self.field is not other.field:
            raise ValueError("FiniteFieldElement arithmetic needs both operands in one field")

    def __add__(self, other: "FiniteFieldElement") -> "FiniteFieldElement":
        self._check_field(other)
        p = self.field.p
        return FiniteFieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "FiniteFieldElement") -> "FiniteFieldElement":
        self._check_field(other)
        p = self.field.p
        return FiniteFieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def __mul__(self, other: "FiniteFieldElement") -> "FiniteFieldElement":
        self._check_field(other)
        return FiniteFieldElement(self.field, self.field.mul(self.coords, other.coords))

    def __pow__(self, e: int) -> "FiniteFieldElement":
        if e < 0:
            raise ValueError(f"FiniteFieldElement power needs an exponent >= 0, got {e}")
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteFieldElement)
            and self.field is other.field
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coords))
