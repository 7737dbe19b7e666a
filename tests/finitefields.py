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
