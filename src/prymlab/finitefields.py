"""Small finite fields F_{p^k} for p >= 5 and k in {1, 2, 3}.

Elements of F_{p^k} are coordinate tuples (c_0, ..., c_{k-1}) relative to the
power basis of a fixed monic irreducible modulus M(z) of degree k.  The
modulus is deterministic: coefficient tuples (c_{k-1}, ..., c_0) are scanned
in base-p counter order and the first irreducible polynomial wins, so repeated
runs on any machine agree.  For degree 2 and 3 irreducibility is just "no
root in F_p".

There is one multiplication formula.  mul, digits and index use only +, *, %
and //, so the oracle runs them unchanged on int64 numpy columns as well as on
Python ints.  With reduced inputs every intermediate of mul stays below
3p^3 + 3p^2 (the k = 3 case), which is under 2^63 for p < 1.4e6 -- far beyond
any field whose sweep fits in memory.  The field axioms, x^(q-1) = 1 and the
Frobenius fixed field are tested on the scalar path; the sweep is compared
with brute-force counts in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .factorization import is_prime


def smallest_irreducible(p: int, k: int) -> Tuple[int, ...]:
    """Low coefficients (c_0, ..., c_{k-1}) of the first irreducible monic
    z^k + c_{k-1} z^{k-1} + ... + c_0 in counter order over (c_{k-1},...,c_0)."""
    if k not in (2, 3):
        raise ValueError(f"smallest_irreducible needs k in (2, 3), got {k}")
    for n in range(p ** k):
        digits = []
        rest = n
        for _ in range(k):
            digits.append(rest % p)
            rest //= p
        # digits[0] = c_0 varies fastest; coeffs ascending = digits
        coeffs = tuple(digits)
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
        if k == 1:
            self.modulus: Tuple[int, ...] = ()
        else:
            self.modulus = smallest_irreducible(p, k)
        # reduction rows: coordinates of z^k (and z^{k+1} for cubic fields)
        if k == 2:
            c0, c1 = self.modulus
            self.red2 = ((-c0) % p, (-c1) % p)
        elif k == 3:
            c0, c1, c2 = self.modulus
            r3 = ((-c0) % p, (-c1) % p, (-c2) % p)
            r4 = (
                r3[2] * r3[0] % p,
                (r3[0] + r3[2] * r3[1]) % p,
                (r3[1] + r3[2] * r3[2]) % p,
            )
            self.red3, self.red4 = r3, r4

    def element(self, *coords: int) -> "FiniteFieldElement":
        cs = tuple(c % self.p for c in coords)
        assert len(cs) == self.k
        return FiniteFieldElement(self, cs)

    def from_int(self, n: int) -> "FiniteFieldElement":
        """Embed an integer via the prime subfield."""
        return self.element(*([n] + [0] * (self.k - 1)))

    def zero(self) -> "FiniteFieldElement":
        return self.from_int(0)

    def one(self) -> "FiniteFieldElement":
        return self.from_int(1)

    def decode(self, index: int) -> "FiniteFieldElement":
        """Inverse of encode: base-p digits of index are the coordinates."""
        return FiniteFieldElement(self, self.digits(index))

    def digits(self, index):
        """Coordinates (c_0, ..., c_{k-1}) of an index: its base-p digits."""
        coords = []
        for _ in range(self.k):
            coords.append(index % self.p)
            index = index // self.p  # not //=, which would overwrite an array argument
        return tuple(coords)

    def index(self, coords):
        """Inverse of digits: sum(c_i * p^i) in [0, q)."""
        idx = 0
        for c in reversed(coords):
            idx = idx * self.p + c
        return idx

    def mul(self, x: Tuple[int, ...], y: Tuple[int, ...]) -> Tuple[int, ...]:
        """Product of coordinate tuples, reduced by the modulus."""
        p = self.p
        if self.k == 1:
            return (x[0] * y[0] % p,)
        if self.k == 2:
            a0, a1 = x
            b0, b1 = y
            d2 = a1 * b1
            r0, r1 = self.red2
            return ((a0 * b0 + d2 * r0) % p, (a0 * b1 + a1 * b0 + d2 * r1) % p)
        a0, a1, a2 = x
        b0, b1, b2 = y
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a0 * b2 + a1 * b1 + a2 * b0
        d3 = a1 * b2 + a2 * b1
        d4 = a2 * b2
        r3, r4 = self.red3, self.red4
        return (
            (d0 + d3 * r3[0] + d4 * r4[0]) % p,
            (d1 + d3 * r3[1] + d4 * r4[1]) % p,
            (d2 + d3 * r3[2] + d4 * r4[2]) % p,
        )


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
        return self.field.index(self.coords)

    def __add__(self, other: "FiniteFieldElement") -> "FiniteFieldElement":
        assert self.field is other.field
        p = self.field.p
        return FiniteFieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "FiniteFieldElement") -> "FiniteFieldElement":
        assert self.field is other.field
        p = self.field.p
        return FiniteFieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def __mul__(self, other: "FiniteFieldElement") -> "FiniteFieldElement":
        assert self.field is other.field
        return FiniteFieldElement(self.field, self.field.mul(self.coords, other.coords))

    def __pow__(self, e: int) -> "FiniteFieldElement":
        assert e >= 0
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
