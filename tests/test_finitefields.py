"""The brute-force reference fields F_{p^k} the oracle tests count in."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from finitefields import FiniteField, smallest_irreducible

_HERE = Path(__file__).resolve().parent


def _run_optimized(code):
    """Stdout of `code` under python -O, with src/ and this directory (which
    holds the reference field module) on the path."""
    path = os.pathsep.join(filter(None, [str(_HERE.parent / "src"), str(_HERE),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_smallest_irreducible_known():
    # over F_5, -1 is a square so z^2+1 splits; z^2+2 is the first irreducible
    assert smallest_irreducible(5, 2) == (2, 0)
    # over F_7, -1 is not a square
    assert smallest_irreducible(7, 2) == (1, 0)
    # cubing is a bijection mod 5, so every z^3 + c has a root; z^3+z+1 is first
    assert smallest_irreducible(5, 3) == (1, 1, 0)


def test_field_argument_checks_under_O():
    # ValueError, not assert: under python -O FiniteField(4, 2) built a 16-element
    # "field" and FiniteField(7, 4) an object with no reduction rows
    for call, match in ((lambda: FiniteField(4, 2), "prime p >= 5, got 4"),
                        (lambda: FiniteField(7, 4), "k in \\(1, 2, 3\\), got 4"),
                        (lambda: smallest_irreducible(7, 4), "k in \\(2, 3\\), got 4")):
        with pytest.raises(ValueError, match=match):
            call()
    code = (
        "from finitefields import FiniteField, smallest_irreducible\n"
        "for call in (lambda: FiniteField(4, 2), lambda: FiniteField(7, 4),\n"
        "             lambda: smallest_irreducible(7, 4)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    assert _run_optimized(code) == (
        "ValueError: FiniteField needs a prime p >= 5, got 4\n"
        "ValueError: FiniteField needs k in (1, 2, 3), got 4\n"
        "ValueError: smallest_irreducible needs k in (2, 3), got 4\n"
    )


def test_element_checks_under_O():
    # ValueError, not assert: under python -O a negative power never returned,
    # a 3-coordinate F_49 element encoded to 162, and adding across two fields
    # returned (2, 2)
    f49, x = FiniteField(7, 2), FiniteField(7, 2).element(1, 1)
    for call, match in ((lambda: f49.element(3, 1) ** -1, "exponent >= 0, got -1"),
                        (lambda: f49.element(1, 2, 3), "needs 2 coordinates, got 3"),
                        (lambda: x + FiniteField(5, 2).element(1, 1), "one field"),
                        (lambda: x - FiniteField(7, 2).element(1, 1), "one field"),
                        (lambda: x * FiniteField(7, 3).element(1, 1, 1), "one field")):
        with pytest.raises(ValueError, match=match):
            call()
    code = (
        "from finitefields import FiniteField\n"
        "f = FiniteField(7, 2)\n"
        "for call in (lambda: f.element(3, 1) ** -1, lambda: f.element(1, 2, 3),\n"
        "             lambda: f.element(1, 1) + FiniteField(5, 2).element(1, 1),\n"
        "             lambda: f.element(1, 1) - FiniteField(7, 2).element(1, 1),\n"
        "             lambda: f.element(1, 1) * FiniteField(7, 3).element(1, 1, 1)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    assert _run_optimized(code) == (
        "ValueError: FiniteFieldElement power needs an exponent >= 0, got -1\n"
        "ValueError: F_7^2 element needs 2 coordinates, got 3\n"
        + "ValueError: FiniteFieldElement arithmetic needs both operands in one field\n" * 3
    )


def test_smallest_irreducible_is_irreducible():
    for p in [5, 7, 11, 13]:
        for k in [2, 3]:
            low = smallest_irreducible(p, k)
            assert len(low) == k
            # no roots in F_p (sufficient for degree <= 3)
            for x in range(p):
                val = (pow(x, k, p) + sum(c * pow(x, i, p) for i, c in enumerate(low))) % p
                assert val != 0, (p, k, x)


def test_field_axioms_fuzz():
    rng = random.Random(62)
    for p, k in [(5, 2), (7, 2), (5, 3), (11, 2), (7, 3)]:
        field = FiniteField(p, k)
        q = p**k
        elts = [field.decode(rng.randrange(q)) for _ in range(12)]
        one, zero = field.one(), field.zero()
        for x in elts:
            assert x + zero == x and x * one == x
            assert x - x == zero
            for y in elts:
                assert x + y == y + x
                assert x * y == y * x
                for z in elts[:4]:
                    assert (x + y) * z == x * z + y * z
                    assert (x * y) * z == x * (y * z)


def test_encode_decode_round_trip():
    for p, k in [(5, 2), (7, 3)]:
        field = FiniteField(p, k)
        for n in range(p**k):
            assert field.decode(n).encode() == n


def test_multiplicative_order():
    # the unit group is cyclic of order q-1; x^(q-1) = 1 for all nonzero x
    for p, k in [(5, 2), (7, 2), (5, 3)]:
        field = FiniteField(p, k)
        q = p**k
        for n in range(1, q):
            x = field.decode(n)
            assert x ** (q - 1) == field.one()


def test_frobenius_fixed_field():
    # x^p = x exactly on the prime field
    field = FiniteField(7, 2)
    fixed = [n for n in range(49) if (field.decode(n) ** 7) == field.decode(n)]
    assert len(fixed) == 7
    prime_field = {field.from_int(i).encode() for i in range(7)}
    assert set(fixed) == prime_field


def test_from_int_wraps():
    field = FiniteField(5, 2)
    assert field.from_int(7) == field.from_int(2)
    assert field.from_int(-1) == field.from_int(4)
