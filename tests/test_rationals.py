"""Exact rational helpers: parsing, formatting, nth roots."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prymlab.rationals import (
    format_rational,
    integer_nth_root,
    is_nth_power,
    is_square,
    parse_rational,
)


def test_parse_basic():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-5/9") == Fraction(-5, 9)
    assert parse_rational("0") == 0
    assert parse_rational("  7/2 ") == Fraction(7, 2)


def test_parse_rejects_garbage():
    for bad in ["", "x", "1/0", "1.5", "1/2/3", "--3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_refuses_numbers_past_the_digit_limit():
    # its own message, not Python's advice to raise sys.set_int_max_str_digits
    limit = sys.get_int_max_str_digits()
    assert parse_rational("-" + "7" * limit) == -int("7" * limit)
    assert parse_rational("1/" + "0" * (limit - 1) + "3") == Fraction(1, 3)
    for text in ("7" * (limit + 1), "-" + "0" * limit + "1", "1/" + "3" * (limit + 700),
                 "0" * 5000 + "/0"):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        digits = max(len(part.lstrip("-")) for part in text.split("/"))
        assert str(info.value) == f"a {digits}-digit number exceeds the {limit}-digit limit"


def test_format_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_format_refuses_numbers_past_the_digit_limit():
    # at the limit a number prints; past it, in the numerator or the
    # denominator, the refusal names the limit instead of Python's advice
    limit = sys.get_int_max_str_digits()
    assert format_rational(10 ** limit - 1) == "9" * limit
    for q in (10 ** limit, Fraction(1, 10 ** limit), Fraction(-3 ** 10000, 2)):
        with pytest.raises(ValueError) as info:
            format_rational(q)
        assert str(info.value) == f"a number in the result exceeds the {limit}-digit limit"


def test_integer_nth_root_exact_and_floor():
    assert integer_nth_root(729, 6) == 3
    assert integer_nth_root(728, 6) == 2
    assert integer_nth_root(1, 17) == 1
    assert integer_nth_root(0, 3) == 0
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(2, 12)
        r = rng.randint(0, 10**6)
        n = r**k
        assert integer_nth_root(n, k) == r
        if n > 0:
            assert integer_nth_root(n - 1, k) == r - 1


def _bisect_root(n, k):
    # the binary search integer_nth_root ran before Newton's iteration, kept
    # as the reference: floor of the kth root of n >= 0
    lo, hi = 0, 1 << (n.bit_length() // k + 1)  # hi^k > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= n else (lo, mid)
    return lo


def test_integer_nth_root_matches_binary_search():
    # n from 0 to ~4000 bits, exact kth powers and their neighbours, k 1..40
    rng = random.Random(2116)
    for _ in range(300):
        k = rng.randint(1, 40)
        bits = rng.choice([rng.randint(0, 80), rng.randint(0, 4000)])
        r = rng.getrandbits(max(1, bits // k))
        cases = {rng.getrandbits(bits), r ** k, r ** k + 1, max(0, r ** k - 1), k, k - 1}
        for n in cases:
            assert integer_nth_root(n, k) == _bisect_root(n, k), (n, k)
        assert integer_nth_root(r ** k, k) == r
    for n in range(300):
        for k in range(1, 41):
            assert integer_nth_root(n, k) == _bisect_root(n, k), (n, k)
    for _ in range(50):
        n, k = -rng.randint(1, 2 ** rng.randint(1, 4000)), rng.randint(1, 40)
        for bad in ((n, k), (rng.randint(0, 10 ** 9), -rng.randint(0, 40))):
            with pytest.raises(ValueError, match="integer_nth_root needs n >= 0 and k >= 1"):
                integer_nth_root(*bad)


def test_integer_nth_root_argument_checks_under_O():
    # ValueError, not assert: under python -O integer_nth_root(-5, 2) returned -5
    for n, k in ((-5, 2), (5, 0)):
        with pytest.raises(ValueError, match="integer_nth_root needs"):
            integer_nth_root(n, k)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from prymlab.rationals import integer_nth_root\n"
        "for n, k in ((-5, 2), (5, 0)):\n"
        "    try:\n"
        "        print(integer_nth_root(n, k))\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "ValueError: integer_nth_root needs n >= 0 and k >= 1, got n = -5, k = 2\n"
        "ValueError: integer_nth_root needs n >= 0 and k >= 1, got n = 5, k = 0\n"
    )


def test_is_nth_power_exponent_check_under_O():
    # ValueError, not assert: under python -O is_nth_power(0, 0) and
    # is_nth_power(0, -3) returned Fraction(0)
    for n in (0, -3):
        with pytest.raises(ValueError, match="is_nth_power needs n >= 1"):
            is_nth_power(0, n)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from prymlab.rationals import is_nth_power\n"
        "for n in (0, -3):\n"
        "    try:\n"
        "        print(is_nth_power(0, n))\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "ValueError: is_nth_power needs n >= 1, got 0\n"
        "ValueError: is_nth_power needs n >= 1, got -3\n"
    )


def test_is_nth_power():
    assert is_nth_power(Fraction(64), 6) == 2
    assert is_nth_power(Fraction(-64), 6) is None
    assert is_nth_power(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert is_nth_power(Fraction(4, 9), 2) == Fraction(2, 3)
    assert is_nth_power(Fraction(2), 2) is None
    assert is_nth_power(Fraction(0), 5) == 0
    assert is_nth_power(Fraction(7, 3), 1) == Fraction(7, 3)


def test_is_nth_power_fuzz():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(1, 6)
        base = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if n % 2 == 0 and base < 0:
            continue
        q = base**n
        root = is_nth_power(q, n)
        assert root is not None and root**n == q
        # bump the numerator by one: almost never still an n-th power
        if n >= 2 and q > 0 and q.numerator > 1:
            near = Fraction(q.numerator + 1, q.denominator)
            r2 = is_nth_power(near, n)
            assert r2 is None or r2**n == near


def test_is_square():
    assert is_square(Fraction(49, 4))
    assert not is_square(Fraction(-49, 4))
    assert not is_square(Fraction(2))
    assert is_square(Fraction(0))
