"""Integer factorization utilities."""

import ast
import inspect
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from prymlab import classify_record, factorization, new_curve, polynomials
from prymlab.curves import integral_model
from prymlab.errors import DegenerateCurve
from prymlab.factorization import (
    factor_integer,
    is_prime,
    power_primes,
    primes_from,
    valuation,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    for n in [561, 1105, 1729, 2465, 6601, 8911]:  # Carmichael numbers
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # Mersenne composite (Cole)


# The least strong pseudoprimes to the primes up to 37 (psi_12) and up to 41
# (psi_13), with their factors (Sorenson-Webster, Math. Comp. 2017).
_PSI_12, _PSI_12_FACTORS = 318665857834031151167461, (399165290221, 798330580441)
_PSI_13, _PSI_13_FACTORS = 3317044064679887385961981, (1287836182261, 2575672364521)


def test_is_prime_refuses_the_strong_pseudoprimes(monkeypatch):
    assert math.prod(_PSI_12_FACTORS) == _PSI_12 and math.prod(_PSI_13_FACTORS) == _PSI_13
    assert all(map(is_prime, _PSI_12_FACTORS + _PSI_13_FACTORS))
    assert not is_prime(_PSI_12) and not is_prime(_PSI_13)
    assert is_prime(2 ** 89 - 1) and is_prime(2 ** 127 - 1)
    # psi_13 passes every fixed witness: only the seeded bases refuse it
    monkeypatch.setattr(factorization, "_MR_ROUNDS", 0)
    assert is_prime(_PSI_13)


def test_integral_model_of_a_strong_pseudoprime_denominator_is_minimal():
    # with psi_12 taken for a prime, the model scaled by p^3 q, not p^2 q
    p, q = _PSI_12_FACTORS
    assert factor_integer(_PSI_12) == {p: 1, q: 1}
    model = integral_model(new_curve(Fraction(1, p ** 7), Fraction(1, p * q)))
    lam = p ** 2 * q
    assert (model.a, model.b) == (Fraction(lam ** 6, p ** 7), Fraction(lam ** 12, p * q))


def test_factor_known():
    assert factor_integer(1) == {}
    assert factor_integer(-1) == {}
    assert factor_integer(2**6 * 7) == {2: 6, 7: 1}
    assert factor_integer(-448) == {2: 6, 7: 1}
    assert factor_integer(23328) == {2: 5, 3: 6}
    assert factor_integer(725594112) == {2: 12, 3: 11}


def test_factor_reassembles():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 10**12)
        fac = factor_integer(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
    # a few with large prime factors
    for n in [10**9 + 7, (10**9 + 7) * (10**9 + 9), 2**32 + 1]:
        fac = factor_integer(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(-9, 3) == 2
    assert valuation(7, 5) == 0


def test_input_checks():
    for call in (lambda: factor_integer(0), lambda: valuation(0, 3),
                 lambda: valuation(12, 1), lambda: power_primes(0, 12)):
        with pytest.raises(ValueError):
            call()


def test_power_primes():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.choice([-1, 1]) * math.prod(
            rng.choice([2, 3, 5, 7, 11, 101, 9973]) ** rng.randint(0, 30) for _ in range(4))
        k = rng.choice([1, 6, 12])
        assert power_primes(n, k) == sorted(p for p, e in factor_integer(n).items() if e >= k)
    assert power_primes(1, 12) == []
    # a twelfth power of a prime above the sieve reaches factor_integer
    big = 1000003
    assert power_primes(big ** 12 * 5, 12) == [big]
    assert power_primes(big ** 11 * 2 ** 13, 12) == [2]


def test_primes_from():
    first = list(islice(primes_from(2), 10))
    assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(islice(primes_from(90), 3)) == [97, 101, 103]
    assert next(primes_from(5)) == 5


def test_factor_perfect_power():
    # rho runs on N, not on the 800-bit N^10
    n = 1000000000039 * 3000000000013
    assert factor_integer(n ** 10) == {1000000000039: 10, 3000000000013: 10}
    assert factor_integer(2 ** 5 * (1000003 * 1000033) ** 6) == {2: 5, 1000003: 6, 1000033: 6}


def test_prime_powers_past_the_sieve_skip_rho(monkeypatch):
    # 1000003 is the first prime past the sieve; 1000003^20 has 399 bits, so
    # the exponent search must reach e = 20 at that length
    def no_rho(n, rng):
        raise AssertionError(f"rho on {n}")

    monkeypatch.setattr(factorization, "_brent_rho", no_rho)
    for e in (2, 3, 19, 20, 21, 40):
        assert factor_integer(1000003 ** e) == {1000003: e}
    assert factor_integer(1000003 ** 12 * 30) == {2: 1, 3: 1, 5: 1, 1000003: 12}


def test_sieve_matches_full_sieve():
    # the odd-only sieve against a plain sieve over every number below 10^6
    flags = bytearray([1]) * factorization._SIEVE_LIMIT
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(len(flags)) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, len(flags), i)))
    reference = [i for i, flag in enumerate(flags) if flag]
    assert factorization._sieve() == reference
    assert (len(reference), reference[-1]) == (78498, 999983)


def test_import_builds_no_sieve():
    # the sieve is built on first use, never at import: set-up time stays flat
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import prymlab\nprint(len(prymlab.factorization._small_primes))\n"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_small_path_matches_sieve_path(monkeypatch):
    # below 97^2 (97^k for power_primes) trial division by the primes below 100
    # is complete: the same factorizations as trial division by the full sieve,
    # and is_prime's shortcut below 41^2 agrees with the sieve
    numbers = range(1, 10 ** 4)
    small = [(factor_integer(n), [power_primes(n, k) for k in (2, 3, 12)]) for n in numbers]
    monkeypatch.setattr(factorization, "_trial_primes", factorization._sieve)
    assert small == [(factor_integer(n), [power_primes(n, k) for k in (2, 3, 12)])
                     for n in numbers]
    assert [n for n in numbers if is_prime(n)] == [p for p in factorization._sieve() if p < 10 ** 4]


def test_box_records_build_no_sieve():
    # no box curve needs a prime above 97: n = gcd(a^2, b) <= |b| <= 30, and the
    # denominators 2 and 4 below are small too
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from fractions import Fraction\n"
        "import prymlab\n"
        "from prymlab import DegenerateCurve, classify_record, new_curve\n"
        "for a in range(-30, 31):\n"
        "    for b in range(1, 31):\n"
        "        try:\n"
        "            classify_record(new_curve(a, b), with_oracle=a % 10 == 0)\n"
        "        except DegenerateCurve:\n"
        "            pass\n"
        "classify_record(new_curve(Fraction(1, 2), Fraction(3, 4)), with_oracle=True)\n"
        "print(len(prymlab.factorization._small_primes))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_family_records_with_small_primes_build_no_sieve():
    # a denominator or gcd past 97^2 whose primes are below 97 stops inside
    # the primes below 100: table2_Z3xZ6 at c = 1/3 has powers of 3 for
    # denominators, and Z6_case3 at t = 1/3 the same
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from fractions import Fraction\n"
        "import prymlab\n"
        "from prymlab import classify_record, instantiate\n"
        "for family, param in (('table2_Z3xZ6', 'c'), ('Z6_case3', 't')):\n"
        "    classify_record(instantiate(family, {param: Fraction(1, 3)}), with_oracle=True)\n"
        "print(len(prymlab.factorization._small_primes))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_trial_division_builds_the_sieve_past_97():
    # a cofactor of 97^2 or more left by the primes below 97 reaches the sieve,
    # and a prime between 101 and 10^6 is divided out by it
    code = (
        "import prymlab\n"
        "from prymlab.factorization import factor_integer, power_primes\n"
        "print(factor_integer(3 ** 40 * 89 ** 3), len(prymlab.factorization._small_primes))\n"
        "print(power_primes(2 ** 12 * 101 ** 3, 3), factor_integer(999983 * 1000003))\n"
        "print(len(prymlab.factorization._small_primes))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("{3: 40, 89: 3} 0\n"
                           "[2, 101] {999983: 1, 1000003: 1}\n78498\n")


def test_gcd_sanity():
    assert math.gcd(18, 63) == 9


def test_integer_records_never_factor(monkeypatch):
    # rebind factor_integer wherever prymlab holds it, as benchmarks/tracing.py does
    calls = []

    def counting(n):
        calls.append(n)
        return factor_integer(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("prymlab") and vars(module).get("factor_integer") is factor_integer:
            monkeypatch.setattr(module, "factor_integer", counting)
    for a in range(-30, 31):
        for b in range(1, 31):
            try:
                classify_record(new_curve(a, b))
            except DegenerateCurve:
                continue
    classify_record(new_curve(3, 4), with_oracle=True)
    assert calls == []
    classify_record(new_curve(Fraction(1, 2), 3))  # a denominator is still factored
    assert calls and set(calls) == {2}
    imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(polynomials)))
                if isinstance(node, ast.ImportFrom)}
    assert "factorization" not in imported and "prymlab.factorization" not in imported
