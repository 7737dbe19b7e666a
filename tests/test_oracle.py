"""Finite-field point counts, L-polynomials, Prym orders."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prymlab import oracle, records
from prymlab.curves import EllipticModel, elliptic_quotients, integral_model, new_curve, sextic_twist
from prymlab.errors import BadPrime, InternalInconsistency, WeilBoundViolation
from prymlab.factorization import primes_from
from prymlab.oracle import (
    count_points_C,
    count_points_C_naive,
    count_points_E,
    good_primes,
    l_polynomial,
    prym_order,
    torsion_multiplicative_bound,
)

from finitefields import FiniteField, count_points_C3  # the references, beside these tests


def _c(a, b):
    return new_curve(Fraction(a), Fraction(b))


def _n3(c, p):
    """#C(F_{p^3}) by the tests' own counter, on the integral model's integers."""
    m = integral_model(c)
    return count_points_C3(m.a.numerator, m.b.numerator, p)


def test_spot_counts():
    assert count_points_C(_c(-5, 4), 7, 1) == 5
    assert count_points_C(_c(-5, 4), 5, 1) == 6
    e, ehat = elliptic_quotients(_c(-5, 4))
    assert ehat.c == 4
    assert count_points_E(ehat, 7) == 3
    assert count_points_E(elliptic_quotients(_c(1, 1))[1], 7) == 12


def test_supersingular_shortcut():
    # q = 2 mod 3: the cube map is a bijection, so N = q + 1 without counting
    rng = random.Random(71)
    for _ in range(40):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if b == 0 or a * a == 4 * b:
            continue
        c = _c(a, b)
        for p in (5, 11, 17, 23):
            if (16 * b * (a * a - 4 * b) * 6) % p == 0:
                continue
            assert count_points_C(c, p, 1) == p + 1


def test_counts_match_naive():
    rng = random.Random(72)
    for _ in range(30):
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        if b == 0 or a * a == 4 * b:
            continue
        c = _c(a, b)
        for p in (7, 13, 19, 31, 37, 43):
            if (6 * 16 * b * (a * a - 4 * b)) % p == 0:
                continue
            assert count_points_C(c, p, 1) == count_points_C_naive(c, p)


def test_extension_counts_match_brute_force():
    # brute force via a precomputed cube table over the tower field, against
    # count_points_C at k = 2 and the tests' own count_points_C3 at k = 3; the
    # k = 3 primes are 1 mod 3, so the count runs rather than q + 1.  Branches
    # of the counters: p = 2 mod 3 at k = 2 (the line table: p = 5, 11, 17),
    # p = 1 mod 3 at k = 2 and 3 (the norm test), a = 0, and a^2 - 4b a non-square mod p
    # with b a square, so g has a root u off F_p with psi(u) = 1 and n3(0) = 1
    # is read at u1 != 0: (2, 5, 11), (1, 2, 17) and (-2, 3, 13); (-5, 4, 11)
    # has its roots in F_p
    cases = [(-5, 4, 7, 2), (1, 1, 5, 2), (3, 5, 7, 2), (-2, 3, 13, 2),
             (-5, 4, 7, 3), (3, 5, 7, 3), (-2, 3, 13, 3),
             (0, 5, 11, 2), (2, 5, 11, 2), (-5, 4, 11, 2), (0, -3, 17, 2), (1, 2, 17, 2),
             (0, 3, 13, 2), (0, 2, 7, 3)]
    cases += [
        # p = 23 = 2 mod 3 and a != 0 mod p: the line-table route, where
        # 2t + a/u1 runs past p for many (u1, t) and is read mod p
        (3, 4, 23, 2),
        # a = 17 != 0 but a = 0 mod 17 (p = 2 mod 3): the reduction, not a,
        # decides a/u1 = 0
        (17, 3, 17, 2),
        # p = 1 mod 3 with d1 = 0, the cases prym_order sends to N_2: a = 0 at
        # p = 19 = 7 mod 12, and a != 0 mod p at p = 13 (the norm test)
        (0, 5, 19, 2), (1, 5, 13, 2),
    ]
    assert _d1(0, 5, 19) == (0, 0) and _d1(1, 5, 13) == (0, 0)
    for a, b, p, k in cases:
        c = _c(a, b)
        field = FiniteField(p, k)
        q = p**k
        cubes = {}
        for yi in range(q):
            enc = (field.decode(yi) ** 3).encode()
            cubes[enc] = cubes.get(enc, 0) + 1
        count = 1  # point at infinity
        for xi in range(q):
            x = field.decode(xi)
            v = x**4 + field.from_int(a) * x * x + field.from_int(b)
            count += cubes.get(v.encode(), 0)
        assert (count_points_C(c, p, 2) if k == 2 else count_points_C3(a, b, p)) == count, \
            (a, b, p, k)


def test_p_1_mod_3_sums_match_brute_force():
    # every p = 1 mod 3 count through the public entries, against plain loops:
    # #E(F_p) at every c mod p, N_1 at every good (a, b) mod p, and N_2 against
    # the tower at every (a, b) for p = 7, 13 and on the a = 0 curves (d1 = 0 at
    # p = 7 mod 12, the fallback) at p = 19, 31
    for p in (7, 13, 19, 31, 37):
        for c in range(1, p):
            plain = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x ** 3 - c) % p == 0)
            assert count_points_E(EllipticModel(Fraction(c), "E"), p) == plain, (c, p)
        for a in range(p):
            for b in range(1, p):
                if (a * a - 4 * b) % p:
                    assert count_points_C(_c(a, b), p, 1) == count_points_C_naive(_c(a, b), p), (a, b, p)
    for p, a_values in ((7, range(7)), (13, range(13)), (19, [0]), (31, [0])):
        field = FiniteField(p, 2)
        cubes = {}
        for yi in range(p * p):
            enc = (field.decode(yi) ** 3).coords
            cubes[enc] = cubes.get(enc, 0) + 1
        powers = [((x * x).coords, (x ** 4).coords) for x in map(field.decode, range(p * p))]
        for a in a_values:
            for b in range(1, p):
                if (a * a - 4 * b) % p == 0:
                    continue
                count = 1 + sum(cubes.get(((x4[0] + a * x2[0] + b) % p, (x4[1] + a * x2[1]) % p), 0)
                                for x2, x4 in powers)
                assert count_points_C(_c(a, b), p, 2) == count, (a, b, p)


# sha256 of the (a, b, p, k, N_k) rows below as counted by the numpy sweep the
# pure-Python counter replaced
_PINNED_COUNTS = "fb69a6fa07f38e6fb7093c9f4b4f86b0b5c8ead8dff6366a09ad7f79b2456611"


def test_extension_counts_pinned():
    # N_2 at every good p <= 199 and N_3 at every good p <= 61, on 10 seeded
    # curves (two with a = 0)
    rng = random.Random(7)
    curves = [(0, 7), (0, -12)]
    while len(curves) < 10:
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if b != 0 and a * a != 4 * b:
            curves.append((a, b))
    rows = []
    for a, b in curves:
        c = _c(a, b)
        for p in good_primes(c, 44):
            if p <= 199:
                rows.append([a, b, p, 2, count_points_C(c, p, 2)])
            if p <= 61:
                rows.append([a, b, p, 3, _n3(c, p)])
    assert len(rows) == 568
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _PINNED_COUNTS


# sha256 of the [p, l_c, l_e, l_p, order] rows below, recorded before the
# per-prime path moved to integers and per-prime tables
_PINNED_PRYM_ORDERS = "5f34d064502eb2bcb48f6d0ccd0f0920d4ba71e84c22cb9997462509bd3b6dbd"


def _pinned_curves_and_primes():
    """(curve, p) at every good p <= 199 of 40 curves: a = 0 (d1 = 0 at every
    p = 7 mod 12, so the F_{p^2} fallback runs), rational a and b, CM j = 1,
    -1, -27, and seeded integer pairs."""
    rng = random.Random(14)
    curves = [(0, 7), (0, -12), (0, 25), (Fraction(1, 2), 3), (Fraction(-3, 4), Fraction(5, 9)),
              (Fraction(2, 3), Fraction(-1, 8)), (4, 2), (28, 7)]
    while len(curves) < 40:
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if b != 0 and a * a != 4 * b:
            curves.append((a, b))
    for a, b in curves:
        c = _c(a, b)
        for p in good_primes(c, 46):
            if p <= 199:
                yield c, p


def test_prym_order_pinned(sweeps):
    rows = []
    for c, p in _pinned_curves_and_primes():
        pc = prym_order(c, p)
        rows.append([p, list(pc.l_c.coeffs), list(pc.l_e.coeffs), list(pc.l_p), pc.order])
    assert len(rows) == 1700
    assert (7, 2) in sweeps and (19, 2) in sweeps  # the d1 = 0 fallback ran
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _PINNED_PRYM_ORDERS


def test_prym_order_e_count_matches_the_quotient():
    # #E(F_p) inside prym_order against count_points_E of the Fraction-built
    # quotient E: y^2 = x^3 + 16(a^2 - 4b) of the integral model
    for c, p in _pinned_curves_and_primes():
        e = elliptic_quotients(integral_model(c))[0]
        assert prym_order(c, p).l_e.coeffs[1] == count_points_E(e, p) - p - 1, (c, p)


def test_oracle_runs_without_numpy():
    # import prymlab leaves numpy unloaded, and the oracle runs with numpy blocked
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, prymlab\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from prymlab import classify_record, count_points_C, new_curve\n"
        "c = new_curve(3, 4)\n"
        "print(json.dumps(classify_record(c, with_oracle=True), sort_keys=True))\n"
        "print(count_points_C(c, 13, 2))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    record = json.dumps(records.classify_record(_c(3, 4), with_oracle=True), sort_keys=True)
    assert proc.stdout == f"{record}\n215\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -S: no site hooks, which may load either module on their own
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, prymlab.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_l_polynomial_genus1():
    # y^2 = x^3 + 4 over F_7 has 3 points: L = 1 - 5T + 7T^2
    lp = l_polynomial([3], 7, 1)
    assert lp.coeffs == (1, -5, 7)


def test_l_polynomial_functional_equation():
    rng = random.Random(73)
    for _ in range(20):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        if b == 0 or a * a == 4 * b:
            continue
        c = _c(a, b)
        for p in (7, 13, 19):
            if (6 * 16 * b * (a * a - 4 * b)) % p == 0:
                continue
            counts = [count_points_C(c, p, 1), count_points_C(c, p, 2), _n3(c, p)]
            lp = l_polynomial(counts, p, 3)
            cs = lp.coeffs
            assert len(cs) == 7 and cs[0] == 1
            # functional equation c_{g+i} = p^i c_{g-i}
            assert cs[4] == p * cs[2]
            assert cs[5] == p * p * cs[1]
            assert cs[6] == p**3
            assert cs[1] ** 2 <= 36 * p  # |c1| <= 2g sqrt(p)
            # the N_3 route agrees with the product L_E * L_P built from N_1, N_2
            assert lp.coeffs == prym_order(c, p).l_c.coeffs


def test_weil_violation_artificial():
    with pytest.raises(WeilBoundViolation):
        l_polynomial([1000], 7, 1)  # c1 way out of range
    with pytest.raises(WeilBoundViolation):
        # N1 = 8 gives S1 = 0, and N2 = 49 gives odd S2, so e2 = -S2/2 is not
        # an integer: no genus-3 zeta function fits this tower
        l_polynomial([8, 49, 344], 7, 3)


def test_l_polynomial_refuses_bad_input():
    # a ValueError naming the argument, where a genus of 0 raised a bare
    # IndexError and a float count gave float coefficients
    for counts, p, genus, name in (([], 7, 0, "genus"), ([3], 7, -1, "genus"),
                                   ([3], 7, 1.0, "genus"), ([3.0], 7, 1, "counts"),
                                   ([3, Fraction(49)], 7, 2, "counts"), ([3], 7.0, 1, "p"),
                                   ([3], 1, 1, "p"), ([3], -7, 1, "p")):
        with pytest.raises(ValueError, match=f"got {name} = "):
            l_polynomial(counts, p, genus)


def test_prym_order_frozen():
    pc = prym_order(_c(-5, 4), 7)
    assert pc.order == 63
    assert pc.l_e.coeffs == (1, -5, 7)
    pc5 = prym_order(_c(-5, 4), 5)
    assert pc5.order == 18
    assert pc5.order % 9 == 0 and pc.order % 9 == 0


def test_prym_order_weil_interval():
    # (sqrt p -+ 1)^4 = p^2 + 6p + 1 -+ 4(p+1) sqrt(p), so the order satisfies
    # |order - (p^2+6p+1)| <= 4(p+1) sqrt(p); square to stay in integers
    rng = random.Random(74)
    for _ in range(25):
        a, b = rng.randint(-15, 15), rng.randint(-15, 15)
        if b == 0 or a * a == 4 * b:
            continue
        c = _c(a, b)
        for p in good_primes(c, 2):
            pc = prym_order(c, p)
            mid, spread = p * p + 6 * p + 1, 4 * (p + 1)
            assert (pc.order - mid) ** 2 <= spread * spread * p
            # L_P's own functional equation and Weil bound |c1| <= 4 sqrt(p)
            c0, c1, c2, c3, c4 = pc.l_p
            assert c0 == 1 and c3 == p * c1 and c4 == p * p
            assert c1 * c1 <= 16 * p


def test_bad_primes():
    c = _c(-5, 4)  # Delta = 576 = 2^6 3^2
    for p in (2, 3):
        with pytest.raises(BadPrime):
            prym_order(c, p)
    with pytest.raises(BadPrime):
        prym_order(c, 4)  # composite
    with pytest.raises(BadPrime):
        prym_order(_c(3, 4), 7)  # 7 | Delta = -448
    with pytest.raises(BadPrime):
        count_points_C(new_curve(Fraction(1, 7), Fraction(1)), 7, 1)  # denominator


def test_prime_cap_env(monkeypatch):
    c = _c(-5, 4)
    e = elliptic_quotients(c)[0]
    for count in (lambda p: prym_order(c, p), lambda p: count_points_E(e, p)):
        with pytest.raises(BadPrime, match=r"^p = 503 above enumeration cap 499$"):
            count(503)  # above the default 499 cap
    monkeypatch.setenv("PRYMLAB_PRIME_CAP", "10")
    with pytest.raises(BadPrime):
        prym_order(c, 13)
    monkeypatch.setenv("PRYMLAB_PRIME_CAP", "60")
    assert prym_order(c, 53).order >= 1  # raised cap unlocks larger primes
    # good_primes stops at the first good prime above the cap, not after
    # enumerating a million primes
    assert good_primes(c, 15)[-1] == 59
    with pytest.raises(BadPrime, match=r"^p = 61 above enumeration cap 60$"):
        good_primes(c, 10 ** 6)
    # the cap is read by the wire grammar: no underscores, ASCII digits only
    for text in ("4_99", "٤٩٩", "abc"):
        monkeypatch.setenv("PRYMLAB_PRIME_CAP", text)
        with pytest.raises(ValueError, match=rf"^PRYMLAB_PRIME_CAP is not an integer: '{text}'$"):
            prym_order(c, 13)


def test_per_prime_tables_built_once_and_bounded(monkeypatch):
    # the tables depend on p alone and the cube rows on (p, E) alone: immutable,
    # shared by every curve at p, and kept for a bounded number of primes (the
    # O(p) tables) or of rows (whatever the prime cap)
    monkeypatch.delenv("PRYMLAB_PRIME_CAP", raising=False)
    for a, b in ((3, 4), (-5, 4)):
        for p in (13, 17, 61):
            prym_order(_c(a, b), p)
    roots, cubes = oracle._square_root_counts(13), oracle._cube_classes(13)
    for p in (13, 17):
        r, spread, units, pairs, classes = oracle._quadratic_tables(p)
        assert [type(t) for t in (r, spread, units, pairs, classes)] == [int, int, tuple, tuple, bytes]
        assert {type(u) for u in units + pairs} == {tuple}
    assert [type(t) for t in (roots, cubes.cls)] == [bytes] * 2
    assert [type(t) for t in (cubes.squares, cubes.cubes)] == [int, int]
    # the bitsets: the nonzero squares doubled (X | X << p), the nonzero cubes
    squares = sum(1 << v for v in range(1, 13) if pow(v, 6, 13) == 1)
    assert cubes.squares == squares | squares << 13
    assert cubes.cubes == sum(1 << v for v in range(1, 13) if pow(v, 4, 13) == 1)
    assert oracle._square_root_counts(13) is roots and oracle._cube_classes(13) is cubes
    assert oracle._cube_classes(13).squares is cubes.squares
    assert oracle._cube_classes(13).cubes is cubes.cubes
    for table in (oracle._square_root_counts, oracle._cube_classes, oracle._quadratic_tables):
        info = table.cache_info()
        assert info.hits > 0 and info.maxsize is not None and 0 < info.maxsize <= 64
    # two curves at p whose 4b - a^2 share a square class read the same E, so
    # each row is read twice, once per curve, and is the same object both times:
    # p = 17 (one row per E) and the d1 = 0 fallback at p = 19 (three rows per E)
    cube_rows, read = oracle._cube_rows, {}

    def reading(p, e):
        rows = cube_rows(p, e)
        read.setdefault((p, e), []).append(rows)
        return rows

    monkeypatch.setattr(oracle, "_cube_rows", reading)
    for a, b, p in ((3, 4, 17), (0, 3, 17), (0, 5, 19), (0, 4, 19)):
        count_points_C(_c(a, b), p, 2)
    assert sorted({p for p, _ in read}) == [17, 19]
    for (p, _), seen in read.items():
        assert len(seen) == 2 and seen[0] is seen[1]
        assert type(seen[0]) is tuple and len(seen[0]) == (1 if p % 3 == 2 else 3)
        assert all(type(row) is int for row in seen[0])
    info = cube_rows.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 8192
    # the square rows depend on (p, k), k = b - (a/2)^2, alone: C(0, 4) and C(2, 5)
    # share k = 4 at p = 13 and read the same three rows
    square_rows, read_squares = oracle._square_rows, {}

    def reading_squares(p, k):
        rows = square_rows(p, k)
        read_squares.setdefault((p, k), []).append(rows)
        return rows

    monkeypatch.setattr(oracle, "_square_rows", reading_squares)
    for a, b in ((0, 4), (2, 5)):
        prym_order(_c(a, b), 13)
    assert list(read_squares) == [(13, 4)] and len(read_squares[13, 4]) >= 2
    first = read_squares[13, 4][0]
    assert all(rows is first for rows in read_squares[13, 4])
    assert type(first) is tuple and [type(row) for row in first] == [int] * 3
    info = square_rows.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize <= 4096
    # warm tables lift no cap: 61 is refused at every public entry, also with its
    # own tables built
    c = _c(-5, 4)
    e = elliptic_quotients(c)[0]
    monkeypatch.setenv("PRYMLAB_PRIME_CAP", "60")
    assert [prym_order(c, p).p for p in good_primes(c, 15)][-1] == 59
    for count in (lambda: prym_order(c, 61), lambda: count_points_E(e, 61),
                  lambda: count_points_C(c, 61, 1), lambda: count_points_C(c, 61, 2)):
        with pytest.raises(BadPrime, match=r"^p = 61 above enumeration cap 60$"):
            count()


def test_good_primes():
    c = _c(-5, 4)
    ps = good_primes(c, 4)
    assert len(ps) == 4 and ps == sorted(ps)
    assert all(p >= 5 and 576 % p != 0 for p in ps)
    assert ps[0] == 5


def test_torsion_multiplicative_bound():
    c = _c(-5, 4)
    bound = torsion_multiplicative_bound(c, good_primes(c, 4))
    assert bound % 9 == 0  # (Z/3)^2 rational torsion divides every local order
    with pytest.raises(BadPrime, match="need at least one good prime"):
        torsion_multiplicative_bound(c, [])


def test_torsion_multiplicative_bound_needs_a_prime_under_O():
    # the check is not an assert, so python -O keeps it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from fractions import Fraction\n"
        "from prymlab import BadPrime, new_curve, torsion_multiplicative_bound\n"
        "try:\n"
        "    torsion_multiplicative_bound(new_curve(Fraction(-5), Fraction(4)), [])\n"
        "except BadPrime as exc:\n"
        "    print('BadPrime:', exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "BadPrime: need at least one good prime\n"


def test_factoring_input_checks_under_O():
    # ValueError, not assert: under python -O an assert is gone and these loop
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from prymlab.factorization import factor_integer, valuation\n"
        "for call in (lambda: factor_integer(0), lambda: valuation(0, 5),\n"
        "             lambda: valuation(7, 1)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError\n" * 3


def test_caller_input_checks_under_O():
    # a bad k or twist delta is a ValueError naming it, also under python -O;
    # k = 3 is refused too: no record needs N_3
    c = _c(3, 4)
    for k in (0, 3, 4):
        with pytest.raises(ValueError, match=f"got {k}"):
            count_points_C(c, 5, k)
    with pytest.raises(ValueError, match="delta"):
        sextic_twist(c, 0)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from prymlab import count_points_C, new_curve, sextic_twist\n"
        "c = new_curve(3, 4)\n"
        "for call in (lambda: count_points_C(c, 5, 4), lambda: count_points_C(c, 5, 0),\n"
        "             lambda: count_points_C(c, 13, 3), lambda: sextic_twist(c, 0)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "ValueError: count_points_C needs k in (1, 2), got 4\n"
        "ValueError: count_points_C needs k in (1, 2), got 0\n"
        "ValueError: count_points_C needs k in (1, 2), got 3\n"
        "ValueError: twist delta must be nonzero\n"
    )


@pytest.mark.parametrize("bad", [4, 7, 503, 5])
def test_prime_list_checked_before_any_count(monkeypatch, bad):
    # C(3, 4) has Delta = -448 = -2^6 * 7: 4 is composite, 7 is bad, 503 is above
    # the cap, 5 repeats the list's first prime
    real = oracle.prym_order
    calls = []

    def counting(c, p):
        calls.append(p)
        return real(c, p)

    monkeypatch.delenv("PRYMLAB_PRIME_CAP", raising=False)
    monkeypatch.setattr(oracle, "prym_order", counting)
    monkeypatch.setattr(records, "prym_order", counting)
    c = _c(3, 4)
    with pytest.raises(BadPrime, match=f"p = {bad} "):
        records.oracle_summary(c, [5, 11, bad])
    with pytest.raises(BadPrime, match=f"p = {bad} "):
        torsion_multiplicative_bound(c, [5, 11, bad])
    assert calls == []
    # the first bad prime in list order names the error
    with pytest.raises(BadPrime, match="p = 503 above enumeration cap 499"):
        records.oracle_summary(c, [5, 503, 7])


def test_prime_list_refuses_a_repeat_in_list_order():
    c = _c(3, 4)
    for check in (oracle.require_good_primes, records.oracle_summary,
                  torsion_multiplicative_bound):
        with pytest.raises(BadPrime, match=r"^p = 11 given twice$"):
            check(c, [5, 11, 13, 11, 7])
        with pytest.raises(BadPrime, match=r"^p = 7 divides 6\*Delta$"):
            check(c, [5, 7, 5])


# Every refusal of every public oracle entry, with its exact text.  C(3, 4) has
# 6*Delta = -2688 = -2^7 * 3 * 7 and E: y^2 = x^3 - 112, -112 = -2^4 * 7;
# C(0, 67) has 67 | 6*Delta.  An entry that takes one prime gets p, one that
# takes a list gets [5, p].
_ONE_PRIME = {
    "prym_order": prym_order,
    "count_points_C_k1": lambda c, p: count_points_C(c, p, 1),
    "count_points_C_k2": lambda c, p: count_points_C(c, p, 2),
    "count_points_C_naive": count_points_C_naive,
    "count_points_E": lambda c, p: count_points_E(elliptic_quotients(c)[0], p),
}
_PRIME_LIST = {
    "require_good_primes": oracle.require_good_primes,
    "oracle_summary": records.oracle_summary,
    "torsion_multiplicative_bound": torsion_multiplicative_bound,
}
_REFUSALS = [  # (case, (a, b), p, PRYMLAB_PRIME_CAP or None, text)
    ("p_below_5", (3, 4), 3, None, "p = 3 is not a usable prime (need a prime >= 5)"),
    ("composite", (3, 4), 25, None, "p = 25 is not a usable prime (need a prime >= 5)"),
    ("float_prime", (3, 4), 13.0, None, "p = 13.0 is not a usable prime (need a prime >= 5)"),
    ("non_integral", (3, 4), 5.5, None, "p = 5.5 is not a usable prime (need a prime >= 5)"),
    ("fraction_prime", (3, 4), Fraction(13), None,
     "p = 13 is not a usable prime (need a prime >= 5)"),
    ("p_divides_6Delta", (3, 4), 7, None, "p = 7 divides 6*Delta"),
    ("above_cap", (3, 4), 61, "60", "p = 61 above enumeration cap 60"),
    ("p_divides_6Delta_above_cap", (0, 67), 67, "60", "p = 67 divides 6*Delta"),
]
# count_points_E sees only E, so it has rows of its own for a bad p
_E_ROWS = [  # (case, c, p, cap, text)
    ("p_divides_c", Fraction(-112), 7, None, "p = 7 divides 6 num(c) den(c) in y^2 = x^3 + c"),
    ("p_divides_den_c_above_cap", Fraction(1, 67), 67, "60",
     "p = 67 divides 6 num(c) den(c) in y^2 = x^3 + c"),
]


def _refusal_rows():
    for case, ab, p, cap, text in _REFUSALS:
        for name, entry in _ONE_PRIME.items():
            if not (name == "count_points_E" and "Delta" in text):
                yield pytest.param(entry, ab, p, cap, text, id=f"{name}-{case}")
        for name, entry in _PRIME_LIST.items():
            yield pytest.param(lambda c, p, entry=entry: entry(c, [5, p]), ab, p, cap, text,
                               id=f"{name}-{case}")
    for name, entry in _PRIME_LIST.items():
        yield pytest.param(lambda c, p, entry=entry: entry(c, [5, 11, 13, 11, p]), (3, 4), 5,
                           None, "p = 11 given twice", id=f"{name}-repeat")
    yield pytest.param(lambda c, p: good_primes(c, 20), (3, 4), None, "60",
                       "p = 61 above enumeration cap 60", id="good_primes-above_cap")
    yield pytest.param(lambda c, p: torsion_multiplicative_bound(c, []), (3, 4), None, None,
                       "need at least one good prime", id="torsion_multiplicative_bound-empty")
    for case, e_c, p, cap, text in _E_ROWS:
        yield pytest.param(lambda c, p, e_c=e_c: count_points_E(EllipticModel(e_c, "E"), p),
                           (3, 4), p, cap, text, id=f"count_points_E-{case}")


@pytest.mark.parametrize("entry, ab, p, cap, text", list(_refusal_rows()))
def test_every_refusal_text(monkeypatch, entry, ab, p, cap, text):
    if cap is None:
        monkeypatch.delenv("PRYMLAB_PRIME_CAP", raising=False)
    else:
        monkeypatch.setenv("PRYMLAB_PRIME_CAP", cap)
    with pytest.raises(BadPrime) as info:
        entry(_c(*ab), p)
    assert str(info.value) == text


def test_prime_lists_read_once_from_any_iterable(monkeypatch):
    # a generator, an iterator or a map gives what the list gives: each list
    # is read once, into the tuple that is checked and then counted
    monkeypatch.delenv("PRYMLAB_PRIME_CAP", raising=False)
    c = _c(3, 4)
    one_shot = [lambda: (p for p in [5, 11]), lambda: iter([5, 11]),
                lambda: map(int, "5,11".split(","))]

    def results(primes):
        return (records.oracle_summary(c, primes()), torsion_multiplicative_bound(c, primes()),
                oracle.require_good_primes(c, primes()),
                records.classify_record(c, primes=primes()))

    want = results(lambda: [5, 11])
    assert want[1] == 6 and want[2] == (5, 11)
    assert [row["p"] for row in want[0]["per_prime"]] == [5, 11]
    for primes in one_shot:
        assert results(primes) == want
    with pytest.raises(BadPrime, match=r"^need at least one good prime$"):
        torsion_multiplicative_bound(c, iter([]))
    assert records.oracle_summary(c, iter([])) == {"per_prime": [], "gcd": 0}
    # each prime is checked as it is read, so an endless iterable is refused
    # at its first bad prime instead of being read to the end
    with pytest.raises(BadPrime, match=r"^p = 503 above enumeration cap 499$"):
        records.oracle_summary(c, primes_from(11))
    with pytest.raises(BadPrime, match=r"^p = 6 is not a usable prime"):
        torsion_multiplicative_bound(c, itertools.count(5))


def test_prym_order_divisibility_by_structural_torsion():
    # the rational torsion injects into P(F_p) at every good prime
    from prymlab.torsion import torsion_group

    rng = random.Random(75)
    for _ in range(15):
        a, b = rng.randint(-25, 25), rng.randint(-25, 25)
        if b == 0 or a * a == 4 * b:
            continue
        c = _c(a, b)
        rep = torsion_group(c)
        order = 1
        for f in rep.invariant_factors:
            order *= f
        for p in good_primes(c, 3):
            assert prym_order(c, p).order % order == 0, (a, b, p)


def _d1(a, b, p):
    """d1 = sum_x chi(x^4 + a x^2 + b) - sum_u chi(u^2 + a u + b) in Z[w] as (x, y),
    with chi from Euler's criterion v^((p-1)/3): a check independent of the oracle's
    class table.  Whether d1 = 0 does not depend on which cubic character is used."""
    e = (p - 1) // 3
    zeta = next(pow(r, e, p) for r in range(2, p) if pow(r, e, p) != 1)
    value = {1: (1, 0), zeta: (0, 1), zeta * zeta % p: (-1, -1)}  # 1, w, w^2 = -1 - w

    def chi_sum(values):
        x = y = 0
        for v in values:
            if v % p:
                dx, dy = value[pow(v, e, p)]
                x, y = x + dx, y + dy
        return x, y

    s_c = chi_sum(x ** 4 + a * x * x + b for x in range(p))
    s_e = chi_sum(u * u + a * u + b for u in range(p))
    return s_c[0] - s_e[0], s_c[1] - s_e[1]


@pytest.fixture
def sweeps(monkeypatch):
    """The (p, k) of every count_points_C call, rebound in the oracle module."""
    calls = []

    def counting(c, p, k=1):
        calls.append((p, k))
        return count_points_C(c, p, k)

    monkeypatch.setattr(oracle, "count_points_C", counting)
    return calls


def test_character_route_matches_sweep_route(sweeps):
    # every p = 1 mod 3 good prime up to 199; a = 0 curves have d1 = 0 at p = 3 mod 4
    rng = random.Random(76)
    curves = [(0, 25), (0, -19), (3, 4)]
    while len(curves) < 12:
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        if b != 0 and a * a != 4 * b:
            curves.append((a, b))
    characters = fallbacks = 0
    for a, b in curves:
        c = _c(a, b)
        for p in good_primes(c, 46):
            if p % 3 != 1 or p > 199:
                continue
            sweeps.clear()
            l_p = prym_order(c, p).l_p
            if _d1(a, b, p) == (0, 0):
                assert sweeps == [(p, 2)], (a, b, p)
                fallbacks += 1
            else:
                assert sweeps == [], (a, b, p)
                characters += 1
            # the sweep route: s_k(P) = s_k(C) - s_k(E) from N_1, N_2 and #E(F_p)
            s_e = p + 1 - count_points_E(elliptic_quotients(c)[0], p)
            s1 = p + 1 - count_points_C(c, p, 1) - s_e
            s2 = p * p + 1 - count_points_C(c, p, 2) - (s_e * s_e - 2 * p)
            assert l_p[:3] == (1, -s1, (s1 * s1 - s2) // 2), (a, b, p)
            assert l_p[3:] == (p * l_p[1], p * p), (a, b, p)
    assert fallbacks > 0 and characters > 5 * fallbacks


def test_no_sweep_at_p_1_mod_3(sweeps):
    # C(3, 4) has d1 != 0 at these primes; p = 2 mod 3 still sweeps F_{p^2}
    c = _c(3, 4)
    rows = oracle._cube_rows.cache_info()
    for p in (13, 31, 61, 97, 199):
        assert _d1(3, 4, p) != (0, 0)
        prym_order(c, p)
    assert sweeps == []
    assert oracle._cube_rows.cache_info() == rows  # no cube row read or built
    prym_order(c, 197)
    assert sweeps == [(197, 2)]


def test_character_route_cross_checks_e_count():
    # the pass's own #E(F_p) = p + 1 + Tr(S_E) must equal count_points_E
    n_e = count_points_E(elliptic_quotients(_c(3, 4))[0], 13)
    assert oracle._character_power_sums(13, 3, 4, n_e) is not None
    with pytest.raises(InternalInconsistency, match="cubic character sum gives"):
        oracle._character_power_sums(13, 3, 4, n_e + 1)


def test_prym_order_checks_p_once_and_builds_no_fraction(monkeypatch, fraction_constructions):
    # E's constant comes from the model's integers: one check of p and no
    # Fraction; at p = 197 (2 mod 3) the fallback's count_points_C checks p again
    real = oracle._require_good
    checks = []

    def counting(p, bad, cap, what):
        checks.append(p)
        real(p, bad, cap, what)

    monkeypatch.setattr(oracle, "_require_good", counting)
    m = integral_model(_c(3, 4))
    for p, want in ((13, 1), (199, 1), (197, 2)):
        del checks[:], fraction_constructions[:]
        prym_order(m, p)
        assert checks == [p] * want, p
        assert fraction_constructions == [], p


def test_prym_order_checks_its_e_count(monkeypatch):
    # a wrong #E(F_p) from the kernel is caught: outside the Hasse interval by
    # the Newton/Weil check, inside it by the character pass's own #E
    real = oracle._count_E
    c = _c(3, 4)
    monkeypatch.setattr(oracle, "_count_E", lambda p, e: 2 * (p + 1))  # a_p = -(p + 1)
    for p in (13, 197):
        with pytest.raises(WeilBoundViolation, match=f"exceeds 2g\\*sqrt\\(p\\) at p={p}$"):
            prym_order(c, p)
    monkeypatch.setattr(oracle, "_count_E", lambda p, e: real(p, e) + 3)
    with pytest.raises(InternalInconsistency, match="cubic character sum gives"):
        prym_order(c, 13)


def test_prym_order_matches_the_newton_route(sweeps):
    # the closed forms of L_E and L_P in prym_order against l_polynomial's
    # Newton loop: L_E from #E(F_p), and L_P from s_k(P) = s_k(C) - s_k(E) with
    # s_k(C) from N_1, N_2 and s_2(E) = s_1(E)^2 - 2p; 40 seeded curves at sampled
    # good primes up to 499 in both residue classes, 8 of them with a = 0 and a
    # p = 7 mod 12, where d1 = 0 sends prym_order to the fallback
    rng = random.Random(78)
    curves = [(0, rng.choice((-1, 1)) * rng.randint(1, 60)) for _ in range(8)]
    while len(curves) < 40:
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if b != 0 and a * a != 4 * b:
            curves.append((a, b))
    pool = list(itertools.takewhile(lambda p: p <= 499, primes_from(5)))
    fallbacks, classes = 0, set()
    for a, b in curves:
        c = _c(a, b)
        m = integral_model(c)
        e = elliptic_quotients(m)[0]
        good = [p for p in pool if oracle._six_delta(m) % p]
        primes = rng.sample(good, 2)
        if a == 0:
            primes.append(rng.choice([p for p in good if p % 12 == 7]))
        for p in primes:
            sweeps.clear()
            pc = prym_order(c, p)
            n_e = count_points_E(e, p)
            assert pc.l_e == l_polynomial([n_e], p, 1), (a, b, p)
            s_e = p + 1 - n_e
            s1 = p + 1 - count_points_C(c, p, 1) - s_e
            s2 = p * p + 1 - count_points_C(c, p, 2) - (s_e * s_e - 2 * p)
            assert pc.l_p == l_polynomial([p + 1 - s1, p * p + 1 - s2], p, 2).coeffs, (a, b, p)
            fallbacks += p % 3 == 1 and sweeps == [(p, 2)]
            classes.add(p % 3)
    assert classes == {1, 2} and fallbacks >= 8


def test_prym_order_refusals_match_the_newton_route(monkeypatch):
    # each refusal of the closed-form L_P raises WeilBoundViolation with the
    # message l_polynomial's Newton loop gives for the same s_1(P), s_2(P):
    # a non-integral e2, |c1| > 4 sqrt(p) and L(+-1) <= 0
    def newton_refusal(s, p):
        with pytest.raises(WeilBoundViolation) as refused:
            l_polynomial([p + 1 - s[0], p * p + 1 - s[1]], p, 2)
        return str(refused.value)

    def refusal(c, p):
        with pytest.raises(WeilBoundViolation) as refused:
            prym_order(c, p)
        return str(refused.value)

    def weil(p):
        return [0, 2 * (p * p + 10 * p)]  # c2 = -(p^2 + 10p): L(1) = L(-1) < 0

    # the character route at p = 13 on C(3, 4)
    real = oracle._character_power_sums
    for s, starts in (([1, 2], "non-integral e2"), ([15, 1], "|c1| = 15 exceeds"),
                      (weil(13), "L(+-1) not positive")):
        monkeypatch.setattr(oracle, "_character_power_sums", lambda p, a, b, n_e: list(s))
        want = newton_refusal(s, 13)
        assert want.startswith(starts)
        assert refusal(_c(3, 4), 13) == want
    monkeypatch.setattr(oracle, "_character_power_sums", real)
    # the fallback through N_2: p = 197 = 2 mod 3 on C(3, 4), and d1 = 0 at
    # p = 19 = 1 mod 3 on C(0, 5); s_1(P) = 0 there, so |c1| cannot exceed
    for (a, b), p in (((3, 4), 197), ((0, 5), 19)):
        assert p % 3 == 2 or _d1(a, b, p) == (0, 0)
        c = _c(a, b)
        e1 = count_points_E(elliptic_quotients(integral_model(c))[0], p) - p - 1
        for s, starts in (([0, 3], "non-integral e2"), (weil(p), "L(+-1) not positive")):
            n2 = p * p + 1 - s[1] - (e1 * e1 - 2 * p)
            monkeypatch.setattr(oracle, "count_points_C", lambda c, p, k=1: n2)
            want = newton_refusal(s, p)
            assert want.startswith(starts)
            assert refusal(c, p) == want
