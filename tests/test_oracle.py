"""Finite-field point counts, L-polynomials, Prym orders."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from prymlab import oracle, records
from prymlab.curves import elliptic_quotients, new_curve, sextic_twist
from prymlab.errors import BadPrime, InternalInconsistency, WeilBoundViolation
from prymlab.oracle import (
    count_points_C,
    count_points_C_naive,
    count_points_E,
    good_primes,
    l_polynomial,
    prym_order,
    torsion_multiplicative_bound,
)

from finitefields import FiniteField  # the brute-force reference, beside these tests


def _c(a, b):
    return new_curve(Fraction(a), Fraction(b))


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
    # brute force via a precomputed cube table over the tower field; the k = 3
    # primes are 1 mod 3, so the count runs rather than q + 1.  Branches of the
    # counter: p = 2 mod 3 at k = 2 (the line table: p = 5, 11, 17), p = 1 mod 3
    # at k = 2 and 3 (the norm test), a = 0, and a^2 - 4b a non-square mod p
    # with b a square, so g has a root u off F_p with psi(u) = 1 and n3(0) = 1
    # is read at u1 != 0: (2, 5, 11), (1, 2, 17) and (-2, 3, 13); (-5, 4, 11)
    # has its roots in F_p
    cases = [(-5, 4, 7, 2), (1, 1, 5, 2), (3, 5, 7, 2), (-2, 3, 13, 2),
             (-5, 4, 7, 3), (3, 5, 7, 3), (-2, 3, 13, 3),
             (0, 5, 11, 2), (2, 5, 11, 2), (-5, 4, 11, 2), (0, -3, 17, 2), (1, 2, 17, 2),
             (0, 3, 13, 2), (0, 2, 7, 3)]
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
        assert count_points_C(c, p, k) == count, (a, b, p, k)


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
                rows.append([a, b, p, 3, count_points_C(c, p, 3)])
    assert len(rows) == 568
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _PINNED_COUNTS


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
        "print(count_points_C(c, 13, 3))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    record = json.dumps(records.classify_record(_c(3, 4), with_oracle=True), sort_keys=True)
    assert proc.stdout == f"{record}\n2128\n"


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
            counts = [count_points_C(c, p, k) for k in (1, 2, 3)]
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
    with pytest.raises(BadPrime):
        prym_order(c, 503)  # above the default 499 cap
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
    # a bad k or twist delta is a ValueError naming it, also under python -O
    c = _c(3, 4)
    for k in (0, 4):
        with pytest.raises(ValueError, match=f"got {k}"):
            count_points_C(c, 5, k)
    with pytest.raises(ValueError, match="delta"):
        sextic_twist(c, 0)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from prymlab import count_points_C, new_curve, sextic_twist\n"
        "c = new_curve(3, 4)\n"
        "for call in (lambda: count_points_C(c, 5, 4), lambda: count_points_C(c, 5, 0),\n"
        "             lambda: sextic_twist(c, 0)):\n"
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
        "ValueError: count_points_C needs k in (1, 2, 3), got 4\n"
        "ValueError: count_points_C needs k in (1, 2, 3), got 0\n"
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
                assert sweeps == [(p, 1), (p, 2)], (a, b, p)
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
    for p in (13, 31, 61, 97, 199):
        assert _d1(3, 4, p) != (0, 0)
        prym_order(c, p)
    assert sweeps == []
    prym_order(c, 197)
    assert sweeps == [(197, 1), (197, 2)]


def test_character_route_cross_checks_e_count():
    # the pass's own #E(F_p) = p + 1 + Tr(S_E) must equal count_points_E
    n_e = count_points_E(elliptic_quotients(_c(3, 4))[0], 13)
    assert oracle._character_power_sums(13, 3, 4, n_e) is not None
    with pytest.raises(InternalInconsistency, match="cubic character sum gives"):
        oracle._character_power_sums(13, 3, 4, n_e + 1)
