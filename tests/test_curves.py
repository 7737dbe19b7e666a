"""Curve model: invariants, duality, twists, isomorphism tests, models."""

import dataclasses
import functools
import json
import random
from fractions import Fraction

import pytest

from prymlab import classify_record, curves
from prymlab.cli import main
from prymlab.curves import (
    bigonal_dual,
    curve_from_dict,
    curve_to_dict,
    discriminant,
    elliptic_quotients,
    genus2_model,
    integral_model,
    is_geometrically_isomorphic,
    is_isomorphic_marked,
    is_special,
    j_invariant,
    new_curve,
    quartic_f,
    quartic_fhat,
    sextic_twist,
)
from prymlab.errors import DegenerateCurve, NotACube
from prymlab.factorization import factor_integer, power_primes, primes_from


def _rand_curve(rng, span=30):
    while True:
        a = Fraction(rng.randint(-span, span), rng.randint(1, 6))
        b = Fraction(rng.randint(-span, span), rng.randint(1, 6))
        if b != 0 and a * a != 4 * b:
            return new_curve(a, b)


def test_degenerate_rejected():
    with pytest.raises(DegenerateCurve):
        new_curve(Fraction(1), Fraction(0))
    with pytest.raises(DegenerateCurve):
        new_curve(Fraction(2), Fraction(1))  # a^2 = 4b
    with pytest.raises(DegenerateCurve):
        new_curve(Fraction(-2), Fraction(1))


def test_invariants():
    c = new_curve(Fraction(3), Fraction(4))
    assert discriminant(c) == -448
    assert j_invariant(c) == Fraction(7, 16)
    assert not is_special(c)
    assert is_special(new_curve(Fraction(0), Fraction(5)))
    # j = 0 is impossible on smooth curves: j = 0 forces a^2 = 4b
    rng = random.Random(1)
    for _ in range(200):
        assert j_invariant(_rand_curve(rng)) != 0


def test_dual_j_inversion():
    rng = random.Random(2)
    for _ in range(300):
        c = _rand_curve(rng)
        d = bigonal_dual(c)
        assert j_invariant(d) == 1 / j_invariant(c)


def test_dual_dual_marked_lambda_2():
    rng = random.Random(3)
    for _ in range(300):
        c = _rand_curve(rng)
        dd = bigonal_dual(bigonal_dual(c))
        assert dd.a == 64 * c.a and dd.b == 4096 * c.b
        assert is_isomorphic_marked(c, dd) == 2


def test_twist_marked_iso():
    rng = random.Random(4)
    for _ in range(300):
        c = _rand_curve(rng)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        t = sextic_twist(c, lam**6)
        assert is_isomorphic_marked(c, t) is not None
        assert is_isomorphic_marked(c, sextic_twist(c, Fraction(1))) == 1
        # a non-sixth-power twist changes the marked class but not geometry
        t2 = sextic_twist(c, Fraction(2))
        assert is_geometrically_isomorphic(c, t2)
        assert j_invariant(t2) == j_invariant(c)


def test_marked_iso_special_case():
    # a = 0: only the 12th power condition on b'/b counts
    c = new_curve(Fraction(0), Fraction(3))
    d = new_curve(Fraction(0), Fraction(3 * 2**12))
    lam = is_isomorphic_marked(c, d)
    assert lam is not None and lam**12 * c.b == d.b
    assert is_isomorphic_marked(c, new_curve(Fraction(0), Fraction(6))) is None
    # special and non-special are never marked-isomorphic
    assert is_isomorphic_marked(c, new_curve(Fraction(1), Fraction(3))) is None


def test_geometric_iso_is_j_equality():
    rng = random.Random(5)
    for _ in range(100):
        c = _rand_curve(rng)
        d = _rand_curve(rng)
        assert is_geometrically_isomorphic(c, d) == (j_invariant(c) == j_invariant(d))


def test_integral_model_frozen():
    c = integral_model(new_curve(Fraction(1, 2), Fraction(1, 3)))
    assert (c.a, c.b) == (23328, 725594112)
    c2 = integral_model(new_curve(Fraction(64), Fraction(4096)))
    assert (c2.a, c2.b) == (1, 1)
    c3 = integral_model(new_curve(Fraction(0), Fraction(1, 5)))
    assert (c3.a, c3.b) == (0, 5**12 // 5)


def test_integral_model_properties():
    rng = random.Random(6)
    for _ in range(200):
        c = _rand_curve(rng)
        m = integral_model(c)
        assert m.a.denominator == 1 and m.b.denominator == 1
        assert is_isomorphic_marked(c, m) is not None
        # idempotent, also when the model is normalized again from scratch
        m2 = integral_model(m)
        assert (m2.a, m2.b) == (m.a, m.b)
        m3 = integral_model(new_curve(m.a, m.b))
        assert (m3.a, m3.b) == (m.a, m.b)


_factor = functools.lru_cache(maxsize=None)(factor_integer)


def _integral_model_by_factoring(c):
    # the reference: factor every numerator and denominator of a and b, and
    # scale each prime p by -min(v_p(a) // 6, v_p(b) // 12)
    def exponents(q):
        out = dict(_factor(q.numerator))
        for p, e in _factor(q.denominator).items():
            out[p] = out.get(p, 0) - e
        return out

    ea = None if c.a == 0 else exponents(c.a)
    eb = exponents(c.b)
    lam = Fraction(1)
    for p in set(eb) | set(ea or ()):
        vb = eb.get(p, 0)
        lam *= Fraction(p) ** -(vb // 12 if ea is None else min(ea.get(p, 0) // 6, vb // 12))
    return new_curve(lam ** 6 * c.a, lam ** 12 * c.b)


def test_integral_model_matches_full_factoring():
    rng = random.Random(12)
    primes = []
    for p in primes_from(2):
        if p > 10 ** 4:
            break
        primes.append(p)
    curves = [_rand_curve(rng, span=10 ** 6) for _ in range(150)]
    curves += [new_curve(0, Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 6)))
               for _ in range(50)]
    for _ in range(150):
        base = _rand_curve(rng)
        if rng.random() < 0.3:
            base = new_curve(0, base.b)
        lam = Fraction(1)
        for p in rng.sample(primes, rng.randint(1, 4)):
            lam *= Fraction(p) ** rng.choice([-3, -2, -1, 1, 2, 3])
        curves.append(new_curve(lam ** 6 * base.a, lam ** 12 * base.b))
    # products of two 13-digit primes, which the reference sends to Pollard rho
    n = 1000000000039 * 3000000000013
    curves += [new_curve(n, n), new_curve(0, n), new_curve(-3, n), new_curve(n, 7),
               new_curve(Fraction(n, 2 ** 6), Fraction(n, 2 ** 12))]
    for c in curves:
        m = integral_model(c)
        ref = _integral_model_by_factoring(c)
        assert (m.a, m.b) == (ref.a, ref.b), c


def test_integral_model_returns_its_own_model():
    c = new_curve(3, 4)
    m = integral_model(c)
    assert m == c and integral_model(m) is m
    m = integral_model(new_curve(Fraction(3, 64), Fraction(4, 4096)))
    assert (m.a, m.b) == (3, 4)


@pytest.fixture
def normalizations(monkeypatch):
    """The numbers rebound curves.power_primes is called on: one per full
    run of integral_model's algorithm."""
    calls = []

    def counting(n, k):
        calls.append(n)
        return power_primes(n, k)

    monkeypatch.setattr(curves, "power_primes", counting)
    return calls


def test_integral_model_is_marked_not_stored_on_inputs(normalizations):
    m = integral_model(new_curve(Fraction(1, 2), Fraction(1, 3)))
    assert integral_model(m) is m and len(normalizations) == 1
    c = new_curve(3, 4)  # its own model
    m = integral_model(c)
    assert m is not c and m == c
    assert hash(m) == hash(c) and repr(m) == repr(c) and str(m) == str(c)
    assert curve_to_dict(m) == curve_to_dict(c)
    assert [f.name for f in dataclasses.fields(m)] == ["a", "b"]
    integral_model(c)  # c stays unmarked: a full normalization again
    assert len(normalizations) == 3
    integral_model(dataclasses.replace(m))  # so does a copy of a model
    assert len(normalizations) == 4


@pytest.mark.parametrize("with_oracle", [False, True])
@pytest.mark.parametrize("a, b", [(3, 4), (Fraction(1, 2), Fraction(1, 3))])
def test_one_normalization_per_record(normalizations, a, b, with_oracle):
    classify_record(new_curve(a, b), with_oracle=with_oracle)
    assert len(normalizations) == 1


def test_one_normalization_per_oracle_verb(normalizations, capsys):
    assert main(["oracle", "1/2", "1/3"]) == 0
    assert json.loads(capsys.readouterr().out)["per_prime"]
    assert len(normalizations) == 1


def test_quartics():
    c = new_curve(Fraction(3), Fraction(4))
    f = quartic_f(c)
    fhat = quartic_fhat(c)
    assert f.coeffs == (4, 0, 3, 0, 1)
    assert fhat.coeffs == (16 * (9 - 16), 0, 24, 0, 1)
    with pytest.raises(ValueError):
        quartic_f(new_curve(Fraction(1, 2), Fraction(1, 3)))


def test_fhat_root_structure():
    # roots of fhat are {+-2alpha +- 2beta} for f = (x^2-alpha^2)(x^2-beta^2):
    # f = x^4 + ax^2 + b with alpha^2 + beta^2 = -a, alpha^2 beta^2 = b.
    # Realize rational alpha, beta and check fhat factors on the stated roots.
    rng = random.Random(7)
    for _ in range(100):
        alpha = rng.randint(1, 9)
        beta = rng.randint(1, 9)
        a = -(alpha**2 + beta**2)
        b = alpha**2 * beta**2
        if b * (a * a - 4 * b) == 0:
            continue
        c = new_curve(Fraction(a), Fraction(b))
        fhat = quartic_fhat(c)
        for s1 in (1, -1):
            for s2 in (1, -1):
                assert fhat(Fraction(2 * s1 * alpha + 2 * s2 * beta)) == 0


def test_elliptic_quotients():
    c = new_curve(Fraction(3), Fraction(4))
    e, ehat = elliptic_quotients(c)
    assert e.role == "E" and e.c == 16 * (9 - 16)
    assert ehat.role == "Ehat" and ehat.c == 4


def test_genus2_model_frozen():
    m = genus2_model(new_curve(Fraction(1), Fraction(1)))
    assert m.s == 1
    assert m.lhs_scale == -1
    assert m.sextic == (-6, 18, -9, -14, 6, 6, 1)


def test_genus2_model_errors_and_special():
    with pytest.raises(NotACube):
        genus2_model(new_curve(Fraction(1), Fraction(2)))
    m = genus2_model(new_curve(Fraction(0), Fraction(8)))
    assert m.s == 2 and m.lhs_scale == 0


def test_genus2_sextic_consistency():
    # the expanded sextic must equal (x^2+2x-2)(s^3 x^4 + 4 s^3 x^3 + 2dx - d)
    # divided by the y^2 side convention; verify by re-expanding.
    rng = random.Random(8)
    for _ in range(60):
        s = Fraction(rng.randint(1, 6))
        a = Fraction(rng.randint(-9, 9))
        b = s**3
        if b * (a * a - 4 * b) == 0 or a == 0:
            continue
        c = new_curve(a, b)
        m = genus2_model(c)
        d = a * a - 4 * b
        left = [-2, 2, 1]  # x^2 + 2x - 2, ascending
        right = [-d, 2 * d, 0, 4 * s**3, s**3]
        prod = [Fraction(0)] * 7
        for i, u in enumerate(left):
            for k, v in enumerate(right):
                prod[i + k] += u * v
        assert tuple(prod) == m.sextic
        assert m.lhs_scale == -a * s


def test_dict_round_trip():
    rng = random.Random(9)
    for _ in range(100):
        c = _rand_curve(rng)
        assert curve_from_dict(curve_to_dict(c)) == c
    d = curve_to_dict(new_curve(Fraction(-5, 9), Fraction(2)))
    assert d == {"a": "-5/9", "b": "2"}
