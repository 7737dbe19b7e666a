"""Integer kernels of the structural path, checked against the Fraction formulas.

The references below are the `Fraction` expressions that discriminant,
j_invariant, bigonal_dual, elkies_t, biquadratic_roots and is_nth_power
evaluated before they moved to integer numerators and denominators: each
kernel must return the same values, still as `Fraction`.  A plain integral
record must build only a few Fractions, and the records of a seeded curve set
must stay byte-identical to the ones the Fraction formulas produced.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from prymlab import classify_record, new_curve
from prymlab.curves import bigonal_dual, discriminant, j_invariant
from prymlab.endomorphisms import CM_TABLE, elkies_t
from prymlab.errors import DegenerateCurve, DegenerateParameters
from prymlab.families import instantiate, list_families
from prymlab.polynomials import biquadratic_roots
from prymlab.rationals import is_nth_power


# -- the Fraction references ---------------------------------------------------

def _ref_is_nth_power(q, n):
    q = Fraction(q)
    if n == 1:
        return q
    if q == 0:
        return Fraction(0)
    if q < 0 and n % 2 == 0:
        return None
    num, den = _ref_exact_root(abs(q.numerator), n), _ref_exact_root(q.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den) if q > 0 else -Fraction(num, den)


def _ref_exact_root(m, k):
    # r with r^k == m >= 0 by binary search, else None
    lo, hi = 0, 1 << (m.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= m else (lo, mid)
    return lo if lo ** k == m else None


def _ref_biquadratic_roots(a, b):
    a, b = Fraction(a), Fraction(b)
    s = _ref_is_nth_power(a * a - 4 * b, 2)
    if s is None:
        return set()
    roots = set()
    for z in {(-a + s) / 2, (-a - s) / 2}:
        w = _ref_is_nth_power(z, 2)
        if w is not None:
            roots.update({w, -w})
    return roots


def _ref_curve_invariants(a, b):
    # discriminant, j, and the dual's (a, b)
    return (16 * b * (a * a - 4 * b), (4 * b - a * a) / (4 * b),
            (8 * a, 16 * (a * a - 4 * b)))


def _ref_elkies_t(j):
    j = Fraction(j)
    return (j + 1) ** 2 / (4 * j)


def _rand_rational(rng, digits, integral=False):
    num = rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(1, digits))
    return Fraction(num, 1 if integral else rng.randint(1, 10 ** rng.randint(1, digits)))


# -- kernel equivalence --------------------------------------------------------

def test_curve_invariants_match_fraction_formulas():
    rng = random.Random(91)
    checked = 0
    while checked < 600:
        integral = checked % 2 == 0
        a, b = _rand_rational(rng, 30, integral), _rand_rational(rng, 30, integral)
        if checked % 7 == 0:
            a = Fraction(0)
        try:
            c = new_curve(a, b)
        except DegenerateCurve:
            continue
        checked += 1
        delta, j, (da, db) = _ref_curve_invariants(a, b)
        dual = bigonal_dual(c)
        assert (discriminant(c), j_invariant(c), dual.a, dual.b) == (delta, j, da, db)
        assert dual == new_curve(da, db)  # built unchecked, smooth all the same
        for value in (discriminant(c), j_invariant(c), dual.a, dual.b):
            assert type(value) is Fraction


@pytest.mark.parametrize("a, b", [(Fraction(2, 3), Fraction(1, 9)), (0, 0), (4, 4)])
def test_new_curve_rejects_singular_pairs(a, b):
    with pytest.raises(DegenerateCurve):
        new_curve(a, b)


def test_new_curve_smoothness_matches_fraction_test():
    # the integer test b = 0 or an^2 bd = 4 bn ad^2 is the Fraction test
    # b == 0 or a^2 == 4b, also on pairs with a^2 = 4b
    rng = random.Random(95)
    for i in range(600):
        a, b = _rand_rational(rng, 12, i % 2 == 0), _rand_rational(rng, 12, i % 2 == 0)
        if i % 3 == 0:
            b = a * a / 4
        elif i % 3 == 1:
            b = a * a / 4 + rng.choice((-1, 1)) * Fraction(1, rng.randint(1, 10 ** 6))
        try:
            c = new_curve(a, b)
        except DegenerateCurve:
            assert b == 0 or a * a == 4 * b
        else:
            assert b != 0 and a * a != 4 * b and (c.a, c.b) == (a, b)


def test_elkies_t_matches_fraction_formula():
    rng = random.Random(92)
    for i in range(500):
        j = _rand_rational(rng, 25, integral=i % 3 == 0)
        if j == 0:
            continue
        for arg in ((j, int(j)) if j.denominator == 1 else (j,)):
            t = elkies_t(arg)
            assert t == _ref_elkies_t(arg) and type(t) is Fraction


def test_biquadratic_roots_int_and_fraction_inputs():
    # (x^2 - u)(x^2 - v) with rational u, v, squares half of the time, plus
    # random (a, b): the int path and the Fraction path give the reference set
    rng = random.Random(93)
    for i in range(800):
        if i % 2:
            u, v = (_rand_rational(rng, 8, integral=i % 4 == 1) for _ in range(2))
            if i % 3:
                u, v = u * u, v * v
            a, b = -(u + v), u * v
        else:
            a, b = _rand_rational(rng, 12, i % 4 == 0), _rand_rational(rng, 12, i % 4 == 0)
        expected = _ref_biquadratic_roots(a, b)
        got = biquadratic_roots(a, b)
        assert got == expected and all(type(r) is Fraction for r in got)
        if a.denominator == b.denominator == 1:
            got_int = biquadratic_roots(int(a), int(b))
            assert got_int == expected and all(type(r) is Fraction for r in got_int)


def test_is_nth_power_matches_fraction_reference():
    rng = random.Random(94)
    for i in range(1500):
        n = rng.randint(1, 12)
        base = _rand_rational(rng, 6, integral=i % 2 == 0)
        q = base ** n if i % 3 else _rand_rational(rng, 40, integral=i % 2 == 0)
        if i % 5 == 0 and q.denominator == 1:
            q += rng.choice((-1, 1))  # next to a power
        for arg in ((q, int(q)) if q.denominator == 1 else (q,)):
            got = is_nth_power(arg, n)
            assert got == _ref_is_nth_power(arg, n)
            assert got is None or type(got) is Fraction


# -- Fraction constructions per record ------------------------------------------

def test_plain_integral_record_builds_few_fractions(fraction_constructions):
    # the Fraction formulas built 117 for C(3, 4) and about 100 per box record;
    # the integer kernels build 11 and 7.7
    c = new_curve(3, 4)
    del fraction_constructions[:]
    classify_record(c)
    assert len(fraction_constructions) <= 12
    box = []
    for a in range(-30, 31):
        for b in range(1, 31):
            try:
                box.append(new_curve(a, b))
            except DegenerateCurve:
                continue
    del fraction_constructions[:]
    for c in box:
        classify_record(c)
    assert len(fraction_constructions) <= 8 * len(box)


# -- records pinned to the Fraction formulas' output -----------------------------

def _pinned_inputs(seed=20261018, per_kind=40):
    # integral and non-integral a and b, heights up to 10^30, a = 0, b a cube,
    # scaled models (l^6 a, l^12 b), every CM j and 1/j, and family members;
    # the oracle runs on every 30th curve
    rng = random.Random(seed)

    def height(digits):
        return rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, digits))

    def smooth_den():
        return rng.choice((1, 2, 3, 4, 6, 9, 12, 64, 729, 2 ** 12 * 3 ** 7, 10 ** 9 + 7))

    pairs = []
    for _ in range(per_kind):
        pairs.append((rng.randint(-30, 30), rng.randint(-30, 30)))
        pairs.append((height(30), height(30)))
        pairs.append((Fraction(height(12), smooth_den()), Fraction(height(12), smooth_den())))
        pairs.append((0, Fraction(height(20), smooth_den())))
        t = Fraction(height(6), rng.randint(1, 30))
        pairs.append((Fraction(height(8), smooth_den()), t ** 3))
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        pairs.append((lam ** 6 * a, lam ** 12 * b))
    for j in CM_TABLE:
        for jj in dict.fromkeys((j, 1 / j)):
            for a in (Fraction(2), Fraction(rng.randint(-50, 50), rng.randint(1, 9))):
                pairs.append((0, 1) if jj == 1 else (a, a * a / (4 * (1 - jj))))
    for spec in list_families():
        for _ in range(3):
            params = {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for n in spec.param_names}
            try:
                c = instantiate(spec.id, params)
            except DegenerateParameters:
                continue
            pairs.append((c.a, c.b))
    out = []
    for i, (a, b) in enumerate(pairs):
        try:
            out.append((new_curve(a, b), i % 30 == 0))
        except DegenerateCurve:
            continue
    return out


# sha256 of the classify_record JSON lines (sort_keys, one per line) that the
# Fraction formulas produced for _pinned_inputs(): 309 curves, 11 with oracle
_PINNED_RECORDS = "542f7551bfdbe22dbf5f8ef6c8f83ff8bd188c0340ca19db34338964b8bd780f"


def test_records_match_fraction_formulas_digest():
    inputs = _pinned_inputs()
    assert (len(inputs), sum(oracle for _, oracle in inputs)) == (309, 11)
    h = hashlib.sha256()
    for c, oracle in inputs:
        line = json.dumps(classify_record(c, with_oracle=oracle), sort_keys=True)
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == _PINNED_RECORDS
