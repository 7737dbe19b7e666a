"""Endomorphism field, CM table, end ring, Sato-Tate labels, Elkies map."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from prymlab import classify_record, endo_profile, endomorphisms
from prymlab.curves import bigonal_dual, discriminant, j_invariant, new_curve, sextic_twist
from prymlab.endomorphisms import (
    CM_TABLE,
    EndRing,
    cm_discriminant,
    elkies_t,
    end_ring,
    endo_field,
    is_gl2_type,
    is_principally_polarizable,
    lifts_to_Y,
    ns_rank,
    sato_tate_label,
)
from prymlab.errors import CMNotSupported, DegenerateParameters
from prymlab.families import instantiate
from prymlab.rationals import is_nth_power
from prymlab.torsion import torsion_group, torsion_to_dict


def _curve_with_j(j):
    """(2(1-j), 1-j) has j-invariant j; valid for j != 0, 1."""
    if j == 1:
        return new_curve(Fraction(0), Fraction(1))
    return new_curve(2 * (1 - j), 1 - j)


def _rand_curve(rng, span=30):
    while True:
        a = Fraction(rng.randint(-span, span), rng.randint(1, 4))
        b = Fraction(rng.randint(-span, span), rng.randint(1, 4))
        if b != 0 and a * a != 4 * b:
            return new_curve(a, b)


def test_endo_field_frozen_examples():
    d1 = endo_field(new_curve(Fraction(3), Fraction(4)))
    assert (d1.d, d1.degree, d1.group_label) == (6, 12, "D6")
    d2 = endo_field(new_curve(Fraction(-4), Fraction(2)))
    assert (d2.d, d2.degree, d2.group_label) == (3, 6, "D3")
    d3 = endo_field(new_curve(Fraction(8), Fraction(8)))
    assert (d3.d, d3.degree, d3.group_label) == (1, 2, "D1")


def test_endo_field_d2_cases():
    # delta = -3 * square gives d2 = 1 through the -3*delta branch
    # delta(a, b) = 16 b (a^2 - 4b); pick b = -3, a = 1: delta = -48*13 = -624
    # -3*delta = 1872 = 16*117 not a square; search structurally instead
    rng = random.Random(10)
    seen_branch = 0
    for _ in range(2000):
        c = _rand_curve(rng, span=40)
        desc = endo_field(c)
        delta = desc.delta
        sq = lambda q: q > 0 and (
            q.numerator == _isqrt(q.numerator) ** 2
            and q.denominator == _isqrt(q.denominator) ** 2
        )
        expected_d2 = 1 if (sq(delta) or sq(-3 * delta)) else 2
        assert desc.d2 == expected_d2
        if expected_d2 == 1 and sq(-3 * delta) and not sq(delta):
            seen_branch += 1
    assert seen_branch > 0


def _isqrt(n):
    import math

    return math.isqrt(n)


def test_cm_table_all_rows():
    expected = {
        Fraction(1): -4,
        Fraction(-1): -24,
        Fraction(256, 135): -75,
        Fraction(-27): -84,
        Fraction(27, 125): -120,
        Fraction(15625, 729): -228,
        Fraction(-48384, 15625): -147,
        Fraction(-1771561, 421875): -372,
        Fraction(-11390625, 4913): -408,
    }
    assert dict(CM_TABLE) == expected
    for j, disc in expected.items():
        c = _curve_with_j(j)
        assert j_invariant(c) == j
        assert cm_discriminant(c) == disc
        # 1/j matches through the inverse branch
        if j != 1:
            c_inv = _curve_with_j(1 / j)
            assert cm_discriminant(c_inv) == disc


def test_cm_via_dual():
    # the bigonal dual has j -> 1/j, so CM status is dual-invariant
    for j in CM_TABLE:
        c = _curve_with_j(j)
        assert cm_discriminant(bigonal_dual(c)) == cm_discriminant(c)


def test_cm_negative_samples():
    rng = random.Random(12)
    hits = 0
    for _ in range(100):
        c = _rand_curve(rng, span=60)
        if cm_discriminant(c) is not None:
            hits += 1
    assert hits <= 2  # CM is rare in a random box


def test_cm_lookup_by_j_or_inverse():
    # the one-lookup table: no inverted key lands on another entry, and
    # j = 1, -1 are their own inverses with the same discriminant
    table = endomorphisms._CM_BY_J_OR_INVERSE
    for j, disc in CM_TABLE.items():
        assert 1 / j not in CM_TABLE or 1 / j == j in (1, -1)
        assert table[j] == table[1 / j] == disc
    assert len(table) == 2 * len(CM_TABLE) - 2

    def two_step(j):
        hit = CM_TABLE.get(j)
        return CM_TABLE.get(1 / j) if hit is None else hit

    rng = random.Random(13)
    js = list(CM_TABLE) + [1 / j for j in CM_TABLE]
    js += [Fraction(rng.randint(-10 ** rng.randint(1, 8), 10 ** rng.randint(1, 8)) or 1,
                    rng.randint(1, 10 ** rng.randint(1, 8))) for _ in range(500)]
    for j in js:
        assert cm_discriminant(_curve_with_j(j)) == two_step(j)


def test_end_ring_ladder():
    # CM beats RM: (8,8) has j = -1
    r = end_ring(new_curve(Fraction(8), Fraction(8)))
    assert r.kind == "CM" and r.cm_discriminant == -24
    # delta a sixth power: rm_sqrt2 member (t=1, d=1): a=2*(1+1)^2*1=8, b=(1+1)^3=8
    # is CM; use t=2,d=1: a = 2*25*2 = 100? a = 2*(t^2+1)^2*t = 2*25*2 = 100,
    # b = (t^2+1)^3*t^2 = 125*4 = 500
    c = new_curve(Fraction(100), Fraction(500))
    assert end_ring(c).kind == "Z_sqrt2"
    # -27*delta a sixth power: rm_sqrt6 member t=1,d=1: a=18*1*(1-3)^2=72,
    # b=81*1*(1-3)^3=-648
    c6 = new_curve(Fraction(72), Fraction(-648))
    assert end_ring(c6).kind == "Z_sqrt6"
    # generic
    assert end_ring(new_curve(Fraction(3), Fraction(4))).kind == "Z"


def _sixth_power_ring(c):
    """Reference: End(P) by testing delta and -27*delta for sixth powers."""
    disc = cm_discriminant(c)
    if disc is not None:
        return "CM"
    delta = discriminant(c)
    if is_nth_power(delta, 6) is not None:
        return "Z_sqrt2"
    if is_nth_power(-27 * delta, 6) is not None:
        return "Z_sqrt6"
    return "Z"


def test_end_ring_matches_sixth_power_rule():
    # end_ring and is_gl2_type read d = 1 and the sign of delta off endo_field
    rng = random.Random(16)
    curves = [_rand_curve(rng, span=60) for _ in range(1500)]
    curves += [_curve_with_j(j) for j in CM_TABLE]
    curves += [_curve_with_j(1 / j) for j in CM_TABLE if j != 1]

    def rand_q():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 9))

    draws = [("rm_sqrt2", ("t", "d")), ("rm_sqrt6", ("t", "d")),
             ("gl2_sqrt2_F9", ("t",)), ("gl2_sqrt6_Z3", ("t",))]
    for family_id, names in draws:
        for _ in range(150):
            try:
                curves.append(instantiate(family_id, {n: rand_q() for n in names}))
            except DegenerateParameters:
                pass
    kinds = Counter()
    for c in curves:
        expected = _sixth_power_ring(c)
        delta = discriminant(c)
        gl2 = is_nth_power(delta, 6) is not None or is_nth_power(-27 * delta, 6) is not None
        assert end_ring(c).kind == expected, c
        assert is_gl2_type(c) == gl2, c
        # the printed claims are the public predicates' claims; the two that
        # need a non-CM Prym are null exactly where their predicates refuse
        profile = endo_profile(c)
        assert EndRing(profile["end_ring"], profile["cm_discriminant"]) == end_ring(c), c
        assert profile["gl2_type"] == gl2, c
        assert profile["sato_tate"] == sato_tate_label(c), c
        for key, predicate in (("principally_polarizable", is_principally_polarizable),
                               ("ns_rank", ns_rank)):
            try:
                claim = predicate(c)
            except CMNotSupported:
                claim = None
            assert profile[key] == claim, (key, c)
        kinds[expected] += 1
    assert set(kinds) == {"Z", "Z_sqrt2", "Z_sqrt6", "CM"}


@pytest.fixture
def endo_calls(monkeypatch):
    """Calls of endo_field, cm_discriminant and j_invariant, rebound wherever
    prymlab holds them."""
    calls = Counter()
    for fn in (endo_field, cm_discriminant, j_invariant):
        def counting(c, fn=fn):
            calls[fn.__name__] += 1
            return fn(c)

        for name, module in list(sys.modules.items()):
            if name.startswith("prymlab") and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    return calls


@pytest.mark.parametrize("with_oracle", [False, True])
def test_end_ring_derived_once_per_record(endo_calls, with_oracle):
    # Z, CM, Z[sqrt2] and Z[sqrt6]; torsion_group(c) alone derives the same module label
    curves = [new_curve(3, 4), _curve_with_j(-1), new_curve(100, 500), new_curve(72, -648)]
    kinds = set()
    for c in curves:
        endo_calls.clear()
        record = classify_record(c, with_oracle=with_oracle)
        assert endo_calls == {"endo_field": 1, "j_invariant": 1}, c
        assert record["torsion"] == torsion_to_dict(torsion_group(c))
        kinds.add(record["endo"]["end_ring"])
    assert kinds == {"Z", "CM", "Z_sqrt2", "Z_sqrt6"}


def test_gl2_type():
    assert is_gl2_type(new_curve(Fraction(100), Fraction(500)))
    assert is_gl2_type(new_curve(Fraction(72), Fraction(-648)))
    assert not is_gl2_type(new_curve(Fraction(3), Fraction(4)))


def test_polarization_and_ns_rank():
    c_rm2 = new_curve(Fraction(100), Fraction(500))
    assert is_principally_polarizable(c_rm2)
    # delta(100, 500) = 20^6, so d = 1 and the Neron-Severi rank is 2
    assert ns_rank(c_rm2) == 2
    c_gen = new_curve(Fraction(3), Fraction(4))
    assert not is_principally_polarizable(c_gen)
    assert ns_rank(c_gen) == 1
    for fn in (is_principally_polarizable, ns_rank):
        with pytest.raises(CMNotSupported):
            fn(new_curve(Fraction(8), Fraction(8)))


def test_sato_tate_labels():
    assert sato_tate_label(new_curve(Fraction(3), Fraction(4))) == "J(E_6)"
    assert sato_tate_label(new_curve(Fraction(-4), Fraction(2))) == "J(E_3)"
    assert sato_tate_label(new_curve(Fraction(8), Fraction(8))) is None  # D1


def test_elkies_t():
    assert elkies_t(Fraction(7, 16)) == Fraction(23 * 23, 4 * 7 * 16)
    rng = random.Random(13)
    for _ in range(300):
        j = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if j == 0:
            continue
        t = elkies_t(j)
        assert t == (j + 1) ** 2 / (4 * j)
        assert elkies_t(1 / j) == t  # t is dual-invariant
        assert lifts_to_Y(t)  # t(t-1) = ((j^2-1)/4j)^2 is always a square
        assert t * (t - 1) == ((j * j - 1) / (4 * j)) ** 2


def test_elkies_t_zero_check_under_O():
    # ValueError, not assert: under python -O elkies_t(0) raised ZeroDivisionError
    with pytest.raises(ValueError, match="elkies_t needs j != 0"):
        elkies_t(0)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from fractions import Fraction\n"
        "from prymlab.endomorphisms import elkies_t\n"
        "for j in (0, Fraction(0)):\n"
        "    try:\n"
        "        print(elkies_t(j))\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError: elkies_t needs j != 0\n" * 2


def test_twist_invariance_of_endo_data():
    rng = random.Random(14)
    for _ in range(100):
        c = _rand_curve(rng)
        lam6 = Fraction(rng.randint(1, 5)) ** 6
        t = sextic_twist(c, lam6)
        assert endo_field(t).group_label == endo_field(c).group_label
        assert cm_discriminant(t) == cm_discriminant(c)
        assert end_ring(t) == end_ring(c)
