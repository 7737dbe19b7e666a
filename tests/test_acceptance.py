"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose report gives a
pass/fail line per criterion; ``-s`` additionally shows the CRITERION prints.
"""

import math
import random
from fractions import Fraction

import pytest

from prymlab.curves import (
    bigonal_dual,
    integral_model,
    is_isomorphic_marked,
    j_invariant,
    new_curve,
    quartic_fhat,
    sextic_twist,
)
from prymlab.endomorphisms import (
    CM_TABLE,
    cm_discriminant,
    end_ring,
    endo_field,
    sato_tate_label,
)
from prymlab.errors import DegenerateCurve, DegenerateParameters
from prymlab.families import get_family, instantiate
from prymlab.oracle import (
    count_points_C,
    count_points_C_naive,
    count_points_E,
    good_primes,
    l_polynomial,
    prym_order,
    torsion_multiplicative_bound,
)
from prymlab.torsion import three_part, torsion_group, two_torsion

from finitefields import count_points_C3  # the tests' own N_3: no table shared with the oracle

CLASSIFIED_GROUPS = {
    "trivial",
    "Z/2",
    "Z/3",
    "Z/2 x Z/2",
    "Z/6",
    "Z/3 x Z/3",
    "Z/6 x Z/3",
}


def _curve_with_j(j):
    if j == 1:
        return new_curve(Fraction(0), Fraction(1))
    return new_curve(2 * (1 - j), 1 - j)


def _rand_box_curve(rng, span):
    while True:
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        if b != 0 and a * a != 4 * b:
            return new_curve(Fraction(a), Fraction(b))


def test_criterion_1_table1_reproduction():
    # ten table rows: nine smooth constructions match their discriminant; the
    # j = 0 row cannot be realized smoothly (j = 0 forces a^2 = 4b)
    table = {
        Fraction(0): -3,
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
    for j, disc in table.items():
        if j == 0:
            with pytest.raises(DegenerateCurve):
                _curve_with_j(j)
            continue
        assert cm_discriminant(_curve_with_j(j)) == disc
    assert dict(CM_TABLE) == {j: d for j, d in table.items() if j != 0}

    rng = random.Random(201)
    checked = 0
    while checked < 100:
        j = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))
        if j in (0, 1) or j in table or (j != 0 and 1 / j in table):
            continue
        assert cm_discriminant(_curve_with_j(j)) is None
        checked += 1
    print("CRITERION 1: PASS")


def test_criterion_2_table2_containment():
    rows = [
        ("table2_trivial", 1),
        ("table2_Z2", 2),
        ("table2_Z3_f", 3),
        ("table2_Z2xZ2", 4),
        ("table2_Z6", 6),
        ("table2_Z3xZ3", 9),
        ("table2_Z3xZ6", 18),
    ]
    rng = random.Random(202)
    for fam_id, order in rows:
        spec = get_family(fam_id)
        m_exp, n_exp = _shape_of(order)
        done = 0
        while done < 10:
            params = {
                name: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                for name in spec.param_names
            }
            try:
                c = instantiate(fam_id, params)
            except DegenerateParameters:
                continue
            assert two_torsion(c).rank >= m_exp, (fam_id, params)
            assert three_part(c).lower >= n_exp, (fam_id, params)
            bound = torsion_multiplicative_bound(c, good_primes(c, 5))
            assert bound % order == 0, (fam_id, params)
            done += 1
    print("CRITERION 2: PASS")


def _shape_of(order):
    return {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (2, 0), 6: (1, 1),
            9: (0, 2), 18: (1, 2)}[order]


def test_criterion_3_maximal_torsion_family():
    for cval in (2, 3, 4, 5):
        c = instantiate("table2_Z3xZ6", {"c": Fraction(cval)})
        rep = torsion_group(c)
        assert rep.group_name == "Z/6 x Z/3"
        assert rep.status == "Exact"
        gcd = torsion_multiplicative_bound(c, good_primes(c, 4))
        assert gcd % 18 == 0, cval
    print("CRITERION 3: PASS")


def test_criterion_4_endo_field_examples():
    c1 = new_curve(Fraction(3), Fraction(4))
    d1 = endo_field(c1)
    assert d1.degree == 12 and d1.group_label == "D6"
    assert sato_tate_label(c1) == "J(E_6)"
    c2 = new_curve(Fraction(-4), Fraction(2))
    d2 = endo_field(c2)
    assert d2.degree == 6 and d2.group_label == "D3"
    assert sato_tate_label(c2) == "J(E_3)"
    print("CRITERION 4: PASS")


def test_criterion_5_module_suite():
    for t in range(2, 13):
        c = instantiate("gl2_sqrt2_F9", {"t": Fraction(t)})
        if cm_discriminant(c) is not None:
            continue
        assert end_ring(c).kind == "Z_sqrt2", t
        rep = torsion_group(c)
        assert rep.end_module == "mod_a3", (t, rep.group_name)
        assert rep.group_name == "Z/3 x Z/3"
    for t in range(2, 13):
        c = instantiate("gl2_sqrt6_Z3", {"t": Fraction(t)})
        if cm_discriminant(c) is not None:
            continue
        assert end_ring(c).kind == "Z_sqrt6", t
        rep = torsion_group(c)
        assert rep.end_module == "mod_a3", (t, rep.group_name)
        assert rep.group_name == "Z/3", t
    print("CRITERION 5: PASS")


def test_criterion_6_global_shape_property():
    rng = random.Random(206)
    for _ in range(1000):
        c = _rand_box_curve(rng, 50)
        rep = torsion_group(c)
        assert rep.group_name in CLASSIFIED_GROUPS
        if rep.two.rank == 2:
            assert rep.three.r == 0 and rep.three.r_twist == 0
        order = math.prod(rep.invariant_factors)
        bound = torsion_multiplicative_bound(c, good_primes(c, 3))
        assert bound % order == 0, (c.a, c.b)
    print("CRITERION 6: PASS")


def test_criterion_7_algebraic_identities():
    rng = random.Random(207)
    done = 0
    while done < 500:
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        if b == 0 or a * a == 4 * b:
            continue
        c = new_curve(a, b)
        assert j_invariant(bigonal_dual(c)) == 1 / j_invariant(c)
        assert is_isomorphic_marked(c, bigonal_dual(bigonal_dual(c))) == 2
        # fhat via elementary symmetric functions of the root squares of f:
        # e1 = alpha^2 + beta^2 = -a, e2 = alpha^2 beta^2 = b, so the stated
        # form x^4 - 8 e1 x^2 + 16 (e1^2 - 4 e2) must be what quartic_fhat emits
        m = integral_model(c)
        e1, e2 = -m.a, m.b
        assert quartic_fhat(m).coeffs == (16 * (e1 * e1 - 4 * e2), 0, -8 * e1, 0, 1)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        tw = sextic_twist(c, lam**6)
        got = is_isomorphic_marked(c, tw)
        assert got is not None and got**6 == lam**6
        done += 1
    print("CRITERION 7: PASS")


def test_criterion_8_oracle_self_consistency():
    rng = random.Random(208)
    pairs = 0
    while pairs < 100:
        c = _rand_box_curve(rng, 30)
        p = rng.choice(good_primes(c, 6))
        m = integral_model(c)
        n3 = count_points_C3(m.a.numerator, m.b.numerator, p)
        counts = [count_points_C(c, p, 1), count_points_C(c, p, 2), n3]
        lp = l_polynomial(counts, p, 3)
        cs = lp.coeffs
        assert cs[4] == p * cs[2] and cs[5] == p * p * cs[1] and cs[6] == p**3
        assert cs[1] ** 2 <= 36 * p
        pc = prym_order(c, p)  # L_P from character sums or N_2, and #E(F_p); L_C = L_E * L_P
        # the N_3 route is the independent reference for L_C = L_E * L_P
        assert lp.coeffs == pc.l_c.coeffs
        prod = [0] * 7
        for i, u in enumerate(pc.l_e.coeffs):
            for k, v in enumerate(pc.l_p):
                prod[i + k] += u * v
        assert tuple(prod) == pc.l_c.coeffs
        mid, spread = p * p + 6 * p + 1, 4 * (p + 1)
        assert (pc.order - mid) ** 2 <= spread * spread * p
        if p % 3 == 2:
            assert counts[0] == p + 1
        if p <= 50:
            assert counts[0] == count_points_C_naive(c, p)
        pairs += 1
    print("CRITERION 8: PASS")


def test_criterion_9_spot_values():
    c = new_curve(Fraction(-5), Fraction(4))
    assert count_points_C(c, 7, 1) == 5
    from prymlab.curves import elliptic_quotients

    ehat = elliptic_quotients(c)[1]
    assert ehat.c == 4
    assert count_points_E(ehat, 7) == 3
    assert prym_order(c, 7).order % 9 == 0
    print("CRITERION 9: PASS")
