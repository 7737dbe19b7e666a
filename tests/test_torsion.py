"""Rational torsion of the Prym: 2-part, 3-part, group assembly."""

import random
from fractions import Fraction

import pytest

from prymlab.curves import new_curve, sextic_twist
from prymlab.endomorphisms import EndRing
from prymlab.errors import InternalInconsistency
from prymlab.torsion import (
    EXACT,
    LOWER_BOUND,
    end_module_structure,
    p_torsion_rank,
    three_part,
    torsion_group,
    torsion_to_dict,
    two_torsion,
)

CLASSIFIED_GROUPS = {
    "trivial",
    "Z/2",
    "Z/3",
    "Z/2 x Z/2",
    "Z/6",
    "Z/3 x Z/3",
    "Z/6 x Z/3",
}

# one curve (a, b) per classified shape (m, n) of (Z/2)^m x (Z/3)^n
SHAPE_CURVES = {
    (0, 0): (-4, 2),
    (1, 0): (-2, 2),
    (0, 1): (3, 4),
    (1, 1): (-16, 576),  # table2_Z6 at c = 2
    (2, 0): (-26, -343),  # table2_Z2xZ2 at w = -1, d = 1
    (0, 2): (-5, 4),
    (1, 2): (-720, 82944),  # table2_Z3xZ6 at c = 2
}

# over Z[sqrt(D)] the torsion is Z[sqrt(D)]/a_p: the admissible shapes and labels
RM_MODULES = {
    "Z_sqrt2": {(0, 0): "trivial", (1, 0): "mod_a2", (0, 2): "mod_a3"},
    "Z_sqrt6": {(0, 0): "trivial", (1, 0): "mod_a2", (0, 1): "mod_a3"},
}


def _c(a, b):
    return new_curve(Fraction(a), Fraction(b))


def _invariant_factors(m, n):
    # reference: (Z/2)^m x (Z/3)^n as invariant factors, largest first
    factors = []
    for i in range(max(m, n)):
        f = (2 if i < m else 1) * (3 if i < n else 1)
        factors.append(f)
    return tuple(factors)


def test_two_torsion_e_part_only():
    # 16(a^2-4b) = -64 is a cube but b = 2 is not: rank 1, no lift
    rep = two_torsion(_c(-2, 2))
    assert (rep.e_part, rep.lift, rep.rank) == (1, 0, 1)
    assert rep.witness_root is None


def test_two_torsion_lift():
    # two_lift family at s = 1, d = 1: (a, b) = (7, 343), t = 7; g has root -7
    rep = two_torsion(_c(7, 343))
    assert rep.ehat_point == 7
    assert rep.lift == 1
    assert rep.rank >= 1
    assert rep.witness_root == -7
    g = lambda z: z**4 - 6 * 7 * z**2 + 4 * 7 * z - 3 * 49
    assert g(rep.witness_root) == 0


def test_two_torsion_trivial():
    rep = two_torsion(_c(3, 4))
    assert rep.rank == 0


def test_three_part_split():
    # f = x^4 - 5x^2 + 4 = (x-1)(x+1)(x-2)(x+2): full 3-torsion
    rep = three_part(_c(-5, 4))
    assert rep.r == 2
    assert rep.status == EXACT
    assert rep.lower == rep.upper == 2
    assert {abs(w) for w in rep.witnesses} == {1, 2}


def test_three_part_single_root():
    rep = three_part(_c(3, 4))  # fhat has roots +-2
    assert rep.r == 1
    assert rep.status == EXACT  # twist has rank 0
    assert rep.upper == 1


def test_three_part_twist_blocks_exactness():
    # search for a curve where r < 2 and the twist also has a root, giving
    # only a lower bound without oracle help
    rng = random.Random(31)
    found = None
    for _ in range(4000):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        if b == 0 or a * a == 4 * b:
            continue
        c = _c(a, b)
        rep = three_part(c)
        if rep.status == LOWER_BOUND:
            found = (c, rep)
            break
    assert found is not None
    c, rep = found
    assert rep.r < 2 and rep.r_twist > 0
    assert rep.upper == min(2, rep.r + rep.r_twist)
    # an oracle bound with exactly matching 3-valuation upgrades to exact
    upgraded = three_part(c, oracle_bound=3**rep.r * 2)
    assert upgraded.status == EXACT and upgraded.upper == rep.r


def test_three_part_oracle_contradiction():
    c = _c(3, 4)  # r = 1
    with pytest.raises(InternalInconsistency):
        three_part(c, oracle_bound=2)  # v_3(2) = 0 < 1


def test_torsion_group_oracle_two_part_contradiction():
    c = _c(-10, 17)  # two_rank 1: Z/2 cannot divide an oracle bound of 3
    assert torsion_group(c).group_name == "Z/2"
    with pytest.raises(InternalInconsistency,
                       match=r"^oracle 2-part 0 below proven rank 1 for C\(-10, 17\)$"):
        torsion_group(c, oracle_bound=3)  # v_2(3) = 0 < 1
    assert torsion_group(c, oracle_bound=2).group_name == "Z/2"


def test_three_part_twist_rank_matches_integral_twist():
    # three_part ranks the -27 twist of the integral model as given; the
    # reference takes the twist of c and its own integral model
    rng = random.Random(34)
    ranks = set()
    for _ in range(300):
        u, w = rng.randint(1, 9), rng.randint(-20, 20)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if w == 0 or w == u * u:
            continue
        # f = (x^2 - u^2)(x^2 - w) has rank >= 1; its rescaled -27 twist c
        # has a -27 twist of the same rank, since 729 = 3^6
        f = new_curve(-(u * u + w), u * u * w)
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        plain = [] if b == 0 or a * a == 4 * b else [new_curve(a, b)]
        for c in [sextic_twist(f, -27 * lam**6)] + plain:
            rep = three_part(c)
            assert rep.r_twist == p_torsion_rank(sextic_twist(c, -27))[0], c
            ranks.add(rep.r_twist)
    assert ranks == {0, 1, 2}


def test_three_part_zero_oracle_bound_is_no_information():
    for c in (_c(3, 4), _c(-5, 4)):
        assert three_part(c, oracle_bound=0) == three_part(c)


def test_p_torsion_rank():
    rank, roots = p_torsion_rank(_c(-5, 4))
    assert rank == 2 and len(roots) == 4
    rank2, roots2 = p_torsion_rank(_c(3, 4))
    assert rank2 == 1 and roots2 == {Fraction(2), Fraction(-2)}


def test_torsion_group_frozen():
    assert torsion_group(_c(3, 4)).group_name == "Z/3"
    assert torsion_group(_c(-5, 4)).group_name == "Z/3 x Z/3"
    assert torsion_group(_c(-2, 2)).group_name == "Z/2"
    assert torsion_group(_c(-4, 2)).group_name == "trivial"
    # order-18 family at c = 2: (-720, 82944)
    rep = torsion_group(_c(-720, 82944))
    assert rep.group_name == "Z/6 x Z/3"
    assert rep.invariant_factors == (6, 3)
    assert rep.status == EXACT


def test_torsion_group_table_through_ring():
    rings = [EndRing("Z"), EndRing("Z_sqrt2"), EndRing("Z_sqrt6"), EndRing("CM", -4)]
    names, refused = set(), 0
    for (m, n), (a, b) in SHAPE_CURVES.items():
        c = _c(a, b)
        factors = _invariant_factors(m, n)
        for ring in rings:
            if ring.kind in RM_MODULES and (m, n) not in RM_MODULES[ring.kind]:
                message = rf"^torsion \({m}, {n}\) impossible for End = {ring.kind} on "
                with pytest.raises(InternalInconsistency, match=message):
                    torsion_group(c, ring=ring)
                refused += 1
                continue
            rep = torsion_group(c, ring=ring)
            assert (rep.two.rank, rep.three.r) == (m, n)
            assert rep.invariant_factors == factors
            assert rep.group_name == (" x ".join(f"Z/{f}" for f in factors) or "trivial")
            assert rep.end_module == RM_MODULES.get(ring.kind, {}).get((m, n))
            names.add(rep.group_name)
    assert names == CLASSIFIED_GROUPS
    assert refused == 2 * len(SHAPE_CURVES) - 6  # every RM pair off the table


def test_torsion_group_shapes_only_classified_list():
    rng = random.Random(32)
    for _ in range(400):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if b == 0 or a * a == 4 * b:
            continue
        rep = torsion_group(_c(a, b))
        assert rep.group_name in CLASSIFIED_GROUPS
        two = rep.two.rank
        three = rep.three.lower
        if two == 2:
            assert three == 0


def test_end_module_structure():
    # rm_sqrt2 t=2, d=1: (100, 500), torsion trivial
    assert end_module_structure(_c(100, 500)) == "trivial"
    # gl2_sqrt6_Z3 t=1: (9/2, -3888/256); torsion Z/3 over Z_sqrt6 -> mod_a3
    assert end_module_structure(new_curve(Fraction(9, 2), Fraction(-243, 16))) == "mod_a3"
    # not RM: None
    assert end_module_structure(_c(3, 4)) is None


def test_torsion_to_dict_schema():
    d = torsion_to_dict(torsion_group(_c(-720, 82944)))
    assert d["group"] == "Z/6 x Z/3"
    assert d["invariant_factors"] == [6, 3]
    assert d["status"] == "exact"
    assert d["two_rank"] == 1 and d["three_rank"] == 2
    assert isinstance(d["witnesses"]["three_roots"], list)
    assert all(isinstance(w, str) for w in d["witnesses"]["three_roots"])
