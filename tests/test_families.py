"""Parametric family registry: instantiation, degeneracy, expected invariants."""

import ast
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from prymlab.curves import discriminant, j_invariant, new_curve
from prymlab.endomorphisms import cm_discriminant, end_ring
from prymlab.errors import DegenerateParameters, UnknownFamily
from prymlab import families
from prymlab.families import (
    expected_torsion,
    expected_torsion_shape,
    get_family,
    instantiate,
    list_families,
)
from prymlab.rationals import is_nth_power
from prymlab.torsion import three_part, torsion_group, two_torsion

ALL_IDS = [
    "table2_trivial",
    "table2_Z2",
    "table2_Z3_f",
    "Z3_fhat",
    "table2_Z2xZ2",
    "Z6_case1",
    "table2_Z6",
    "Z6_case3",
    "Z6_case4",
    "table2_Z3xZ3",
    "table2_Z3xZ6",
    "two_lift",
    "rm_sqrt2",
    "rm_sqrt6",
    "gl2_sqrt2_F9",
    "gl2_sqrt6_Z3",
]


def _params(rng, spec, span=9):
    return {
        name: Fraction(rng.randint(-span, span), rng.randint(1, 3))
        for name in spec.param_names
    }


def _sample(rng, fam_id, span=9):
    spec = get_family(fam_id)
    while True:
        try:
            return instantiate(fam_id, _params(rng, spec, span))
        except DegenerateParameters:
            continue


def test_registry_ids():
    assert [spec.id for spec in list_families()] == ALL_IDS
    assert get_family("Z6_case2").id == "table2_Z6"  # alias
    with pytest.raises(UnknownFamily):
        get_family("nope")


def test_instantiate_validation():
    with pytest.raises(UnknownFamily):
        instantiate("table2_Z2", {"s": Fraction(1)})  # missing t
    with pytest.raises(UnknownFamily):
        instantiate("table2_Z2", {"s": Fraction(1), "t": Fraction(1), "x": Fraction(1)})


def test_known_members():
    # table2_Z3xZ6 at c=2, d implicit: the order-18 curve (-720, 82944)
    c = instantiate("table2_Z3xZ6", {"c": Fraction(2)})
    assert (c.a, c.b) == (-720, 82944)
    # two_lift at s=1, d=1 gives (7, 343) with b = 7^3
    c2 = instantiate("two_lift", {"s": Fraction(1), "d": Fraction(1)})
    assert (c2.a, c2.b) == (7, 343)


def test_degenerate_loci():
    cases = [
        ("table2_Z2xZ2", {"w": 0, "d": 1}),
        ("table2_Z2xZ2", {"w": 1, "d": 1}),
        ("table2_Z2xZ2", {"w": Fraction(-1, 2), "d": 1}),
        ("table2_Z3xZ6", {"c": 0}),
        ("table2_Z3xZ6", {"c": 1}),
        ("table2_Z3xZ6", {"c": -1}),
        ("two_lift", {"s": Fraction(-3, 4), "d": 1}),
        ("two_lift", {"s": Fraction(3, 2), "d": 1}),
        ("two_lift", {"s": Fraction(-1, 2), "d": 1}),
        ("gl2_sqrt2_F9", {"t": 0}),
        ("gl2_sqrt2_F9", {"t": 1}),
        ("gl2_sqrt2_F9", {"t": -1}),
        ("gl2_sqrt6_Z3", {"t": 0}),
        ("table2_trivial", {"a": 2, "b": 1}),
    ]
    for fam_id, params in cases:
        with pytest.raises(DegenerateParameters):
            instantiate(fam_id, {k: Fraction(v) for k, v in params.items()})


def test_expected_torsion_table():
    assert expected_torsion("table2_trivial") == "trivial"
    assert expected_torsion("table2_Z2") == "Z/2"
    assert expected_torsion("table2_Z3_f") == "Z/3"
    assert expected_torsion("table2_Z6") == "Z/6"
    assert expected_torsion("table2_Z3xZ6") == "Z/6 x Z/3"
    assert expected_torsion("gl2_sqrt2_F9") == "Z/3 x Z/3"
    assert expected_torsion("gl2_sqrt6_Z3") == "Z/3"
    assert expected_torsion("rm_sqrt2") == "trivial"
    assert expected_torsion_shape("table2_Z3xZ6") == (1, 2)


def test_torsion_containment_per_family():
    # each family's curves contain the advertised subgroup structurally
    rng = random.Random(101)
    for fam_id in ALL_IDS:
        m_exp, n_exp = expected_torsion_shape(fam_id)
        for _ in range(4):
            c = _sample(rng, fam_id, span=6)
            if cm_discriminant(c) is not None:
                continue  # CM members can behave differently
            rep_two = two_torsion(c)
            rep_three = three_part(c)
            assert rep_two.rank >= m_exp, (fam_id, c)
            assert rep_three.lower >= n_exp, (fam_id, c)


def test_j_invariant_columns():
    # closed-form j for the table families, checked on random parameters
    rng = random.Random(102)

    def samples(fam_id, n=50):
        spec = get_family(fam_id)
        got = 0
        while got < n:
            try:
                params = _params(rng, spec, span=8)
                yield params, instantiate(fam_id, params)
            except DegenerateParameters:
                continue
            got += 1

    for params, c in samples("table2_trivial"):
        aa, bb = params["a"], params["b"]
        assert j_invariant(c) == (4 * bb - aa * aa) / (4 * bb)
    for params, c in samples("table2_Z2"):
        s, t = params["s"], params["t"]
        assert j_invariant(c) == t**3 / (t**3 - s**2)
    for params, c in samples("table2_Z3_f"):
        cc = params["c"]
        assert j_invariant(c) == -((cc - 1) ** 2) / (4 * cc)
    for params, c in samples("table2_Z2xZ2"):
        w = params["w"]
        assert j_invariant(c) == -((4 * w * (w**3 - 1) / (8 * w**3 + 1)) ** 3)
    for params, c in samples("table2_Z6"):
        cc = params["c"]
        assert j_invariant(c) == 4 * cc / (cc + 1) ** 2
    for params, c in samples("table2_Z3xZ3"):
        cc = params["c"]
        assert j_invariant(c) == (cc**2 - 1) ** 2 / (-4 * cc**2)
    for params, c in samples("table2_Z3xZ6"):
        cc = params["c"]
        assert j_invariant(c) == (cc**2 - 1) ** 2 / (-4 * cc**2)


def test_rm_sixth_power_identities():
    rng = random.Random(103)
    for _ in range(20):
        c = _sample(rng, "rm_sqrt2", span=8)
        assert is_nth_power(discriminant(c), 6) is not None
    for _ in range(20):
        c = _sample(rng, "rm_sqrt6", span=8)
        assert is_nth_power(-27 * discriminant(c), 6) is not None
    for _ in range(20):
        c = _sample(rng, "gl2_sqrt2_F9", span=8)
        assert is_nth_power(discriminant(c), 6) is not None
    for _ in range(20):
        c = _sample(rng, "gl2_sqrt6_Z3", span=8)
        assert is_nth_power(-27 * discriminant(c), 6) is not None


def test_expected_end_ring():
    rng = random.Random(104)
    for fam_id, kind in [
        ("rm_sqrt2", "Z_sqrt2"),
        ("rm_sqrt6", "Z_sqrt6"),
        ("gl2_sqrt2_F9", "Z_sqrt2"),
        ("gl2_sqrt6_Z3", "Z_sqrt6"),
    ]:
        assert get_family(fam_id).expected_end_ring == kind
        for _ in range(6):
            c = _sample(rng, fam_id, span=7)
            ring = end_ring(c)
            assert ring.kind in (kind, "CM")  # CM overrides on special members


def test_scan_like_sweep_z6():
    # table2_Z6 over c = 1..20 never degenerates and always contains Z/6
    for cval in range(1, 21):
        try:
            c = instantiate("table2_Z6", {"c": Fraction(cval)})
        except DegenerateParameters:
            continue
        if cm_discriminant(c) is not None:
            continue
        rep = torsion_group(c)
        m, n = rep.two.rank, rep.three.lower
        assert m >= 1 and n >= 1, (cval, rep.group_name)


# -- the formulas themselves ----------------------------------------------------

_GRID = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
         Fraction(1), Fraction(3, 2), Fraction(2)]

# sha256 of one line per (family, grid point): the instantiated "a b", or the
# DegenerateParameters message, recorded with the AST walker the formulas had
_PINNED_GRID = "8fb1ccd2a822863bf81f6e218a9000b12a9502685842a888186f96c08cf47f8e"


def test_instantiate_grid_pinned():
    h = hashlib.sha256()
    degenerate = 0
    for spec in list_families():
        for values in itertools.product(_GRID, repeat=len(spec.param_names)):
            point = f"{spec.id} {' '.join(map(str, values))}:"
            try:
                c = instantiate(spec.id, dict(zip(spec.param_names, values)))
                line = f"{point} {c.a} {c.b}"
            except DegenerateParameters as exc:
                line = f"{point} {exc}"
                degenerate += 1
            h.update(line.encode() + b"\n")
    assert degenerate == 191  # 5 of them zero denominators, the rest discriminants
    assert h.hexdigest() == _PINNED_GRID


_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def _nodes(formula):
    return list(ast.walk(ast.parse(formula.replace("^", "**"), mode="eval").body))


def _lint_formula(formula, names):
    """The problems of a formula: anything past int literals, the given
    parameter names, + - * / and powers by an int literal."""
    problems = []
    for node in _nodes(formula):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
            if not (isinstance(exponent, ast.Constant) and type(exponent.value) is int):
                problems.append(f"power by {ast.dump(exponent)}")
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_OPS):
                problems.append(f"operator {type(node.op).__name__}")
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, ast.USub):
                problems.append(f"unary {type(node.op).__name__}")
        elif isinstance(node, ast.Constant):
            if type(node.value) is not int:
                problems.append(f"literal {node.value!r}")
        elif isinstance(node, ast.Name):
            if node.id not in names:
                problems.append(f"name {node.id}")
        elif not isinstance(node, (ast.operator, ast.unaryop, ast.expr_context)):
            problems.append(f"node {type(node).__name__}")
    return problems


def test_registry_formulas_lint():
    # each formula is exact arithmetic over its own parameters and evaluates to
    # a Fraction: an int / int such as "1/4*v" would silently make a float
    for spec in list_families():
        used = set()
        for formula in (spec.a_formula, spec.b_formula):
            assert _lint_formula(formula, spec.param_names) == [], (spec.id, formula)
            used |= {node.id for node in _nodes(formula) if isinstance(node, ast.Name)}
        assert used == set(spec.param_names), spec.id
        for values in itertools.product(_GRID, repeat=len(spec.param_names)):
            env = dict(zip(spec.param_names, values))
            try:
                a = families._evaluate(spec.a_formula, env)
                b = families._evaluate(spec.b_formula, env)
            except ZeroDivisionError:
                continue
            assert type(a) is Fraction and type(b) is Fraction, (spec.id, values)


def test_formula_lint_catches_floats_and_foreign_nodes():
    assert _lint_formula("-(c + 1)*d^2 - c/d", ("c", "d")) == []
    assert [p.split("(")[0] for p in _lint_formula("c^(1/2)", ("c",))] == ["power by BinOp"]
    assert _lint_formula("c*0.5", ("c",)) == ["literal 0.5"]
    assert _lint_formula("c % 2", ("c",)) == ["operator Mod"]
    assert _lint_formula("abs(c)", ("c",)) == ["node Call", "name abs"]
    assert _lint_formula("c*x", ("c",)) == ["name x"]
