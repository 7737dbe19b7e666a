"""Parameterized families of curves with guaranteed torsion / endomorphism structure.

Families are data, not code: each registry entry stores its (a, b) formulas as
expression strings over the declared parameter names.  Python compiles each
string once, and it is evaluated over Fraction parameters, so exactly over Q.
The strings are the one source of truth: `family list` prints what is
evaluated, and tests sweep every family uniformly.

The guaranteed structure is containment: instantiating a family at
non-degenerate parameters produces a curve whose Prym torsion CONTAINS
expected_torsion (never "equals" — equality is the torsion module's job), and
whose End ring is expected_end_ring when stated, away from the finitely many
CM parameter values.

Degeneracy: a parameter choice is rejected (DegenerateParameters) when a
denominator in the formulas vanishes or the resulting discriminant is zero.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import CodeType
from typing import Collection, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .curves import Curve, new_curve
from .errors import DegenerateCurve, DegenerateParameters, UnknownFamily
from .rationals import RationalLike
from .torsion import CLASSIFICATION

_SHAPES = {row[0]: shape for shape, row in CLASSIFICATION.items()}  # name -> (m, n)


class FamilySpec(NamedTuple):
    id: str
    param_names: Tuple[str, ...]
    a_formula: str
    b_formula: str
    expected_torsion: str                 # group name, containment guarantee
    expected_end_ring: Optional[str] = None  # "Z_sqrt2" | "Z_sqrt6" when known
    notes: str = ""


_REGISTRY: List[FamilySpec] = [
    FamilySpec(
        id="table2_trivial",
        param_names=("a", "b"),
        a_formula="a",
        b_formula="b",
        expected_torsion="trivial",
        notes="generic curve; no structure guaranteed",
    ),
    FamilySpec(
        id="table2_Z2",
        param_names=("s", "t"),
        a_formula="2*s",
        b_formula="s^2 - t^3",
        expected_torsion="Z/2",
        notes="2-torsion from the lower elliptic quotient",
    ),
    FamilySpec(
        id="table2_Z3_f",
        param_names=("c", "d"),
        a_formula="-(c + 1)*d^2",
        b_formula="c*d^4",
        expected_torsion="Z/3",
        notes="quartic f gains the rational root d*1 (up to scaling)",
    ),
    FamilySpec(
        id="Z3_fhat",
        param_names=("c", "d"),
        a_formula="-8*(c + 1)*d^2",
        b_formula="16*(c - 1)^2*d^4",
        expected_torsion="Z/3",
        notes="dual quartic fhat gains a rational root",
    ),
    FamilySpec(
        id="table2_Z2xZ2",
        param_names=("w", "d"),
        a_formula="(16*w^6 + 40*w^3 - 2)*d^3",
        b_formula="(8*w^3 + 1)^3*d^6",
        expected_torsion="Z/2 x Z/2",
        notes="both 2-torsion sources at once; degenerate at w in {0, 1, -1/2}",
    ),
    FamilySpec(
        id="Z6_case1",
        param_names=("c",),
        a_formula="-16*(c + 1)*(c - 1)^2",
        b_formula="256*c*(c - 1)^4",
        expected_torsion="Z/6",
        notes="f has the root 4*(c - 1) and 16*(a^2 - 4*b) = (16*(c - 1)^2)^3",
    ),
    FamilySpec(
        id="table2_Z6",
        param_names=("c",),
        a_formula="8*c*(1 - c)",
        b_formula="16*c^2*(1 + c)^2",
        expected_torsion="Z/6",
        notes="the j = 4c/(c+1)^2 family",
    ),
    FamilySpec(
        id="Z6_case3",
        param_names=("t",),
        a_formula="-((3*t - 2)*(5*t - 2)^3/(t*(7*t - 4)^3) + 1)"
        "*((3*t - 2)*(5*t - 2)^3/(t*(7*t - 4)^3))^4",
        b_formula="((3*t - 2)*(5*t - 2)^3/(t*(7*t - 4)^3))^9",
        expected_torsion="Z/6",
        notes="a = -(c+1)*c^4, b = c^9 at c = (3t-2)(5t-2)^3/(t(7t-4)^3); "
        "f has the root c^2 and the substitution makes g_{a,c^3} have a root",
    ),
    FamilySpec(
        id="Z6_case4",
        param_names=("v",),
        a_formula="(1 - v)^3*(3*v + 1)^3*(3*v^4 + 6*v^2 - 1)/4",
        b_formula="v^6*(v - 1)^6*(3*v + 1)^6",
        expected_torsion="Z/6",
    ),
    FamilySpec(
        id="table2_Z3xZ3",
        param_names=("c", "d"),
        a_formula="-(c^2 + 1)*d^2",
        b_formula="c^2*d^4",
        expected_torsion="Z/3 x Z/3",
        notes="f splits completely: (x^2 - d^2)(x^2 - c^2 d^2)",
    ),
    FamilySpec(
        id="table2_Z3xZ6",
        param_names=("c",),
        a_formula="-16*(c^2 + 1)*(c^2 - 1)^2",
        b_formula="256*c^2*(c^2 - 1)^4",
        expected_torsion="Z/6 x Z/3",
        notes="maximal torsion; degenerate at c in {0, 1, -1}",
    ),
    FamilySpec(
        id="two_lift",
        param_names=("s", "d"),
        a_formula="(4*s + 3)*(4*s^2 - 3)*d^3",
        b_formula="(4*s + 3)^3*d^6",
        expected_torsion="Z/2",
        notes="2-torsion from a lifted point: g_{a,t} has the root z = -(4s+3)*d; "
        "degenerate at s in {-3/4, 3/2, -1/2}",
    ),
    FamilySpec(
        id="rm_sqrt2",
        param_names=("t", "d"),
        a_formula="2*(t^2 + 1)^2*t*d^3",
        b_formula="(t^2 + 1)^3*t^2*d^6",
        expected_torsion="trivial",
        expected_end_ring="Z_sqrt2",
        notes="delta = (2*t*d^2*(t^2+1))^6 identically",
    ),
    FamilySpec(
        id="rm_sqrt6",
        param_names=("t", "d"),
        a_formula="18*d^3*t*(1 - 3*t^2)^2",
        b_formula="81*d^6*t^2*(1 - 3*t^2)^3",
        expected_torsion="trivial",
        expected_end_ring="Z_sqrt6",
        notes="-27*delta is a sixth power identically",
    ),
    FamilySpec(
        id="gl2_sqrt2_F9",
        param_names=("t",),
        a_formula="-4*(t^2 + 1)/(t^2*(t^2 - 1)^2)",
        b_formula="16/(t^2*(t^2 - 1)^4)",
        expected_torsion="Z/3 x Z/3",
        expected_end_ring="Z_sqrt2",
        notes="torsion is the F9 module; degenerate at t in {0, 1, -1}",
    ),
    FamilySpec(
        id="gl2_sqrt6_Z3",
        param_names=("t",),
        a_formula="36*(3*t^2 - 1)/(t^2*(3*t^2 + 1)^2)",
        b_formula="-3888/(t^2*(3*t^2 + 1)^4)",
        expected_torsion="Z/3",
        expected_end_ring="Z_sqrt6",
        notes="torsion is the Z/3 module; degenerate at t = 0",
    ),
]

# historical alternate id for the second Z/6 case
_ALIASES = {"Z6_case2": "table2_Z6"}

_BY_ID: Dict[str, FamilySpec] = {spec.id: spec for spec in _REGISTRY}


def list_families() -> List[FamilySpec]:
    """All registered families, in registry order."""
    return list(_REGISTRY)


def get_family(family_id: str) -> FamilySpec:
    """Look up a family by id (aliases accepted)."""
    canonical = _ALIASES.get(family_id, family_id)
    spec = _BY_ID.get(canonical)
    if spec is None:
        raise UnknownFamily(f"unknown family id: {family_id!r}")
    return spec


def check_params(spec: FamilySpec, names: Collection[str]) -> None:
    """UnknownFamily unless `names` are exactly the family's parameters."""
    missing = [p for p in spec.param_names if p not in names]
    if missing:
        raise UnknownFamily(f"family {spec.id}: missing parameters {missing}")
    extra = [p for p in names if p not in spec.param_names]
    if extra:
        raise UnknownFamily(f"family {spec.id}: unknown parameters {extra}")


def instantiate(family_id: str, params: Mapping[str, RationalLike]) -> Curve:
    """Evaluate a family's formulas exactly at the given parameters."""
    spec = get_family(family_id)
    check_params(spec, params)
    env = {name: Fraction(params[name]) for name in spec.param_names}
    try:
        a = _evaluate(spec.a_formula, env)
        b = _evaluate(spec.b_formula, env)
    except ZeroDivisionError:
        raise DegenerateParameters(
            f"family {spec.id}: zero denominator at {_fmt_params(env)}"
        ) from None
    try:
        return new_curve(a, b)
    except DegenerateCurve:
        raise DegenerateParameters(
            f"family {spec.id}: discriminant vanishes at {_fmt_params(env)}"
        ) from None


def expected_torsion(family_id: str) -> str:
    """Name of the group guaranteed to embed in the Prym torsion."""
    return get_family(family_id).expected_torsion


def expected_torsion_shape(family_id: str) -> Tuple[int, int]:
    """The guarantee as the (m, n) exponent pair of (Z/2)^m x (Z/3)^n."""
    return _SHAPES[expected_torsion(family_id)]


def _fmt_params(env: Mapping[str, Fraction]) -> str:
    return ", ".join(f"{k} = {v}" for k, v in env.items())


# -- formula evaluation --------------------------------------------------------
#
# Formulas use +, -, *, /, ^ (exponentiation), integer literals and parameter
# names.  Each is compiled once and evaluated with no builtins over Fraction
# parameters; every division has a parameter on one side, so none makes a float.

@functools.cache
def _compiled(formula: str) -> CodeType:
    return compile(formula.replace("^", "**"), "<formula>", "eval")


def _evaluate(formula: str, env: Mapping[str, Fraction]) -> Fraction:
    return eval(_compiled(formula), {"__builtins__": {}}, env)
