"""Command-line front end.

Verbs:

* ``classify a b [--json] [--oracle] [--primes 5,7,11]`` — full report for one
  curve; the oracle feeds back into torsion exactness.
* ``dual a b`` / ``twist a b delta`` — curve transforms, JSON out.
* ``family list`` / ``family instantiate ID --param k=v ...`` — the registry.
* ``oracle a b [--primes ... | --count N]`` — point counts, L-data, gcd bound.
* ``scan --box a=LO..HI b=LO..HI | --family ID --param k=LO..HI [--out F]
  [--jobs N]`` — batch classification to JSONL, deterministic order, streamed
  (memory does not grow with the grid; bad arguments exit before F is touched),
  resumable (complete lines in --out are skipped, a cut last line is redone, a
  file written by a different scan is refused), on at most min(N, CPUs, grid
  points) worker processes.

Rationals on the command line are "p/q" or "p".  Leading minus signs work
("classify -720 82944"); use ``--`` before a negative first argument if your
shell or an option lookalike interferes.

Exit codes: 0 success; 1 usage or parse problems (also unknown family ids and
unusable primes); 2 degenerate input (singular curve, bad parameters); 3
internal inconsistency — a structural check that cannot fail on correct code
fired, so the output cannot be trusted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .curves import Curve, bigonal_dual, curve_to_dict, integral_model, new_curve, sextic_twist
from .errors import (
    BadPrime,
    DegenerateCurve,
    DegenerateParameters,
    InternalInconsistency,
    NotACube,
    UnknownFamily,
)
from .families import check_params, get_family, instantiate, list_families
from .oracle import good_primes
from .rationals import parse_rational
from .records import DEFAULT_ORACLE_PRIMES, classify_record, oracle_summary

USAGE_EXIT = 1
DEGENERATE_EXIT = 2
INCONSISTENCY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (default would be 2)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _allow_negative_rationals(parser: argparse.ArgumentParser) -> None:
    # argparse treats "-5/9" as an option unless its negative-number regex
    # recognizes it; widen the regex to cover fractions.
    matcher = re.compile(r"^-\d+(/\d+)?$")
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = matcher


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prymlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def curve_args(p):
        p.add_argument("a", help='rational "p/q" or "p"')
        p.add_argument("b", help='rational "p/q" or "p"')
        _allow_negative_rationals(p)

    p_classify = sub.add_parser("classify", help="full report for one curve")
    curve_args(p_classify)
    p_classify.add_argument("--json", action="store_true", help="JSON output")
    p_classify.add_argument("--oracle", action="store_true",
                            help=f"run the oracle on {DEFAULT_ORACLE_PRIMES} good primes")
    p_classify.add_argument("--primes", help="comma-separated primes for the oracle")

    p_dual = sub.add_parser("dual", help="bigonal dual curve")
    curve_args(p_dual)

    p_twist = sub.add_parser("twist", help="sextic twist by delta")
    curve_args(p_twist)
    p_twist.add_argument("delta", help='nonzero rational "p/q" or "p"')
    _allow_negative_rationals(p_twist)

    p_family = sub.add_parser("family", help="family registry")
    fam_sub = p_family.add_subparsers(dest="family_verb", required=True)
    fam_sub.add_parser("list", help="list family ids and formulas")
    p_inst = fam_sub.add_parser("instantiate", help="evaluate a family")
    p_inst.add_argument("id", help="family id")
    p_inst.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE", help="parameter (repeatable, each NAME once)")

    p_oracle = sub.add_parser("oracle", help="point counts and torsion bound")
    curve_args(p_oracle)
    p_oracle.add_argument("--primes", help="comma-separated primes")
    p_oracle.add_argument("--count", type=int, default=DEFAULT_ORACLE_PRIMES,
                          help="number of good primes when --primes is absent")

    p_scan = sub.add_parser("scan", help="batch classification to JSONL")
    p_scan.add_argument("--box", nargs="+", action="extend", metavar="VAR=LO..HI",
                        help="integer box, e.g. --box a=-10..10 b=1..10")
    p_scan.add_argument("--family", help="family id to sweep")
    p_scan.add_argument("--param", action="append", default=[],
                        metavar="NAME=LO..HI|NAME=VALUE",
                        help="family parameter value or integer range (each NAME once)")
    p_scan.add_argument("--out", help="output JSONL path (appends; resumes)")
    p_scan.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_scan.add_argument("--oracle", action="store_true", help="include oracle data")
    return parser


def _parse_primes(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    return [int(part) for part in text.split(",") if part]


def _assignments(texts: Iterable[str], parse_value: Callable[[str], Any]) -> Dict[str, Any]:
    """NAME=VALUE arguments as a dict; each NAME at most once."""
    out: Dict[str, Any] = {}
    for text in texts:
        name, eq, value = text.partition("=")
        if not eq or not name:
            raise ValueError(f"expected NAME=VALUE, got {text!r}")
        if name in out:
            raise ValueError(f"{name} given twice")
        out[name] = parse_value(value)
    return out


def _axis(text: str) -> Sequence:
    """LO..HI (integer endpoints, inclusive) or one rational."""
    if ".." not in text:
        return [parse_rational(text)]
    lo_text, hi_text = text.split("..", 1)
    lo, hi = int(lo_text), int(hi_text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _human_report(record: Dict) -> str:
    endo = record["endo"]
    torsion = record["torsion"]
    lines = [
        f"curve: a = {record['curve']['a']}, b = {record['curve']['b']}",
        f"j = {record['j']}   delta = {record['delta']}   special: "
        + ("yes" if record["special"] else "no"),
        f"endo field: {endo['group_label']} (degree {endo['degree']})   "
        f"end ring: {endo['end_ring']}"
        + (
            f" (CM discriminant {endo['cm_discriminant']})"
            if endo["cm_discriminant"] is not None
            else ""
        ),
        f"gl2 type: {'yes' if endo['gl2_type'] else 'no'}"
        + (
            f"   sato-tate: {endo['sato_tate']}"
            if endo["sato_tate"] is not None
            else ""
        ),
        f"torsion: {torsion['group']} ({torsion['status']})"
        + (
            f"   end module: {torsion['end_module']}"
            if torsion["end_module"] is not None
            else ""
        ),
        f"dual: a = {record['dual']['a']}, b = {record['dual']['b']}",
    ]
    if record["oracle"] is not None:
        lines.append(f"oracle gcd bound: {record['oracle']['gcd']}")
    return "\n".join(lines)


# -- scan plumbing -------------------------------------------------------------

def _scan_grid(ns: argparse.Namespace) -> Tuple[Callable[..., Curve], List[Sequence]]:
    """The curve maker and its argument axes; every argument is checked here,
    before the first curve is made or --out is opened."""
    if bool(ns.box) == bool(ns.family):
        raise ValueError("scan needs exactly one of --box or --family")
    if ns.box:
        box = _assignments(ns.box, _axis)
        if set(box) != {"a", "b"}:
            raise ValueError(f"scan --box takes a=LO..HI and b=LO..HI, got {sorted(box)}")
        return new_curve, [box["a"], box["b"]]
    family = get_family(ns.family)
    names = family.param_names
    ranges = _assignments(ns.param, _axis)
    check_params(family, ranges)
    return (lambda *values: instantiate(family.id, dict(zip(names, values))),
            [ranges[n] for n in names])


def _grid(axes: Sequence[Sequence]) -> Iterator[Tuple]:
    # the grid in order, last axis fastest; unlike itertools.product, it never
    # copies an axis, so a range of any length stays a range
    if len(axes) == 1:
        return ((value,) for value in axes[0])
    return ((value, *rest) for value in axes[0] for rest in _grid(axes[1:]))


def _axis_size(axis: Sequence) -> int:
    # from a range's bounds: len() of a range longer than sys.maxsize overflows
    return axis.stop - axis.start if isinstance(axis, range) else len(axis)


def _curves(make: Callable[..., Curve], axes: Sequence[Sequence]) -> Iterator[Curve]:
    # the grid in order, degenerate points skipped
    for values in _grid(axes):
        try:
            yield make(*values)
        except (DegenerateCurve, DegenerateParameters):
            continue


def _record_line(c: Curve, with_oracle: bool) -> str:
    return json.dumps(classify_record(c, with_oracle=with_oracle), sort_keys=True)


def _resume_point(existing, curves: Iterator[Curve], with_oracle: bool) -> int:
    # consumes and counts the curves whose records the file holds; a cut last
    # line is truncated, a line not the record of its position's curve refused
    skip = end = 0
    for line in existing:
        if not line.endswith(b"\n"):
            break
        end += len(line)
        if not line.strip():
            continue
        c = next(curves, None)
        try:
            record = json.loads(line)
            same = (c is not None and record["curve"] == curve_to_dict(c)
                    and (record["oracle"] is not None) == with_oracle)
        except (ValueError, TypeError, KeyError):
            same = False
        if not same:
            raise ValueError(f"{existing.name} holds a different scan (record "
                             f"{skip + 1} differs); refusing to resume it")
        skip += 1
    existing.truncate(end)
    return skip


def _run_scan(ns: argparse.Namespace) -> int:
    make, axes = _scan_grid(ns)
    curves = _curves(make, axes)
    left = math.prod(map(_axis_size, axes))  # grid points not yet written, at most
    if ns.out:
        try:
            with open(ns.out, "rb+") as existing:
                left -= _resume_point(existing, curves, ns.oracle)
        except FileNotFoundError:
            pass
    record_line = functools.partial(_record_line, with_oracle=ns.oracle)
    workers = min(ns.jobs, left, os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(ns.out, "a", encoding="utf-8")) if ns.out else sys.stdout
        if workers > 1:
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(workers))
            # several chunks per worker, each small enough to keep the output flowing
            chunk = max(1, min(64, left // (4 * workers)))
            lines = pool.imap(record_line, curves, chunksize=chunk)
        else:
            lines = map(record_line, curves)
        for line in lines:
            print(line, file=sink)
    return 0


def _run(ns: argparse.Namespace) -> int:
    if ns.verb == "classify":
        curve = new_curve(parse_rational(ns.a), parse_rational(ns.b))
        record = classify_record(
            curve, with_oracle=ns.oracle, primes=_parse_primes(ns.primes)
        )
        if ns.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(_human_report(record))
        return 0

    if ns.verb == "dual":
        curve = new_curve(parse_rational(ns.a), parse_rational(ns.b))
        print(json.dumps(curve_to_dict(bigonal_dual(curve))))
        return 0

    if ns.verb == "twist":
        curve = new_curve(parse_rational(ns.a), parse_rational(ns.b))
        print(json.dumps(curve_to_dict(sextic_twist(curve, parse_rational(ns.delta)))))
        return 0

    if ns.verb == "family":
        if ns.family_verb == "list":
            payload = [
                {
                    "id": spec.id,
                    "params": list(spec.param_names),
                    "a": spec.a_formula,
                    "b": spec.b_formula,
                    "expected_torsion": spec.expected_torsion,
                    "expected_end_ring": spec.expected_end_ring,
                }
                for spec in list_families()
            ]
            print(json.dumps(payload, indent=2))
            return 0
        curve = instantiate(ns.id, _assignments(ns.param, parse_rational))
        print(json.dumps(curve_to_dict(curve)))
        return 0

    if ns.verb == "oracle":
        curve = integral_model(new_curve(parse_rational(ns.a), parse_rational(ns.b)))
        primes = _parse_primes(ns.primes)
        if primes is None:
            primes = good_primes(curve, ns.count)
        print(json.dumps(oracle_summary(curve, primes)))
        return 0

    if ns.verb == "scan":
        return _run_scan(ns)

    raise AssertionError(f"unhandled verb {ns.verb}")  # unreachable


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _run(ns)
    except SystemExit:
        raise
    except DegenerateCurve:
        print("error: discriminant vanishes", file=sys.stderr)
        return DEGENERATE_EXIT
    except (DegenerateParameters, NotACube) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEGENERATE_EXIT
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return INCONSISTENCY_EXIT
    except (UnknownFamily, BadPrime, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
