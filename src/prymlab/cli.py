"""Command-line front end.

Verbs:

* ``classify a b [--json] [--oracle] [--primes 5,7,11]`` — full report for one
  curve; the oracle feeds back into torsion exactness.
* ``dual a b`` / ``twist a b delta`` — curve transforms, JSON out.
* ``family list`` / ``family instantiate ID --param k=v ...`` — the registry.
* ``oracle a b [--primes ... | --count N]`` — point counts, L-data, gcd bound.
* ``scan --box a=LO..HI b=LO..HI | --family ID --param k=LO..HI [--out F]
  [--jobs N]`` — batch classification to JSONL, deterministic order, resumable
  (complete lines in --out are skipped, a cut last line is redone, a file
  written by a different scan is refused), parallelizable.

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
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .curves import Curve, bigonal_dual, curve_to_dict, integral_model, new_curve, sextic_twist
from .errors import (
    BadPrime,
    DegenerateCurve,
    DegenerateParameters,
    InternalInconsistency,
    NotACube,
    UnknownFamily,
)
from .families import get_family, instantiate, list_families
from .oracle import good_primes
from .rationals import parse_rational
from .records import DEFAULT_ORACLE_PRIMES, classify_record

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
                        metavar="NAME=VALUE", help="parameter (repeatable)")

    p_oracle = sub.add_parser("oracle", help="point counts and torsion bound")
    curve_args(p_oracle)
    p_oracle.add_argument("--primes", help="comma-separated primes")
    p_oracle.add_argument("--count", type=int, default=DEFAULT_ORACLE_PRIMES,
                          help="number of good primes when --primes is absent")

    p_scan = sub.add_parser("scan", help="batch classification to JSONL")
    p_scan.add_argument("--box", nargs="+", metavar="VAR=LO..HI",
                        help="integer box, e.g. --box a=-10..10 b=1..10")
    p_scan.add_argument("--family", help="family id to sweep")
    p_scan.add_argument("--param", action="append", default=[],
                        metavar="NAME=LO..HI|NAME=VALUE",
                        help="family parameter value or integer range (repeatable)")
    p_scan.add_argument("--out", help="output JSONL path (appends; resumes)")
    p_scan.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_scan.add_argument("--oracle", action="store_true", help="include oracle data")
    return parser


def _parse_primes(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    return [int(part) for part in text.split(",") if part]


def _parse_params(pairs: Iterable[str]) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise ValueError(f"expected NAME=VALUE, got {pair!r}")
        out[name] = parse_rational(value)
    return out


def _parse_range(text: str) -> Tuple[str, List[Fraction]]:
    """NAME=LO..HI (integer endpoints, inclusive) or NAME=VALUE."""
    name, eq, value = text.partition("=")
    if not eq or not name:
        raise ValueError(f"expected NAME=VALUE or NAME=LO..HI, got {text!r}")
    if ".." in value:
        lo_text, hi_text = value.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range in {text!r}")
        return name, [Fraction(v) for v in range(lo, hi + 1)]
    return name, [parse_rational(value)]


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

def _box_curves(specs: Sequence[str]) -> Iterator[Curve]:
    ranges: Dict[str, List[Fraction]] = {}
    for spec in specs:
        name, values = _parse_range(spec)
        if name not in ("a", "b"):
            raise ValueError(f"box variables are a and b, got {name!r}")
        ranges[name] = values
    if set(ranges) != {"a", "b"}:
        raise ValueError("scan --box needs both a=LO..HI and b=LO..HI")
    for a in ranges["a"]:
        for b in ranges["b"]:
            try:
                yield new_curve(a, b)
            except DegenerateCurve:
                continue


def _family_curves(family_id: str, param_specs: Sequence[str]) -> Iterator[Curve]:
    spec = get_family(family_id)
    ranges: Dict[str, List[Fraction]] = {}
    for text in param_specs:
        name, values = _parse_range(text)
        ranges[name] = values
    missing = [n for n in spec.param_names if n not in ranges]
    if missing:
        raise ValueError(f"family {spec.id}: missing --param for {missing}")
    # cartesian product in declared parameter order, each range ascending
    for values in itertools.product(*(ranges[n] for n in spec.param_names)):
        try:
            yield instantiate(spec.id, dict(zip(spec.param_names, values)))
        except DegenerateParameters:
            continue


def _record_worker(args: Tuple[str, str, bool]) -> str:
    a_text, b_text, with_oracle = args
    curve = new_curve(parse_rational(a_text), parse_rational(b_text))
    return json.dumps(classify_record(curve, with_oracle=with_oracle), sort_keys=True)


def _resume_point(existing, work: Sequence[Tuple[str, str, bool]]) -> int:
    # records of work already in the file; a cut last line is truncated, and a
    # line that is not the record of the item at its position is refused
    skip = end = 0
    for line in existing:
        if not line.endswith(b"\n"):
            break
        end += len(line)
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            a, b, with_oracle = work[skip]
            same = (record["curve"] == {"a": a, "b": b}
                    and (record["oracle"] is not None) == with_oracle)
        except (ValueError, TypeError, KeyError, IndexError):
            same = False
        if not same:
            raise ValueError(f"{existing.name} holds a different scan (record "
                             f"{skip + 1} differs); refusing to resume it")
        skip += 1
    existing.truncate(end)
    return skip


def _run_scan(ns: argparse.Namespace) -> int:
    if bool(ns.box) == bool(ns.family):
        raise ValueError("scan needs exactly one of --box or --family")
    if ns.box:
        curves = _box_curves(ns.box)
    else:
        curves = _family_curves(ns.family, ns.param)
    work = [(str(c.a), str(c.b), ns.oracle) for c in curves]

    skip = 0
    sink = sys.stdout
    close_sink = False
    if ns.out:
        try:
            with open(ns.out, "rb+") as existing:
                skip = _resume_point(existing, work)
        except FileNotFoundError:
            pass
        sink = open(ns.out, "a", encoding="utf-8")
        close_sink = True
    work = work[skip:]

    try:
        if ns.jobs > 1:
            import multiprocessing

            with multiprocessing.Pool(ns.jobs) as pool:
                for line in pool.imap(_record_worker, work, chunksize=4):
                    print(line, file=sink)
        else:
            for item in work:
                print(_record_worker(item), file=sink)
    finally:
        if close_sink:
            sink.close()
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
        curve = instantiate(ns.id, _parse_params(ns.param))
        print(json.dumps(curve_to_dict(curve)))
        return 0

    if ns.verb == "oracle":
        curve = integral_model(new_curve(parse_rational(ns.a), parse_rational(ns.b)))
        primes = _parse_primes(ns.primes)
        if primes is None:
            primes = good_primes(curve, ns.count)
        from .records import oracle_summary

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
