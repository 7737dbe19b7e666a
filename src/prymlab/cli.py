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
  file written by a different scan is refused), on W = min(N, usable CPUs, grid
  points) forked worker processes (in process where the platform has no fork):
  worker i classifies blocks i, i + W, ... of the records and sends each over
  its own pipe, and the parent writes them in grid order, so the output is the
  same at any N.  A worker's exception exits as it would in process; a worker
  that dies ends the scan with exit 1.

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
import itertools
import json
import math
import os
import re
import struct
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
from .rationals import _WIRE_RE, parse_int, parse_rational
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prymlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def curve_args(p):
        p.add_argument("a", help='rational "p/q" or "p"')
        p.add_argument("b", help='rational "p/q" or "p"')
        # argparse treats "-5/9" as an option unless its negative-number regex
        # recognizes it; make that regex the wire grammar, sign "-" required
        p._negative_number_matcher = re.compile(f"(?=-){_WIRE_RE.pattern}$", _WIRE_RE.flags)

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

    p_family = sub.add_parser("family", help="family registry")
    fam_sub = p_family.add_subparsers(dest="family_verb", required=True)
    fam_sub.add_parser("list", help="list family ids and formulas")
    p_inst = fam_sub.add_parser("instantiate", help="evaluate a family")
    p_inst.add_argument("id", help="family id")
    p_inst.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE", help="parameter (repeatable, each NAME once)")

    p_oracle = sub.add_parser("oracle", help="point counts and torsion bound")
    curve_args(p_oracle)
    which_primes = p_oracle.add_mutually_exclusive_group()
    which_primes.add_argument("--primes", help="comma-separated primes")
    # default None, not the count: argparse would let --count equal to its
    # default pass beside --primes
    which_primes.add_argument("--count", type=parse_int,
                              help=f"number of good primes (default {DEFAULT_ORACLE_PRIMES})")

    p_scan = sub.add_parser("scan", help="batch classification to JSONL")
    p_scan.add_argument("--box", nargs="+", action="extend", metavar="VAR=LO..HI",
                        help="integer box, e.g. --box a=-10..10 b=1..10")
    p_scan.add_argument("--family", help="family id to sweep")
    p_scan.add_argument("--param", action="append", default=[],
                        metavar="NAME=LO..HI|NAME=VALUE",
                        help="family parameter value or integer range (each NAME once)")
    p_scan.add_argument("--out", help="output JSONL path (appends; resumes)")
    p_scan.add_argument("--jobs", type=parse_int, default=1, help="worker processes")
    p_scan.add_argument("--oracle", action="store_true", help="include oracle data")
    return parser


def _parse_primes(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    return [parse_int(part) for part in text.split(",") if part]


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
    lo, hi = map(parse_int, text.split("..", 1))
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
    if ns.jobs < 1:
        raise ValueError(f"scan --jobs takes a positive count, got {ns.jobs}")
    if ns.box:
        if ns.param:
            raise ValueError("scan --param goes with --family, not --box")
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


def _usable_cpus() -> int:
    # the CPUs this process may run on, which an affinity mask can make fewer
    # than the machine has
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerLost(OSError):
    """A scan worker ended without sending the rest of its records."""


# A frame on a worker's pipe: a kind byte and the payload's length, then the
# payload.  A block is UTF-8 record lines; an error is the pickled (lines
# done, exception); the end frame is empty and follows the worker's last block.
_FRAME = struct.Struct(">cQ")
_BLOCK, _ERROR, _END = b"B", b"X", b"E"


def _send(pipe, kind: bytes, payload: bytes = b"") -> None:
    pipe.write(_FRAME.pack(kind, len(payload)))
    pipe.write(payload)
    pipe.flush()


def _receive(pipe, index: int) -> Tuple[bytes, bytes]:
    header = pipe.read(_FRAME.size)
    if len(header) == _FRAME.size:
        kind, length = _FRAME.unpack(header)
        payload = pipe.read(length)
        if len(payload) == length:
            return kind, payload
    raise WorkerLost(f"scan worker {index + 1} ended before sending all its records")


def _work(pipe, record_line: Callable[[Curve], str], curves: Iterator[Curve],
          index: int, workers: int, chunk: int) -> int:
    # in worker `index`: classifies blocks index, index + workers, ... of
    # `chunk` records each and sends each as one frame; returns the exit status
    done: List[str] = []  # lines of the block in progress
    try:
        for n, c in enumerate(curves):
            if n // chunk % workers == index:
                done.append(record_line(c) + "\n")
                if len(done) == chunk:
                    _send(pipe, _BLOCK, "".join(done).encode())
                    done.clear()
        if done:
            _send(pipe, _BLOCK, "".join(done).encode())
        _send(pipe, _END)
        return 0
    except BaseException as exc:  # sent to the parent, which raises it
        import pickle

        _send(pipe, _ERROR, pickle.dumps(("".join(done), exc)))
        return 1


def _scan_forked(sink, record_line: Callable[[Curve], str], curves: Iterator[Curve],
                 workers: int, chunk: int) -> None:
    """Writes the record lines of `curves` to `sink`, in order, computed by
    `workers` forked processes that inherit `curves` where it stands.  A
    worker's exception is raised here after the lines before it are written; a
    worker that dies raises WorkerLost.  No child outlives the call."""
    pids: List[int] = []
    pipes: List[Any] = []
    try:
        for index in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns from this branch
                status = 1
                try:
                    os.close(read_fd)
                    for pipe in pipes:
                        pipe.close()
                    with open(write_fd, "wb") as pipe:
                        status = _work(pipe, record_line, curves, index, workers, chunk)
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(write_fd)  # so that the pipe reads EOF once the worker is gone
            pipes.append(open(read_fd, "rb"))
        # blocks come round-robin in grid order; the first end frame is where
        # the records end, and every other worker's next frame must be its end
        ended = 0
        for n in itertools.count():
            kind, payload = _receive(pipes[n % workers], n % workers)
            if kind == _ERROR:
                import pickle

                lines, exc = pickle.loads(payload)
                sink.write(lines)
                raise exc
            if kind == _END:
                ended += 1
                if ended == workers:
                    break
            elif ended:
                raise WorkerLost(f"scan worker {n % workers + 1} sent records past the end")
            else:
                sink.write(payload.decode())
        while pids:
            _, status = os.waitpid(pids.pop(), 0)
            if status:
                raise WorkerLost("a scan worker exited with status "
                                 f"{os.waitstatus_to_exitcode(status)}")
    finally:
        if pids:  # a failed scan; signal is imported here, off the scan's start-up path
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


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
    workers = min(ns.jobs, left, _usable_cpus()) if hasattr(os, "fork") else 1
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(ns.out, "a", encoding="utf-8")) if ns.out else sys.stdout
        if workers > 1:
            sink.flush()  # so that no buffered text is copied into the workers
            # several blocks per worker, each small enough to keep the output flowing
            chunk = max(1, min(64, left // (4 * workers)))
            _scan_forked(sink, record_line, curves, workers, chunk)
        else:
            for c in curves:
                print(record_line(c), file=sink)
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
            primes = good_primes(curve, DEFAULT_ORACLE_PRIMES if ns.count is None else ns.count)
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
