"""Hostile command lines, in process through ``cli.main``.

Every case returns its documented exit code within a wall budget, raises
nothing uncaught, never forks a scan worker and never creates ``--out``.  A
refused case prints nothing on stdout and one error line on stderr: ``error:
...`` from the verb, or argparse's own ``prog: error: ...`` after its usage
text for a usage error, which leaves through ``SystemExit(1)``.
"""

import os
import random
import re
import sys
import time

import pytest

from prymlab.cli import main
from prymlab.curves import new_curve
from prymlab.families import list_families
from prymlab.oracle import good_primes

OUT = "<out>"  # stands for a fresh --out path under the test's tmp_path
OUT_DIR = "<out-dir>"  # an existing directory given as --out
OUT_ORPHAN = "<out-orphan>"  # a --out whose parent directory does not exist
BUDGET_S = 10  # per case; the slowest (a 6000-digit record) takes under 1 s

CASES = [  # (argv, exit code)
    # repeated arguments
    (["scan", "--family", "table2_Z6", "--param", "c=1..3", "--param", "c=5..6", "--out", OUT], 1),
    (["scan", "--box", "a=1..2", "b=1..2", "a=5..5", "--out", OUT], 1),
    (["scan", "--box", "a=1..2", "b=1..2", "--box", "a=5..5", "b=1..1", "--out", OUT], 1),
    (["scan", "--box", f"a=0..{10 ** 30}", "--box", "b=1..2", "a=1..1", "--out", OUT], 1),
    (["family", "instantiate", "table2_Z6", "--param", "c=1", "--param", "c=5"], 1),
    (["classify", "3", "4", "--primes", "5,5"], 1),
    (["oracle", "3", "4", "--primes", "5,5"], 1),
    # malformed lists (an empty entry is skipped: see the test below)
    (["oracle", "3", "4", "--primes", "5,,7"], 1),  # 7 divides 6*Delta of C(3, 4)
    (["oracle", "3", "4", "--primes", "1e3"], 1),
    (["classify", "3", "4", "--primes", "-5", "--json"], 1),
    (["oracle", "3", "4", "--primes", "1_3,1_7"], 1),  # int() would read 13, 17
    (["classify", "3", "4", "--primes", "13/1"], 1),
    (["scan", "--box", "=1..2", "b=1..2", "--out", OUT], 1),
    (["scan", "--box", "a", "b=1..2", "--out", OUT], 1),
    (["scan", "--box", "a=1..2", "--out", OUT], 1),
    (["scan", "--box", "a=1..2", "b=1..2", "c=1..2", "--out", OUT], 1),
    (["family", "instantiate", "table2_Z6", "--param", "c"], 1),
    # reversed or malformed ranges
    (["scan", "--box", "a=2..1", "b=1..2", "--out", OUT], 1),
    (["scan", "--family", "table2_Z6", "--param", "c=1..2..3", "--out", OUT], 1),
    (["scan", "--family", "table2_Z6", "--param", "c=1/2..3", "--out", OUT], 1),
    (["scan", "--family", "table2_Z6", "--param", "c=1..", "--out", OUT], 1),
    (["scan", "--box", "a=1_0..1_1", "b=1..1", "--out", OUT], 1),  # as --box a=1_0 is
    (["scan", "--box", "a=1..2/1", "b=1..1", "--out", OUT], 1),
    # digits outside ASCII and underscores, which int() and Fraction() would read
    (["classify", "٣", "４", "--json"], 1),
    (["classify", "-٣", "4", "--json"], 1),
    (["oracle", "3", "4", "--count", "0_3"], 1),
    (["oracle", "3", "4", "--count", "٣"], 1),
    (["scan", "--box", "a=1..1", "b=1..2", "--jobs", "٢", "--out", OUT], 1),
    # zero denominators and degenerate points
    (["classify", "1/0", "4"], 1),
    (["dual", "3", "1/0"], 1),
    (["twist", "3", "4", "0"], 1),
    (["twist", "3", "4", "1/0"], 1),
    (["family", "instantiate", "Z6_case3", "--param", "t=1/0"], 1),
    (["family", "instantiate", "Z6_case3", "--param", "t=0"], 2),
    (["dual", "1", "0"], 2),
    (["classify", "2", "1"], 2),
    # huge counts and heights
    (["oracle", "3", "4", "--count", "1000000"], 1),
    (["classify", "1" + "0" * 3000, "1"], 1),  # j and the dual exceed 4300 digits
    # unusable --out
    (["scan", "--box", "a=1..1", "b=1..1", "--out", OUT_DIR], 1),
    (["scan", "--box", "a=1..1", "b=1..1", "--out", OUT_ORPHAN], 1),
    # usage errors
    (["frobnicate"], 1),
    ([], 1),
    (["classify", "3"], 1),
    (["dual"], 1),
    (["twist", "3", "4"], 1),
    (["family"], 1),
    (["family", "instantiate"], 1),
    (["oracle", "3", "4", "--count", "many"], 1),
    (["scan", "--out", OUT], 1),
    (["scan", "--box", "a=1..2", "b=1..2", "--family", "table2_Z6", "--out", OUT], 1),
    (["scan", "--family", "nope", "--param", "c=1", "--out", OUT], 1),
    # ignored or meaningless arguments
    (["oracle", "3", "4", "--primes", "5", "--count", "3"], 1),
    (["oracle", "3", "4", "--primes", "5", "--count", "5"], 1),  # --count at the default
    (["scan", "--box", "a=1..1", "b=1..2", "--param", "c=5", "--out", OUT], 1),
    (["scan", "--box", "a=1..1", "b=1..2", "--jobs", "0", "--out", OUT], 1),
    (["scan", "--box", "a=1..1", "b=1..2", "--jobs", "-3", "--out", OUT], 1),
]


def _seeded_repeats(seed, n):
    """Random argument lists that repeat one prime, box variable or family
    parameter, with the message that names the repeat."""
    rng = random.Random(seed)
    good = good_primes(new_curve(3, 4), 12)
    families = [spec for spec in list_families() if spec.param_names]
    for _ in range(n):
        primes = rng.sample(good, rng.randint(1, 4))
        twice = rng.choice(primes)
        primes.insert(rng.randint(primes.index(twice) + 1, len(primes)), twice)
        verb = rng.choice(["classify", "oracle"])
        yield [verb, "3", "4", "--primes", ",".join(map(str, primes))], f"p = {twice} given twice"

        assignments = ["a=1..2", "b=1..2"]
        twice = rng.choice("ab")
        assignments.insert(rng.randint(assignments.index(f"{twice}=1..2") + 1, 2), f"{twice}=3..3")
        cut = rng.randint(1, 2)
        box = ["--box", *assignments[:cut], "--box", *assignments[cut:]]
        yield ["scan", *box, "--out", OUT], f"{twice} given twice"

        spec = rng.choice(families)
        twice = rng.choice(spec.param_names)
        params = [arg for name in (*spec.param_names, twice) for arg in ("--param", f"{name}=1")]
        if rng.random() < 0.5:
            yield ["scan", "--family", spec.id, *params, "--out", OUT], f"{twice} given twice"
        else:
            yield ["family", "instantiate", spec.id, *params], f"{twice} given twice"


def _run_case(capsys, tmp_path, argv):
    paths = {OUT: tmp_path / "scan.jsonl", OUT_DIR: tmp_path / "dir",
             OUT_ORPHAN: tmp_path / "missing" / "scan.jsonl"}
    paths[OUT_DIR].mkdir(exist_ok=True)
    start = time.perf_counter()
    try:
        code = main([str(paths.get(arg, arg)) for arg in argv])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert elapsed < BUDGET_S, (argv, elapsed)
    assert not paths[OUT].exists() and not paths[OUT_ORPHAN].parent.exists(), argv
    assert list(paths[OUT_DIR].iterdir()) == [], argv
    return code, out, err


def _refused(out, err):
    lines = err.splitlines()
    errors = [line for line in lines if "error:" in line]
    return out == "" and "Traceback" not in err and errors == lines[-1:] and (
        lines[-1].startswith("error: ") or lines[-1].startswith("prymlab")
    )


@pytest.fixture
def no_workers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a hostile case forked a scan worker")

    monkeypatch.setattr(os, "fork", refuse)


def test_hostile_argv(capsys, tmp_path, no_workers):
    verbs = set()
    for argv, expected in CASES:
        code, out, err = _run_case(capsys, tmp_path, argv)
        assert code == expected, (argv, code, err)
        assert _refused(out, err), (argv, out, err)
        verbs.update(argv[:1])
    assert verbs >= {"classify", "dual", "twist", "family", "oracle", "scan"}


def test_hostile_argv_empty_entries_are_skipped(capsys):
    # "5,,11" is the list 5, 11 and "," the empty list, whose gcd is 0
    assert main(["oracle", "3", "4", "--primes", "5,,11"]) == 0
    skipped = capsys.readouterr().out
    assert main(["oracle", "3", "4", "--primes", "5,11"]) == 0
    assert capsys.readouterr().out == skipped
    assert main(["oracle", "3", "4", "--primes", ","]) == 0
    assert capsys.readouterr().out == '{"per_prime": [], "gcd": 0}\n'


def test_hostile_argv_seeded_repeats(capsys, tmp_path, no_workers):
    for argv, message in _seeded_repeats(seed=12, n=20):
        code, out, err = _run_case(capsys, tmp_path, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("argv, message", [
    (["classify", "3" * 5000, "1", "--json"],
     r"error: a 5000-digit number exceeds the 4300-digit limit"),
    (["family", "instantiate", "Z6_case3", "--param", "t=1/" + "9" * 4400],
     r"error: a 4400-digit number exceeds the 4300-digit limit"),
    (["dual", "3", "1/" + "0" * 4999 + "7"],
     r"error: a 5000-digit number exceeds the 4300-digit limit"),
    # parses, then fails formatting Delta, which has more than 4300 digits
    (["classify", "3" * 4000, "1", "--json"],
     r"error: a number in the result exceeds the 4300-digit limit"),
    (["scan", "--box", "a=0.." + "9" * 5000, "b=1..1", "--out", OUT],
     r"error: a 5000-digit number exceeds the 4300-digit limit"),
    (["oracle", "3", "4", "--primes", "5," + "9" * 5000],
     r"error: a 5000-digit number exceeds the 4300-digit limit"),
])
def test_hostile_argv_digit_limit(capsys, tmp_path, no_workers, argv, message):
    assert sys.get_int_max_str_digits() == 4300  # Python's default
    code, out, err = _run_case(capsys, tmp_path, argv)
    assert (code, out) == (1, "") and _refused(out, err), (code, err)
    assert err.count("\n") == 1 and re.fullmatch(message, err.rstrip("\n")), err
