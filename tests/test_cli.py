"""Command-line interface: verbs, schemas, exit codes, scan determinism."""

import ast
import hashlib
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from prymlab.cli import main
from prymlab.curves import integral_model, new_curve
from prymlab.records import classify_record
from prymlab.oracle import prym_order

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", "3", "4")
    assert code == 0
    assert "j = 7/16" in out
    assert "J(E_6)" in out
    assert "Z/3" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "-4", "2", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["curve"] == {"a": "-4", "b": "2"}
    assert rec["j"] == "-1"
    assert rec["endo"]["cm_discriminant"] == -24
    assert rec["endo"]["sato_tate"] == "J(E_3)"
    assert rec["dual"] == {"a": "-32", "b": "128"}
    assert rec["oracle"] is None
    # every rational is a string; no floats anywhere
    def no_floats(node):
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return not isinstance(node, float)

    assert no_floats(rec)


def test_classify_with_oracle_upgrades(capsys):
    code, out, _ = run(capsys, "classify", "--json", "--primes", "7,13", "-5", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["oracle"] is not None
    assert rec["oracle"]["gcd"] % 9 == 0
    assert rec["torsion"]["group"] == "Z/3 x Z/3"


def test_degenerate_exit_2(capsys):
    code, _, err = run(capsys, "classify", "2", "1")
    assert code == 2
    assert "discriminant vanishes" in err


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "classify", "x", "4")
    assert code == 1


def test_dual_twist_json(capsys):
    code, out, _ = run(capsys, "dual", "1", "1")
    assert code == 0 and json.loads(out) == {"a": "8", "b": "-48"}
    code, out, _ = run(capsys, "twist", "3", "4", "-1")
    assert code == 0 and json.loads(out) == {"a": "-3", "b": "4"}


def test_family_list_and_instantiate(capsys):
    code, out, _ = run(capsys, "family", "list")
    assert code == 0
    entries = json.loads(out)
    ids = [e["id"] for e in entries]
    assert "table2_Z6" in ids and "gl2_sqrt2_F9" in ids
    assert len(ids) == 16

    code, out, _ = run(
        capsys, "family", "instantiate", "table2_Z3xZ6", "--param", "c=2"
    )
    assert code == 0 and json.loads(out) == {"a": "-720", "b": "82944"}


def test_family_errors(capsys):
    code, _, err = run(capsys, "family", "instantiate", "nope")
    assert code == 1
    code, _, err = run(
        capsys, "family", "instantiate", "table2_Z3xZ6", "--param", "c=1"
    )
    assert code == 2  # degenerate parameters
    code, out, err = run(capsys, "family", "instantiate", "table2_Z6",
                         "--param", "c=1", "--param", "c=5")
    assert (code, out, err) == (1, "", "error: c given twice\n")


def test_oracle_verb(capsys):
    code, out, _ = run(capsys, "oracle", "-5", "4", "--primes", "5,7")
    assert code == 0
    data = json.loads(out)
    assert data["gcd"] == 9
    assert [row["p"] for row in data["per_prime"]] == [5, 7]
    assert data["per_prime"][1]["prym_order"] == 63


def _child_env(**env):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **env)


def run_process(*argv, timeout=120, **env):
    """The CLI in a fresh interpreter, with `env` added to the environment; an
    input that does not finish within `timeout` seconds raises TimeoutExpired."""
    return subprocess.run(
        [sys.executable, "-m", "prymlab.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=_child_env(**env),
    )


@pytest.mark.parametrize("count", ["0", "-2"])
def test_oracle_nonpositive_count_finishes(count):
    proc = run_process("oracle", "3", "4", "--count", count)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"per_prime": [], "gcd": 0}


def test_classify_empty_primes_finishes():
    # the gcd of no orders is 0: no information, not an infinite 3-adic valuation
    proc = run_process("classify", "3", "4", "--primes", "", "--json")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["oracle"] == {"per_prime": [], "gcd": 0}
    assert rec["torsion"]["group"] == "Z/3" and rec["torsion"]["status"] == "exact"


def test_oracle_prime_above_cap_refused_before_counting():
    # good primes of C(3, 4) skip 7; the 14th is 61, the first above the cap
    proc = run_process("oracle", "3", "4", "--count", "20", PRYMLAB_PRIME_CAP="60")
    assert proc.returncode == 1
    assert "p = 61 above enumeration cap 60" in proc.stderr
    assert proc.stdout == ""


def test_oracle_huge_count_refused_at_the_first_prime_above_cap():
    # good_primes stops at 503 instead of enumerating 10^6 good primes (over
    # 30 s) before the cap check; the message and exit code are the same
    proc = run_process("oracle", "3", "4", "--count", "1000000", timeout=10)
    assert proc.returncode == 1
    assert "p = 503 above enumeration cap 499" in proc.stderr
    assert proc.stdout == ""


# N is a product of two 13-digit primes and 6469693230 = 2*3*5*...*29: the
# full-factoring integral model spent seconds in Pollard rho on N, and the
# lifting quartic for b = 6469693230^3 walked the 78732 divisors of 3t^2.
# The digests are sha256 of the --json lines that implementation printed.
_N = str(1000000000039 * 3000000000013)
_CLIFFS = [
    ("0", _N, "8c23f1d23b7f2d2fb7869165bd5fa4a89f28e37ac55f42bcc3ed80221b776d76"),
    ("5", _N, "ec936d3da396fa3ee93faab7c7705bd447d0f89b11d33ef30361fe22286b89fb"),
    (_N, _N, "b623b9b46e7162b7dfc18fed8e1da2b9812a5981f0fa6b97ca5c78de8bd55dd8"),
    ("7", str(6469693230 ** 3),
     "4747f5ef0d22a6273e5dbd7736c05f3bae1aa50a7b3d90728f5aa7b1ce063225"),
]


@pytest.mark.parametrize("a, b, digest", _CLIFFS, ids=["0-N", "5-N", "N-N", "7-t^3"])
def test_classify_cliff_inputs_finish(a, b, digest):
    proc = run_process("classify", a, b, "--json")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# (1/N, 1) has the integral model (N^5, N^12), whose gcd cofactor N^10 sent
# every normalization to rho; the digests are the ones the implementation
# before the perfect-power step printed, after minutes in rho.
_NORMALIZATION_CLIFFS = [
    ("1/" + _N, "1", "6c62af341cdf758099b4211eaad4530e938b67eb7e5da69c182ae85c8262a9a2"),
    (str(int(_N) ** 5), str(int(_N) ** 12),
     "489a90ea5693a16152d39608f37b08b4f3fd7b3e546b8e482ecb63b0515c8ac7"),
]


@pytest.mark.parametrize("a, b, digest", _NORMALIZATION_CLIFFS, ids=["1/N-1", "N^5-N^12"])
def test_classify_normalization_cliffs_finish(a, b, digest):
    proc = run_process("classify", a, b, "--json")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_classify_oracle_on_a_large_denominator_finishes():
    proc = run_process("classify", "1/" + _N, "1", "--oracle", "--json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["oracle"]["per_prime"]
    m = integral_model(new_curve(Fraction(1, int(_N)), 1))
    assert (m.a, m.b) == (int(_N) ** 5, int(_N) ** 12)
    assert len(rows) == 5
    for row in rows:
        pc = prym_order(m, row["p"])
        assert row == {"p": pc.p, "l_c": list(pc.l_c.coeffs), "l_e": list(pc.l_e.coeffs),
                       "prym_order": pc.order}


def test_oracle_bad_prime_exit_1(capsys):
    code, _, err = run(capsys, "oracle", "-5", "4", "--primes", "4")
    assert code == 1
    for verb in ("oracle", "classify"):
        code, out, err = run(capsys, verb, "3", "4", "--primes", "5,5")
        assert (code, out, err) == (1, "", "error: p = 5 given twice\n")


def test_scan_box_deterministic(capsys, tmp_path):
    code, out1, _ = run(capsys, "scan", "--box", "a=-2..2", "b=1..3")
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--box", "a=-2..2", "b=1..3")
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    # (a, b) = (2, 1) and (-2, 1) are degenerate and skipped
    assert len(records) == 5 * 3 - 2
    pairs = [(r["curve"]["a"], r["curve"]["b"]) for r in records]
    assert pairs == sorted(pairs, key=lambda t: (int(t[0]), int(t[1])))


def test_scan_family_sweep(capsys):
    code, out, _ = run(
        capsys, "scan", "--family", "table2_Z6", "--param", "c=1..20"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 20
    for rec in records:
        group = rec["torsion"]["group"]
        assert rec["torsion"]["two_rank"] >= 1
        assert rec["torsion"]["three_rank"] >= 1
        assert group in ("Z/6", "Z/6 x Z/3")


def test_scan_resume(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run(capsys, "scan", "--box", "a=-2..2", "b=1..3",
                     "--out", str(out_path))
    assert code == 0
    full = out_path.read_text()
    # truncate to the first 4 lines and resume
    lines = full.splitlines(keepends=True)
    out_path.write_text("".join(lines[:4]))
    code, _, _ = run(capsys, "scan", "--box", "a=-2..2", "b=1..3",
                     "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == full
    # running again on a complete file appends nothing
    code, _, _ = run(capsys, "scan", "--box", "a=-2..2", "b=1..3",
                     "--out", str(out_path))
    assert out_path.read_text() == full


def test_scan_resume_after_cut_line(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    args = ("scan", "--box", "a=1..2", "b=1..3", "--out", str(out_path))
    code, _, _ = run(capsys, *args)
    assert code == 0
    full = out_path.read_text()
    lines = full.splitlines(keepends=True)
    # a scan killed while writing line 3 leaves it without its newline
    out_path.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    code, _, _ = run(capsys, *args)
    assert code == 0
    resumed = out_path.read_text()
    assert [json.loads(line) for line in resumed.splitlines()] == [
        json.loads(line) for line in lines
    ]
    assert resumed == full


def test_scan_refuses_a_different_scan(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run(capsys, "scan", "--box", "a=1..2", "b=1..3", "--out", str(out_path))
    assert code == 0
    full = out_path.read_text()
    for other in (["--box", "a=5..6", "b=1..3"],             # other curves
                  ["--box", "a=1..2", "b=1..3", "--oracle"],  # oracle data wanted
                  ["--box", "a=1..1", "b=1..3"]):             # fewer records than the file
        code, _, err = run(capsys, "scan", *other, "--out", str(out_path))
        assert code == 1
        assert err.startswith("error:") and "different scan" in err
        assert out_path.read_text() == full
    # a longer scan with the same head still resumes
    code, _, _ = run(capsys, "scan", "--box", "a=1..3", "b=1..3", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith(full) and len(out_path.read_text().splitlines()) == 8


def test_scan_jobs_byte_identical(capsys, tmp_path):
    one = tmp_path / "one.jsonl"
    four = tmp_path / "four.jsonl"
    run(capsys, "scan", "--box", "a=-3..3", "b=1..4", "--out", str(one))
    run(capsys, "scan", "--box", "a=-3..3", "b=1..4", "--jobs", "4",
        "--out", str(four))
    assert one.read_text() == four.read_text()


def test_scan_family_oracle_jobs_byte_identical(capsys):
    args = ("scan", "--family", "table2_Z6", "--param", "c=1..6", "--oracle")
    code1, one, _ = run(capsys, *args, "--jobs", "1")
    code2, two, _ = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert len(one.splitlines()) == 6 and one == two


class _FakePool:
    """multiprocessing.Pool stand-in: records its worker count and chunk size
    and maps in-process."""

    started = []  # [processes, chunksize] of each pool

    def __init__(self, processes):
        self.calls = [processes]
        _FakePool.started.append(self.calls)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, iterable, chunksize=1):
        self.calls.append(chunksize)
        return map(fn, iterable)


def test_scan_pool_bounded_by_grid_and_cpus(capsys, monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cases = [  # jobs, box, worker count started (None: no pool)
        ("1000", ("a=1..1", "b=1..2"), 2),
        ("1000", ("a=1..3", "b=1..4"), 8),
        ("3", ("a=1..3", "b=1..4"), 3),
        ("1000", ("a=1..1", "b=1..1"), None),
    ]
    for jobs, box, workers in cases:
        _, expected, _ = run(capsys, "scan", "--box", *box)
        del _FakePool.started[:]
        code, out, _ = run(capsys, "scan", "--box", *box, "--jobs", jobs)
        assert code == 0 and out == expected
        if workers is None:
            assert _FakePool.started == []
        else:
            [(processes, chunksize)] = _FakePool.started
            assert processes == workers and 1 <= chunksize <= 64
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    del _FakePool.started[:]
    run(capsys, "scan", "--box", "a=1..3", "b=1..4", "--jobs", "4")
    assert _FakePool.started == []


@pytest.mark.parametrize("args", [
    ["--box", "a=1..2", "c=1..2"],
    ["--box", "a=1..2", "b=1..2", "--family", "table2_Z6"],
    ["--family", "table2_Z6"],
    ["--family", "table2_Z6", "--param", "c=1..2", "--param", "z=1..2"],
    ["--family", "table2_Z6", "--param", "c=1..3", "--param", "c=5..6"],
    ["--box", "a=1..2", "b=1..2", "a=5..5"],
    ["--box", "a=1..2", "b=1..2", "--box", "a=5..5", "b=1..1"],
], ids=["box-variable", "both-modes", "missing-param", "unknown-param", "repeated-param",
        "repeated-box-variable", "repeated-box-flag"])
def test_scan_bad_arguments_never_touch_out(capsys, tmp_path, args):
    out_path = tmp_path / "scan.jsonl"
    code, out, err = run(capsys, "scan", *args, "--out", str(out_path))
    assert code == 1 and err.startswith("error:") and out == ""
    assert not out_path.exists()


def test_scan_box_split_across_flags(capsys):
    # --box extends: the variables may come in several flags, in any order
    _, expected, _ = run(capsys, "scan", "--box", "a=-1..1", "b=2..3")
    for box in (["--box", "a=-1..1", "--box", "b=2..3"], ["--box", "b=2..3", "--box", "a=-1..1"]):
        code, out, err = run(capsys, "scan", *box)
        assert (code, out, err) == (0, expected, "")


def test_scan_streams_a_huge_box_under_a_memory_cap():
    # 10^8 curves, and an a-axis of 10^20 + 1 values (its length overflows
    # len()), each in a child limited to 512 MB of address space: the first
    # record arrives because neither the grid nor an axis is ever built
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    first_record = json.dumps(classify_record(new_curve(0, 1)), sort_keys=True) + "\n"
    for box in (("a=0..9999", "b=1..10000"), (f"a=0..{10 ** 20}", "b=1..2")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "prymlab.cli", "scan", "--box", *box],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=_child_env(), preexec_fn=cap_memory,
        )
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert first == first_record, box


def test_scan_rejects_conflicting_modes(capsys):
    code, _, err = run(capsys, "scan", "--box", "a=1..2", "b=1..2",
                       "--family", "table2_Z6")
    assert code == 1


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # missing b
    assert exc.value.code == 1


def test_negative_rational_positional(capsys):
    code, out, _ = run(capsys, "classify", "-5/9", "2", "--json")
    assert code == 0
    assert json.loads(out)["curve"]["a"] == "-5/9"


def test_package_holds_no_test_only_module():
    # the CLI loads every module the package ships; the brute-force field
    # tower lives beside the tests, not in the library
    moved = "finitefields"
    assert (Path(__file__).resolve().parent / f"{moved}.py").is_file()
    code = (
        "import importlib, pkgutil, sys\n"
        "import prymlab.cli\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(prymlab.__path__))\n"
        "print(names)\n"
        "print([n for n in names if 'prymlab.' + n not in sys.modules])\n"
        "try:\n"
        f"    importlib.import_module('prymlab.{moved}')\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
        "else:\n"
        "    print('imported')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    listed, unloaded, missing = proc.stdout.splitlines()
    assert "cli" in listed and moved not in listed
    assert unloaded == "[]"
    assert missing == f"prymlab.{moved}"


def test_package_holds_no_assert():
    # every check is a raise, so python -O keeps them all
    package = Path(__file__).resolve().parents[1] / "src" / "prymlab"
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
