"""Command-line interface: verbs, schemas, exit codes, scan determinism."""

import ast
import contextlib
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from prymlab.cli import main
from prymlab.curves import integral_model, new_curve
from prymlab.errors import DegenerateParameters, InternalInconsistency
from prymlab.families import instantiate
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


def _assert_no_child():
    # every worker a scan forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs whatever the host, and the pids of the scan workers
    forked while the test runs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def test_scan_jobs_byte_identical(capsys, tmp_path):
    one = tmp_path / "one.jsonl"
    four = tmp_path / "four.jsonl"
    run(capsys, "scan", "--box", "a=-3..3", "b=1..4", "--out", str(one))
    run(capsys, "scan", "--box", "a=-3..3", "b=1..4", "--jobs", "4",
        "--out", str(four))
    assert one.read_text() == four.read_text()
    _assert_no_child()


def test_scan_family_oracle_jobs_byte_identical(capsys):
    args = ("scan", "--family", "table2_Z6", "--param", "c=1..6", "--oracle")
    code1, one, _ = run(capsys, *args, "--jobs", "1")
    code2, two, _ = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert len(one.splitlines()) == 6 and one == two
    _assert_no_child()


def test_scan_family_jobs_match_in_process_records(capsys, forks):
    # Z6_case3 has a zero denominator at t = 0 and c = 1, a = -2, b = 1 at t = 1
    args = ("scan", "--family", "Z6_case3", "--param", "t=-3..3")
    expected = "".join(
        json.dumps(classify_record(instantiate("Z6_case3", {"t": Fraction(t)})),
                   sort_keys=True) + "\n"
        for t in (-3, -2, -1, 2, 3))
    for t in (0, 1):
        with pytest.raises(DegenerateParameters):
            instantiate("Z6_case3", {"t": Fraction(t)})
    assert run(capsys, *args, "--jobs", "1") == (0, expected, "")
    assert forks == []
    assert run(capsys, *args, "--jobs", "2") == (0, expected, "")
    assert len(forks) == 2
    _assert_no_child()


def test_scan_resume_after_cut_line_at_two_jobs(capsys, tmp_path, forks):
    # a file cut mid-line, resumed by two workers, equals an uncut one-job scan
    whole, cut = tmp_path / "whole.jsonl", tmp_path / "cut.jsonl"
    box = ("scan", "--box", "a=-3..3", "b=1..6")
    assert run(capsys, *box, "--out", str(whole))[0] == 0
    text = whole.read_text()
    cut.write_text(text[: text.index("\n", len(text) // 3) - 40])
    assert run(capsys, *box, "--jobs", "2", "--out", str(cut))[0] == 0
    assert len(forks) == 2
    assert cut.read_text() == text
    _assert_no_child()


def test_scan_worker_exception_keeps_its_exit_code(capsys, tmp_path, monkeypatch, forks):
    # an exception in a worker exits as it would in process: exit 3, the lines
    # before the failing record written, no child left
    import prymlab.cli as cli

    classify = cli.classify_record

    def failing(c, **kwargs):
        if (c.a, c.b) == (2, 5):
            raise InternalInconsistency("planted in the scan of C(2, 5)")
        return classify(c, **kwargs)

    monkeypatch.setattr(cli, "classify_record", failing)
    results = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"jobs{jobs}.jsonl"
        code, out, err = run(capsys, "scan", "--box", "a=-3..3", "b=1..6",
                             "--jobs", jobs, "--out", str(out_path))
        results.append((code, out, err, out_path.read_text()))
        _assert_no_child()
    assert len(forks) == 2
    code, out, err, text = results[0]
    assert (code, out, err) == (3, "", "internal inconsistency: planted in the scan of C(2, 5)\n")
    # a = -3..1 less (-2, 1), then (2, 2..4): 32 records, the last two from
    # the failing block of 5 (records 30..34)
    assert len(text.splitlines()) == 32
    assert results[1] == results[0]


# Runs a scan through cli.main in a fresh interpreter with two usable CPUs.
# argv[1] is "-" or "A,B": the worker that classifies C(A, B) dies there with
# os._exit.  The last stdout line reports the forks, whether multiprocessing
# was imported, the threads alive and whether a child outlived the scan.
_SCAN_CHILD = """
import json, os, sys
from prymlab import cli

parent, forks, fork, classify = os.getpid(), [], os.fork, cli.classify_record
dying = None if sys.argv[1] == "-" else tuple(map(int, sys.argv[1].split(",")))

def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

def classify_or_die(c, **kwargs):
    if os.getpid() != parent and (c.a, c.b) == dying:
        os._exit(9)
    return classify(c, **kwargs)

os.fork, cli.classify_record = counting_fork, classify_or_die
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    child_left = True
except ChildProcessError:
    child_left = False
import threading
print(json.dumps({"forks": len(forks), "multiprocessing": "multiprocessing" in sys.modules,
                  "threads": threading.active_count(), "child_left": child_left}))
sys.exit(code)
"""


def _scan_child(dying, *argv, timeout=60):
    """_SCAN_CHILD in its own session; a scan still running after `timeout`
    seconds is killed with its whole process group and fails the test."""
    proc = subprocess.Popen([sys.executable, "-c", _SCAN_CHILD, dying, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"scan {argv} still running after {timeout} s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, json.loads(out.splitlines()[-1]), err


def test_scan_workers_import_no_multiprocessing(tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, report, err = _scan_child("-", "scan", "--box", "a=-3..3", "b=1..6",
                                    "--jobs", "2", "--out", str(out_path))
    assert (code, err) == (0, "")
    assert report == {"forks": 2, "multiprocessing": False, "threads": 1, "child_left": False}


def test_scan_dead_worker_exits_1_and_resumes(capsys, tmp_path):
    # a worker that dies mid-box ends the scan instead of hanging it; the file
    # keeps whole records, and a rerun resumes it to the full scan.  C(5, 3) is
    # record 120 of 595, in block 1 of 64; the other worker has enough blocks
    # left to fill its pipe, so a scan that waited for it would hang
    box = ("scan", "--box", "a=1..20", "b=1..30")
    whole, out_path = tmp_path / "whole.jsonl", tmp_path / "scan.jsonl"
    assert run(capsys, *box, "--out", str(whole))[0] == 0
    code, report, err = _scan_child("5,3", *box, "--jobs", "2", "--out", str(out_path))
    assert code == 1 and report["forks"] == 2 and not report["child_left"]
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    text = out_path.read_text()
    assert text.endswith("\n") and whole.read_text().startswith(text)
    assert 0 < len(text.splitlines()) < len(whole.read_text().splitlines())
    code, report, err = _scan_child("-", *box, "--jobs", "2", "--out", str(out_path))
    assert (code, err, report["child_left"]) == (0, "", False)
    assert out_path.read_text() == whole.read_text()


def test_scan_pool_bounded_by_grid_and_cpus(capsys, monkeypatch):
    import prymlab.cli as cli

    started = []  # (workers, chunk) of each forked scan

    def fake_scan_forked(sink, record_line, curves, workers, chunk):
        started.append((workers, chunk))
        for c in curves:
            print(record_line(c), file=sink)

    monkeypatch.setattr(cli, "_scan_forked", fake_scan_forked)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cases = [  # jobs, box, worker count started (None: no workers)
        ("1000", ("a=1..1", "b=1..2"), 2),
        ("1000", ("a=1..3", "b=1..4"), 8),
        ("3", ("a=1..3", "b=1..4"), 3),
        ("1000", ("a=1..1", "b=1..1"), None),
    ]
    for jobs, box, workers in cases:
        _, expected, _ = run(capsys, "scan", "--box", *box)
        del started[:]
        code, out, _ = run(capsys, "scan", "--box", *box, "--jobs", jobs)
        assert code == 0 and out == expected
        if workers is None:
            assert started == []
        else:
            [(count, chunk)] = started
            assert count == workers and 1 <= chunk <= 64
    _, expected, _ = run(capsys, "scan", "--box", "a=1..3", "b=1..4")
    one_cpu = [  # the CPUs this process may use, not the machine's count
        {"sched_getaffinity": lambda pid: {0}},
        {"sched_getaffinity": None, "cpu_count": lambda: 1},
        {"fork": None},  # no fork: in process at any --jobs
    ]
    for patches in one_cpu:
        with monkeypatch.context() as patch:
            for name, value in patches.items():
                if value is None:
                    patch.delattr(os, name, raising=False)
                else:
                    patch.setattr(os, name, value)
            del started[:]
            code, out, _ = run(capsys, "scan", "--box", "a=1..3", "b=1..4", "--jobs", "4")
            assert (code, out, started) == (0, expected, [])
    # without an affinity mask the CPU count bounds the workers
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    del started[:]
    run(capsys, "scan", "--box", "a=1..3", "b=1..4", "--jobs", "4")
    assert [count for count, _ in started] == [4]


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
