"""One benchmark process: a set-up sample, a measured run, or a traced run.

run.py starts this file as a fresh interpreter for every set-up sample and
for every run, so set-up time and peak memory belong to one workload.  The
checkout's src/ goes first on sys.path, so the copy of prymlab measured is
the one next to this file.  The last line on stdout is one JSON object.

    python benchmarks/worker.py '{"mode": "setup", "workload": "box_structural", "seed": 0}'

Modes: "setup" imports prymlab and makes one warm-up call; "measure" runs the
workload closed-loop (one client, each call after the previous returns) for
the given seconds; "trace" runs one untraced and one traced pass over the
workload's inputs and reports the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
# The integer box; seeds other than the default shift it by a seeded offset
# da in -BOX_SHIFT..BOX_SHIFT, db in 0..BOX_SHIFT (digests.json covers them all).
BOX_A = (-30, 30)
BOX_B = (1, 30)
BOX_SHIFT = 5
# Family parameters are small rationals n/d, |n| <= 4, d <= 3.  One-parameter
# families sweep all 19 of them, so the heavy Z6_case3 / Z6_case4 tail is the
# same at every seed; two-parameter families draw seeded pairs until
# FAMILY_DRAWS are non-degenerate, so every seed gives the same record count.
# The pass is kept near a second: the host's speed drifts in stretches of tens
# of seconds, and an input's fastest time needs many passes spread over a run.
SMALL_NUM = 4
SMALL_DEN = 3
FAMILY_DRAWS = 12
# 1 mod 3 primes run the F_{p^3} sweep; 2 mod 3 primes only the F_{p^2} one.
ORACLE_PRIMES = (13, 31, 61, 97, 199, 59, 101, 197)
ORACLE_SEEDED_CURVES = 3
NAIVE_MAX_P = 61
SCAN_JOBS = 2
# Percentile reported as op_ms_tail: the highest on TAIL_LADDER with at least
# 10 inputs beyond it (1820 box curves, 221 family records, 32 oracle ops; the
# counts are the same at every seed).  scan_cli is timed per scan from outside;
# its few scans support only the slowest one.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 66.0, 50.0)
TAIL_PERCENTILE = {
    "box_structural": 99.0,
    "family_oracle": 95.0,
    "oracle_large_p": 66.0,
    "scan_cli": 100.0,
}
# prym_order primes reported one by one: the oracle_large_p set and the
# smallest good primes, which family_oracle uses on almost every curve.
PRYM_PRIMES = tuple(sorted(set(ORACLE_PRIMES) | {5, 7, 11, 13, 17, 19, 23}))
WORKLOADS = tuple(TAIL_PERCENTILE)
_MAX_ERRORS = 5


def _lines_digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def load_digests() -> Dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


# -- set-up ------------------------------------------------------------------

def setup(workload: str, warm_up: bool = True) -> Dict[str, float]:
    """Import numpy and prymlab, build the sieve, make one warm-up call."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import prymlab  # noqa: F401
    from prymlab.factorization import factor_integer

    t2 = time.perf_counter()
    factor_integer(2)  # the first call builds the 10^6 sieve
    t3 = time.perf_counter()
    if warm_up:
        _warm_up(workload)
    t4 = time.perf_counter()
    return {
        "import_numpy_s": t1 - t0,
        "import_prymlab_s": t2 - t1,
        "first_factor_s": t3 - t2,
        "warm_up_s": t4 - t3,
    }


def _warm_up(workload: str) -> None:
    from prymlab import classify_record, instantiate, new_curve, prym_order

    if workload == "box_structural":
        json.dumps(classify_record(new_curve(3, 4)), sort_keys=True)
    elif workload == "family_oracle":
        c = instantiate("table2_Z6", {"c": 2})
        json.dumps(classify_record(c, with_oracle=True), sort_keys=True)
    elif workload == "oracle_large_p":
        prym_order(new_curve(3, 4), 13)
    else:
        from prymlab.cli import main as cli_main

        out = _scratch_file("warmup")
        try:
            cli_main(["scan", "--box", "a=3..3", "b=4..4",
                      "--jobs", str(SCAN_JOBS), "--out", str(out)])
        finally:
            out.unlink(missing_ok=True)


def _scratch_file(tag: str) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{tag}-{os.getpid()}.jsonl"
    path.unlink(missing_ok=True)
    return path


# -- inputs ------------------------------------------------------------------

def box_ranges(seed: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    if seed == DEFAULT_SEED:
        da = db = 0
    else:
        rng = random.Random(f"box:{seed}")
        da = rng.randint(-BOX_SHIFT, BOX_SHIFT)
        db = rng.randint(0, BOX_SHIFT)
    return (BOX_A[0] + da, BOX_A[1] + da), (BOX_B[0] + db, BOX_B[1] + db)


def box_key(a_range, b_range) -> str:
    return f"box a={a_range[0]}..{a_range[1]} b={b_range[0]}..{b_range[1]}"


def box_curves(a_range, b_range) -> list:
    """The box in scan order (a-major), degenerate (a, b) skipped as scan does."""
    from prymlab import DegenerateCurve, new_curve

    out = []
    for a in range(a_range[0], a_range[1] + 1):
        for b in range(b_range[0], b_range[1] + 1):
            try:
                out.append(new_curve(a, b))
            except DegenerateCurve:
                continue
    return out


def small_rationals() -> List[Fraction]:
    return sorted({Fraction(n, d) for n in range(-SMALL_NUM, SMALL_NUM + 1)
                   for d in range(1, SMALL_DEN + 1)})


def family_inputs(seed: int):
    """[(FamilySpec, Curve)] over all 16 families, and the degenerate count."""
    from prymlab import DegenerateParameters, instantiate, list_families

    rng = random.Random(f"family:{seed}")
    items, skipped = [], 0
    for spec in list_families():
        if len(spec.param_names) == 1:
            for v in small_rationals():
                try:
                    items.append((spec, instantiate(spec.id, {spec.param_names[0]: v})))
                except DegenerateParameters:
                    skipped += 1
            continue
        accepted = 0
        while accepted < FAMILY_DRAWS:
            params = {n: Fraction(rng.randint(-SMALL_NUM, SMALL_NUM), rng.randint(1, SMALL_DEN))
                      for n in spec.param_names}
            try:
                items.append((spec, instantiate(spec.id, params)))
                accepted += 1
            except DegenerateParameters:
                skipped += 1
    return items, skipped


def oracle_curves(seed: int) -> list:
    """C(3, 4) plus seeded integer curves with good reduction at every prime."""
    from prymlab import new_curve

    rng = random.Random(f"oracle:{seed}")
    pairs = [(3, 4)]
    while len(pairs) < 1 + ORACLE_SEEDED_CURVES:
        a, b = rng.randint(BOX_A[0], BOX_A[1]), rng.randint(BOX_B[0], BOX_B[1])
        delta = 16 * b * (a * a - 4 * b)
        # |b| <= 30 keeps (a, b) its own integral model, so delta is the one
        # the oracle reduces.
        if delta == 0 or (a, b) in pairs or any(delta % p == 0 for p in ORACLE_PRIMES):
            continue
        pairs.append((a, b))
    return [new_curve(a, b) for a, b in pairs]


def curve_key(c) -> str:
    return f"C({c.a}, {c.b})"


# -- operations and checks ---------------------------------------------------

def record_line(c, with_oracle: bool) -> str:
    from prymlab import classify_record

    return json.dumps(classify_record(c, with_oracle=with_oracle), sort_keys=True)


def prym_line(c, p: int) -> str:
    from prymlab import prym_order

    pc = prym_order(c, p)
    return json.dumps([pc.p, list(pc.l_c.coeffs), list(pc.l_e.coeffs), list(pc.l_p), pc.order])


def family_check(spec, line: str) -> Optional[str]:
    """The family's guarantees, checked against the record: None when they hold."""
    from prymlab.families import expected_torsion_shape

    record = json.loads(line)
    torsion = record["torsion"]
    m, n = expected_torsion_shape(spec.id)
    if torsion["two_rank"] < m or torsion["three_rank"] < n:
        return f"{spec.id}: torsion {torsion['group']} misses {spec.expected_torsion}"
    order = math.prod(torsion["invariant_factors"])
    if record["oracle"]["gcd"] % order != 0:
        return f"{spec.id}: torsion order {order} does not divide oracle gcd"
    endo = record["endo"]
    if (spec.expected_end_ring and endo["cm_discriminant"] is None
            and endo["end_ring"] != spec.expected_end_ring):
        return f"{spec.id}: end ring {endo['end_ring']} != {spec.expected_end_ring}"
    return None


class NaiveCheck:
    """N_1 from the oracle's L_C against the double-loop count, p <= NAIVE_MAX_P."""

    def __init__(self) -> None:
        self._done: Dict[Tuple[str, int], Optional[str]] = {}

    def __call__(self, c, line: str) -> Optional[str]:
        from prymlab.oracle import count_points_C_naive

        p, l_c = json.loads(line)[:2]
        if p > NAIVE_MAX_P:
            return None
        key = (curve_key(c), p)
        if key not in self._done:
            naive = count_points_C_naive(c, p)
            self._done[key] = None if naive == p + 1 + l_c[1] else (
                f"{key[0]} p={p}: N_1 {p + 1 + l_c[1]} != naive {naive}")
        return self._done[key]


class Workload:
    """A workload's inputs as groups; a group is the unit of a digest check.

    `groups` is [(digest key, [op input, ...])]; `op` maps an op input to its
    canonical output line, `traced_op` does the same work through public
    calls under a tracer, and `check` returns an error string or None.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.info: Dict[str, object] = {}
        self.check = lambda item, line: None
        if name in ("box_structural", "scan_cli"):
            self.a_range, self.b_range = box_ranges(seed)
            curves = box_curves(self.a_range, self.b_range)
            self.groups = [(box_key(self.a_range, self.b_range), curves)]
            self.op = lambda c: record_line(c, False)
            self.traced_op = lambda c, tracer: reconstruct_line(c, False, tracer)
            self.info = {"box": box_key(self.a_range, self.b_range), "curves": len(curves)}
        elif name == "family_oracle":
            items, skipped = family_inputs(seed)
            self.groups = [(f"family_oracle seed={seed}", items)]
            self.op = lambda item: record_line(item[1], True)
            self.traced_op = lambda item, tracer: reconstruct_line(item[1], True, tracer)
            self.check = lambda item, line: family_check(item[0], line)
            self.degenerate_skipped = skipped
            self.info = {"records": len(items), "degenerate_skipped": skipped}
        elif name == "oracle_large_p":
            curves = oracle_curves(seed)
            self.groups = [(curve_key(c), [(c, p) for p in ORACLE_PRIMES]) for c in curves]
            self.op = lambda item: prym_line(*item)
            self.traced_op = lambda item, tracer: self.op(item)
            naive = NaiveCheck()
            self.check = lambda item, line: naive(item[0], line)
            self.info = {"curves": [curve_key(c) for c in curves],
                         "primes": list(ORACLE_PRIMES),
                         "ops_per_curve": len(ORACLE_PRIMES)}
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.digests = load_digests()

    def run_group(self, key, items, tally, samples: Optional[List[float]] = None) -> List[str]:
        """Run one group and verify it; per-op seconds go to samples."""
        lines: List[str] = []
        failed = set()
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                line = self.op(item)
            except Exception as exc:  # a failing op is counted; the run goes on
                tally.error(f"{key} #{i}: {type(exc).__name__}: {exc}")
                failed.add(i)
                line = ""
            if samples is not None:
                samples.append(time.perf_counter() - t0)
            lines.append(line)
        self.verify(key, items, lines, tally, failed)
        return lines

    def verify(self, key, items, lines: List[str], tally, failed=frozenset()) -> None:
        """Per-op checks and the group digest; count the group into tally."""
        bad = set(failed)
        for i, (item, line) in enumerate(zip(items, lines)):
            if i not in bad:
                problem = self.check(item, line)
                if problem:
                    tally.error(problem)
                    bad.add(i)
        expected = self.digests.get(key)
        if expected is not None and _lines_digest(lines) != expected:
            tally.error(f"{key}: output digest differs from the recorded one")
            bad = set(range(len(items)))
        tally.attempted += len(items)
        tally.failed += len(bad)
        tally.digests_checked += expected is not None


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests_checked = 0
        self.errors: List[str] = []

    def error(self, text: str) -> None:
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(text)

    def as_dict(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "digests_checked": self.digests_checked, "errors": self.errors}


# -- measured run --------------------------------------------------------------

def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def harrell_davis(sorted_values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile of an ascending list.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights, so the estimate does not jump when the nearest rank falls into a
    gap between inputs of unequal cost.  The weights come from integrating the
    Beta density on a fine midpoint grid.
    """
    import numpy as np

    n = len(sorted_values)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    points = max(100_000, 100 * n)
    x = (np.arange(points) + 0.5) / points
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    weights = np.bincount((x * n).astype(int), weights=pdf, minlength=n)
    return float(np.dot(weights, sorted_values) / weights.sum())


def latency_stats(values_ms: List[float], tail_q: float) -> Dict[str, object]:
    """Median and tail percentile; the tail falls back to a lower percentile
    when fewer than 10 values lie beyond tail_q (100 means the maximum)."""
    values = sorted(values_ms)
    n = len(values)
    beyond = lambda q: n - max(1, math.ceil(q / 100 * n))  # noqa: E731
    note = ""
    if tail_q < 100 and beyond(tail_q) < 10:
        note = f"too few values for p{tail_q:g}"
        tail_q = next((q for q in TAIL_LADDER if q < tail_q and beyond(q) >= 10), 50.0)
    # The interpolated median: the oracle's 32 ops put the middle pair in two
    # clusters (p = 31 and p = 197), and nearest-rank jumps between them.  The
    # tail is a Harrell-Davis estimate for the same reason: the family's p95
    # sits among heavy Z6_case3 / Z6_case4 inputs spaced a tenth apart.
    tail = values[-1] if tail_q >= 100 else harrell_davis(values, tail_q)
    return {"n": n, "p50": statistics.median(values), "tail": tail,
            "tail_percentile": tail_q, "tail_beyond": beyond(tail_q), "tail_note": note}


def measure(workload: Workload, seconds: float) -> Dict[str, object]:
    """Repeat the inputs for `seconds` (at least once each); an input's time is
    its fastest repetition.

    The host's speed drifts by up to half again over stretches of seconds to
    minutes; min-of-N per input keeps those stretches out of every metric.
    p50 and the tail are over inputs, and ops_per_s is inputs / the sum of
    their times: the throughput of one client at the host's undisturbed speed.
    """
    tally = Tally()
    if workload.name == "scan_cli":
        return measure_scan(workload, seconds, tally)
    inputs = sum(len(items) for _key, items in workload.groups)
    best: Dict[Tuple[int, int], float] = {}
    deadline = time.perf_counter() + seconds
    done = False
    while not done:
        for g, (key, items) in enumerate(workload.groups):
            samples: List[float] = []
            workload.run_group(key, items, tally, samples)
            for i, t in enumerate(samples):
                best[g, i] = min(t, best.get((g, i), t))
            if len(best) == inputs and time.perf_counter() >= deadline:
                done = True
                break
    best_ms = [t * 1e3 for t in best.values()]
    return {
        **tally.as_dict(),
        "ops_per_s": inputs / sum(best.values()),
        "latency_ms": latency_stats(best_ms, TAIL_PERCENTILE[workload.name]),
        "repetitions": tally.attempted / inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _scan_command(workload: Workload, jobs: int, out: Path) -> List[str]:
    (a_lo, a_hi), (b_lo, b_hi) = workload.a_range, workload.b_range
    return [sys.executable, "-m", "prymlab.cli", "scan",
            "--box", f"a={a_lo}..{a_hi}", f"b={b_lo}..{b_hi}",
            "--jobs", str(jobs), "--out", str(out)]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Starts one scan and reports its wall time and peak RSS.  A child's ru_maxrss
# includes the RSS of the process that forked it, so the scan is spawned from
# this small interpreter, not from the benchmark process.
_SCAN_LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_pid, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_scan(workload: Workload, jobs: int) -> Tuple[float, int, bytes, float]:
    """One `prymlab scan` subprocess: (wall seconds, exit code, file bytes,
    peak RSS in MB of the scan process and its pool workers)."""
    out = _scratch_file(f"scan-j{jobs}")
    try:
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", _SCAN_LAUNCHER,
                               *_scan_command(workload, jobs, out)],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True)
        data = out.read_bytes() if out.exists() else b""
    finally:
        out.unlink(missing_ok=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    wall, maxrss_kb = proc.stdout.split()
    return float(wall), proc.returncode, data, int(maxrss_kb) / 1024


def reference_scan(workload: Workload, tally: Tally) -> str:
    """Digest of in-process classify_record lines for the box, checked against
    the recorded digest."""
    key, curves = workload.groups[0]
    lines = workload.run_group(key, curves, tally)
    return _lines_digest(lines)


def measure_scan(workload: Workload, seconds: float, tally: Tally) -> Dict[str, object]:
    key, curves = workload.groups[0]
    count = len(curves)
    run_scan(workload, SCAN_JOBS)  # warm the file cache; not timed
    scans: List[Tuple[float, int, bytes, float]] = []
    deadline = time.perf_counter() + seconds
    while not scans or time.perf_counter() < deadline:
        scans.append(run_scan(workload, SCAN_JOBS))
    # The median scan's peak, so that one unusual scan does not set it.
    peak_rss_mb = statistics.median(peak for _w, _c, _d, peak in scans)
    reference = reference_scan(workload, Tally())
    for _wall, code, data, _peak in scans:
        tally.attempted += count
        lines = data.count(b"\n")
        problem = None
        if code != 0:
            problem = f"scan exited {code}"
        elif lines != count:
            problem = f"scan wrote {lines} lines, expected {count}"
        elif hashlib.sha256(data).hexdigest() != reference:
            problem = "scan file differs from in-process classify_record lines"
        elif reference != workload.digests.get(key):
            problem = f"{key}: output digest differs from the recorded one"
        if problem:
            tally.error(problem)
            tally.failed += count
    tally.digests_checked += len(scans)
    walls = sorted(wall for wall, _c, _d, _p in scans)
    return {
        **tally.as_dict(),
        # One scan is one input: the median scan is steadier than the fastest.
        "ops_per_s": count / percentile(walls, 50.0),
        "latency_ms": latency_stats([w / count * 1e3 for w in walls], TAIL_PERCENTILE["scan_cli"]),
        "peak_rss_mb": peak_rss_mb,
        "scans": len(scans),
    }


# -- traced run ----------------------------------------------------------------

def _prym_label(args, kwargs):
    return f"oracle.prym_order.p{args[1]}", args[1]


def _count_label(args, kwargs):
    k = args[2] if len(args) > 2 else kwargs.get("k", 1)
    return f"oracle.count_points_C.k{k}", [args[1], k]


TRACED = [
    ("curves", "integral_model", None),
    ("factorization", "factor_integer", None),
    ("polynomials", "rational_roots", None),
    ("polynomials", "biquadratic_roots", None),
    ("torsion", "two_torsion", None),
    ("torsion", "three_part", None),
    ("torsion", "torsion_group", None),
    ("torsion", "torsion_to_dict", None),
    ("endomorphisms", "endo_field", None),
    ("endomorphisms", "end_ring", None),
    ("records", "endo_profile", None),
    ("records", "oracle_summary", None),
    ("oracle", "good_primes", None),
    ("oracle", "prym_order", _prym_label),
    ("oracle", "count_points_C", _count_label),
    ("oracle", "count_points_E", None),
    ("families", "instantiate", None),
]


def install_all(tracer) -> None:
    for module, function, label in TRACED:
        tracer.install(module, function, label)


def reconstruct_line(c, with_oracle: bool, tracer) -> str:
    """classify_record rebuilt from public calls, each stage a span."""
    from prymlab import curves, oracle, records, torsion
    from prymlab.rationals import format_rational

    with tracer.span("record"):
        summary = bound = None
        if with_oracle:
            primes = oracle.good_primes(c, records.DEFAULT_ORACLE_PRIMES)
            summary = records.oracle_summary(c, primes)
            bound = summary["gcd"]
        torsion_json = torsion.torsion_to_dict(torsion.torsion_group(c, oracle_bound=bound))
        endo = records.endo_profile(c)
        with tracer.span("records.assemble_json"):
            return json.dumps({
                "curve": curves.curve_to_dict(c),
                "j": format_rational(curves.j_invariant(c)),
                "delta": format_rational(curves.discriminant(c)),
                "special": curves.is_special(c),
                "endo": endo,
                "torsion": torsion_json,
                "oracle": summary,
                "dual": curves.curve_to_dict(curves.bigonal_dual(c)),
            }, sort_keys=True)


def trace(workload: Workload) -> Dict[str, object]:
    from tracing import Tracer

    tracer = Tracer()
    tally = Tally()
    extra: Dict[str, float] = {}
    records: List[str] = []
    if workload.name == "family_oracle":
        # regenerate the inputs traced, for families.instantiate
        install_all(tracer)
        family_inputs(workload.seed)
        tracer.uninstall()

    if workload.name == "scan_cli":
        jobs1_s, code1, data1, _peak1 = run_scan(workload, 1)
        jobs2_s, code2, data2, _peak2 = run_scan(workload, SCAN_JOBS)
        reference = reference_scan(workload, tally)
        for code, data in ((code1, data1), (code2, data2)):
            if code != 0 or hashlib.sha256(data).hexdigest() != reference:
                tally.error("scan file differs from in-process classify_record lines")
                tally.failed += 1
        from prymlab.cli import main as cli_main

        out = _scratch_file("scan-traced")
        argv = ["scan", "--box", f"a={workload.a_range[0]}..{workload.a_range[1]}",
                f"b={workload.b_range[0]}..{workload.b_range[1]}", "--jobs", "1", "--out", str(out)]
        try:
            t0 = time.perf_counter()
            cli_main(argv)
            untraced_s = time.perf_counter() - t0
            out.unlink()
            install_all(tracer)
            t0 = time.perf_counter()
            with tracer.span("cli.main"):
                cli_main(argv)
            traced_s = time.perf_counter() - t0
            tracer.uninstall()
            data = out.read_bytes()
        finally:
            out.unlink(missing_ok=True)
        if hashlib.sha256(data).hexdigest() != reference:
            tally.error("traced scan differs from in-process classify_record lines")
            tally.failed += 1
        records = data.decode().splitlines()
        extra = {"cli.scan.jobs1_s": jobs1_s, "cli.scan.jobs2_s": jobs2_s,
                 "cli.pool_speedup": jobs1_s / jobs2_s, "cli.bytes_written": len(data2)}
    else:
        t0 = time.perf_counter()
        plain = [[workload.op(item) for item in items] for _key, items in workload.groups]
        untraced_s = time.perf_counter() - t0
        install_all(tracer)
        t0 = time.perf_counter()
        traced = [[workload.traced_op(item, tracer) for item in items]
                  for _key, items in workload.groups]
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
        for (key, items), got, want in zip(workload.groups, traced, plain):
            workload.verify(key, items, want, tally)
            mismatched = sum(g != w for g, w in zip(got, want))
            if mismatched:
                tally.error(f"{key}: {mismatched} traced lines differ from the untraced ones")
                tally.failed += mismatched
        if workload.name != "oracle_large_p":
            records = [line for group in plain for line in group]
    return {
        **tally.as_dict(),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layers": layer_metrics(tracer, workload, records, extra, traced_s / untraced_s - 1),
        "stages_self_ms": stage_table(tracer),
        "spans": len(tracer.spans),
        "tracer": tracer,
    }


def stage_table(tracer) -> Dict[str, float]:
    """Self time per span name, largest first; the record roots' self time is
    the glue between stages, so the table sums to the traced pass."""
    table = tracer.self_ms()
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


def layer_metrics(tracer, workload: Workload, records: List[str], extra, overhead) -> Dict:
    incl = tracer.inclusive_ms()
    calls = tracer.calls()
    ms = lambda name: incl.get(name, 0.0)  # noqa: E731
    swept, cube_bytes, sweep_ms = 0, 0, 0.0
    for name, detail, start, end, _parent in tracer.spans:
        if name.startswith("oracle.count_points_C."):
            p, k = detail
            if p ** k % 3 == 1:  # q = 2 mod 3 needs no sweep
                swept += p ** k
                cube_bytes = max(cube_bytes, p ** k)
                sweep_ms += (end - start) / 1e6
    parsed = [json.loads(line) for line in records]
    lower = sum(r["torsion"]["status"] == "lower_bound" for r in parsed)
    metrics = {
        "curves.integral_model.ms": (ms("curves.integral_model"), "ms"),
        "curves.integral_model.calls": (calls.get("curves.integral_model", 0), "count"),
        "factorization.factor_integer.ms": (ms("factorization.factor_integer"), "ms"),
        "factorization.factor_integer.calls": (calls.get("factorization.factor_integer", 0), "count"),
        "factorization.factor_integer.ms_max": (tracer.max_ms("factorization.factor_integer"), "ms"),
        "polynomials.rational_roots.ms": (ms("polynomials.rational_roots"), "ms"),
        "polynomials.rational_roots.calls": (calls.get("polynomials.rational_roots", 0), "count"),
        "polynomials.biquadratic_roots.ms": (ms("polynomials.biquadratic_roots"), "ms"),
        "torsion.two_torsion.ms": (ms("torsion.two_torsion"), "ms"),
        "torsion.three_part.ms": (ms("torsion.three_part"), "ms"),
        "torsion.torsion_group.ms": (ms("torsion.torsion_group"), "ms"),
        "endomorphisms.endo_field.ms": (ms("endomorphisms.endo_field"), "ms"),
        "endomorphisms.end_ring.ms": (ms("endomorphisms.end_ring"), "ms"),
        "records.endo_profile.ms": (ms("records.endo_profile"), "ms"),
        "records.assemble_json.ms": (ms("records.assemble_json"), "ms"),
        "records.bytes_out": (sum(len(line) + 1 for line in records), "bytes"),
        "torsion.lower_bound_share": (lower / len(parsed) if parsed else 0.0, "ratio"),
        "endomorphisms.cm_hits": (sum(r["endo"]["cm_discriminant"] is not None for r in parsed), "count"),
        "families.instantiate.ms": (ms("families.instantiate"), "ms"),
        "families.degenerate_skipped": (getattr(workload, "degenerate_skipped", 0), "count"),
        "records.oracle_summary.ms": (ms("records.oracle_summary"), "ms"),
        "oracle.good_primes.ms": (ms("oracle.good_primes"), "ms"),
        "oracle.count_points_C.k1.ms": (ms("oracle.count_points_C.k1"), "ms"),
        "oracle.count_points_C.k2.ms": (ms("oracle.count_points_C.k2"), "ms"),
        "oracle.count_points_C.k3.ms": (ms("oracle.count_points_C.k3"), "ms"),
        "oracle.count_points_E.ms": (ms("oracle.count_points_E"), "ms"),
        **{f"oracle.prym_order.p{p}.ms": (ms(f"oracle.prym_order.p{p}"), "ms") for p in PRYM_PRIMES},
        "oracle.ns_per_element": (sweep_ms * 1e6 / swept if swept else 0.0, "ns"),
        "finitefields.elements_swept": (swept, "count"),
        "finitefields.is_cube_bytes_max": (cube_bytes, "bytes"),
        "cli.scan.jobs1_s": (extra.get("cli.scan.jobs1_s", 0.0), "s"),
        "cli.scan.jobs2_s": (extra.get("cli.scan.jobs2_s", 0.0), "s"),
        "cli.pool_speedup": (extra.get("cli.pool_speedup", 0.0), "ratio"),
        "cli.bytes_written": (extra.get("cli.bytes_written", 0), "bytes"),
        "trace.overhead": (overhead, "ratio"),
    }
    return metrics


# -- entry point -----------------------------------------------------------------

def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    name, mode = cfg["workload"], cfg["mode"]
    # A measured scan_cli run warms up with an untimed scan subprocess instead,
    # so that the pool workers counted in its peak RSS are all the CLI's own.
    timings = setup(name, warm_up=not (name == "scan_cli" and mode == "measure"))
    import numpy
    import prymlab

    result: Dict[str, object] = {
        "setup": timings,
        "prymlab_file": prymlab.__file__,
        "numpy": numpy.__version__,
    }
    if mode != "setup":
        workload = Workload(name, cfg["seed"])
        result["input"] = workload.info
        if mode == "measure":
            result.update(measure(workload, cfg["seconds"]))
        else:
            traced = trace(workload)
            tracer = traced.pop("tracer")
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"{name}-seed{cfg['seed']}.spans.jsonl"
            tracer.write(spans_path)
            traced["spans_file"] = str(spans_path.relative_to(ROOT))
            result.update(traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
