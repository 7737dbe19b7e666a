"""prymlab benchmark: one workload, one run, every metric by name and unit.

    python3 benchmarks/run.py --workload box_structural --seed 0 --seconds 28 --trace 0

Run from the root of a checkout.  Each set-up sample and the run itself are
fresh child processes (benchmarks/worker.py) with the checkout's src/ first
on the path.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones from a traced pass.  Human-readable lines come first; the last
stdout line is one JSON object {"correct", "attempted", "failed", "metrics"}.
A full report goes to benchmarks/out/BENCH_<workload>_seed<n>_trace<t>.json.
Exits 1 when an output check fails, 2 when the checkout holds no prymlab.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
# Everything, set-up samples included, must end well inside 180 s.
BUDGET_S = 170.0

sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402

POOL_NOTE = ("time spent waiting inside the scan's process pool is not visible "
             "from outside the CLI; it needs tracing inside the library")


class WorkerFailed(RuntimeError):
    pass


def run_worker(config: dict, deadline: float) -> dict:
    """Start worker.py in its own session; return its last stdout line as JSON.

    On timeout the whole process group (scan subprocesses and their pool
    workers included) is killed and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(config)], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{config['mode']} worker exceeded the time budget") from None
    finally:
        # a worker that died early may leave its scan subprocess behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{config['mode']} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(result: dict, setup_s: float) -> dict:
    lat = result["latency_ms"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (result["ops_per_s"], "1/s"),
        "op_ms_p50": (lat["p50"], "ms"),
        "op_ms_tail": (lat["tail"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def describe(name: str, result: dict) -> str:
    lat = result.get("latency_ms")
    if name == "op_ms_p50":
        return f"over {lat['n']} {'scans' if 'scans' in result else 'inputs'}"
    if name == "op_ms_tail":
        pct = ("max" if lat["tail_percentile"] >= 100
               else f"Harrell-Davis p{lat['tail_percentile']:g}")
        text = f"{pct} of {lat['n']}, {lat['tail_beyond']} beyond"
        return text + (f"; {lat['tail_note']}" if lat["tail_note"] else "")
    if name == "ops_per_s":
        if "scans" in result:
            return f"median of {result['scans']} scans"
        return f"{lat['n']} inputs, each the fastest of {result['repetitions']:.1f} runs on average"
    if name == "setup_s":
        return f"median of {SETUP_SAMPLES} fresh processes"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "prymlab" / "__init__.py").is_file():
        print(f"benchmark: no src/prymlab in {ROOT}; run it from a prymlab checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    try:
        walls, setups = [], []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            setups.append(run_worker({**base, "mode": "setup"}, deadline)["setup"])
            walls.append(time.perf_counter() - t0)
        mode = "trace" if args.trace else "measure"
        result = run_worker({**base, "mode": mode}, deadline)
    except WorkerFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    src_pkg = ROOT / "src" / "prymlab"
    if Path(result["prymlab_file"]).resolve().parent != src_pkg.resolve():
        result["errors"].append(f"measured prymlab at {result['prymlab_file']}, not {src_pkg}")
        result["failed"] = result["attempted"]
    setup_s = statistics.median(walls)
    if args.trace:
        metrics = {
            f"setup.{key}": (statistics.median(s[key] for s in setups), "s")
            for key in ("import_numpy_s", "import_prymlab_s", "first_factor_s")
        }
        metrics.update(result["layers"])
    else:
        metrics = end_to_end(result, setup_s)
    correct = result["failed"] == 0 and not result["errors"]
    env = {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "prymlab_file": result["prymlab_file"],
    }

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {json.dumps(result['input'])}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = "" if args.trace else describe(name, result)
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failed_ratio = {result['failed']}/{result['attempted']} = {ratio:g}"
          f"  ({result['digests_checked']} output digests checked)")
    if args.trace:
        print(f"  traced pass {result['traced_s']:.3f} s vs untraced {result['untraced_s']:.3f} s; "
              f"{result['spans']} spans in {result['spans_file']}")
        print("  self time by span (ms): " + ", ".join(
            f"{k} {v:.1f}" for k, v in list(result["stages_self_ms"].items())[:12]))
        print("  finitefields.* are computed from the point-count arguments, not timed")
    if args.workload == "scan_cli":
        print(f"  note: {POOL_NOTE}")
    for error in result["errors"]:
        print(f"  error: {error}")

    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    report = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": walls, "setup_internal": setups,
              "metrics": metrics_json,
              "result": {k: v for k, v in result.items() if k != "layers"}}
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
