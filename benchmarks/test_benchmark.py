"""The benchmark's computed counts repeat exactly for a seed.

    python3 -m pytest benchmarks/test_benchmark.py

Runs the traced family_oracle workload twice (about a minute on two cores);
that workload reaches every counted layer.  No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNTS = (
    "finitefields.elements_swept",
    "torsion.lower_bound_share",
    "families.degenerate_skipped",
    "endomorphisms.cm_hits",
)


def traced_counts(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "family_oracle",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def test_counts_repeat_for_a_seed():
    first = traced_counts(7)
    assert first == traced_counts(7)
    assert first["finitefields.elements_swept"] > 0
    assert first["families.degenerate_skipped"] > 0
