"""Write benchmarks/digests.json: the output digests the benchmark checks against.

    python3 benchmarks/record_digests.py

Records, from the checkout's src/:
* box_structural / scan_cli: one digest per box the seeds can produce (every
  offset da in -BOX_SHIFT..BOX_SHIFT, db in 0..BOX_SHIFT);
* family_oracle: the pass at the default seed;
* oracle_large_p: one digest per curve at the default seed (C(3, 4) is in
  every seed's input, so it is checked at every seed).

Run it only when the output format changes on purpose; a digest that moves
for any other reason is a correctness failure.
"""

import json
import sys

import worker

sys.path.insert(0, str(worker.SRC))


def main() -> int:
    digests = {}
    for da in range(-worker.BOX_SHIFT, worker.BOX_SHIFT + 1):
        for db in range(0, worker.BOX_SHIFT + 1):
            a_range = (worker.BOX_A[0] + da, worker.BOX_A[1] + da)
            b_range = (worker.BOX_B[0] + db, worker.BOX_B[1] + db)
            curves = worker.box_curves(a_range, b_range)
            lines = [worker.record_line(c, False) for c in curves]
            digests[worker.box_key(a_range, b_range)] = worker._lines_digest(lines)
    items, _ = worker.family_inputs(worker.DEFAULT_SEED)
    digests[f"family_oracle seed={worker.DEFAULT_SEED}"] = worker._lines_digest(
        worker.record_line(c, True) for _spec, c in items)
    for c in worker.oracle_curves(worker.DEFAULT_SEED):
        digests[worker.curve_key(c)] = worker._lines_digest(
            worker.prym_line(c, p) for p in worker.ORACLE_PRIMES)
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {worker.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
