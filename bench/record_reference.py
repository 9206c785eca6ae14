"""Record the reference results that the agreement check compares against.

    python3 bench/record_reference.py

Runs ops 0 to OPS-1 of every workload at the default seed and stores their
summaries in ``bench/reference.json``.  The stored file holds the results of
the commit it was recorded at; record it again only when a change to the
results is intended and reviewed.
"""

import json
import os
import sys
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from agreement import REFERENCE, RTOL  # noqa: E402
from workloads import WORKLOADS, harness_replicate_totals, op_rng  # noqa: E402

DEFAULT_SEED = 0
# Enough ops to cover a default-length run at the seed commit's speed.
OPS = {"family-n800": 60, "harness-n200": 24}


def main() -> int:
    warnings.simplefilter("ignore", UserWarning)
    out = {"seed": DEFAULT_SEED, "rtol": RTOL, "workloads": {}}
    for name, make in WORKLOADS.items():
        wl = make()
        ops = {}
        for i in range(OPS[name]):
            inp = wl.make_input(op_rng(DEFAULT_SEED, wl.stream, i))
            res = wl.run(inp)
            problems = wl.validate(inp, res)
            if problems:
                print(f"{name} op {i}: {problems}", file=sys.stderr)
                return 1
            ops[i] = wl.summarize(inp, res)
            if name == "harness-n200":
                ops[i]["replicate_totals"] = harness_replicate_totals(inp)
            print(f"{name} op {i} recorded", file=sys.stderr)
        out["workloads"][name] = ops
    REFERENCE.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
