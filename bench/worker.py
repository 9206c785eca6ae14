"""One benchmark process: set up, run ops for a fixed time, report raw results.

Started by ``run.py``; prints one JSON object on stdout.  With ``--probe`` it
stops once set-up is done, so the launcher can time set-up several times.
BLAS is pinned to one thread here, before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import rkhsball  # noqa: E402

import agreement  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, op_rng  # noqa: E402


def blas_info() -> dict:
    """BLAS name, version and thread count as the loaded library reports them."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in Path(path).name.lower():
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str | None:
    """HEAD commit read from .git directly; None outside a git checkout."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "commit": git_commit()}


def run_ops(wl, seed, seconds, reference, tracer=None):
    """Run ops from index 1 until ``seconds`` have passed; one record each.

    With a tracer, every second op runs traced.  Traced and untraced ops then
    share the machine's slow drifts, so their rates give the tracing overhead.
    """
    records = []
    index = 1
    deadline = time.perf_counter() + seconds
    # A traced run needs at least one op of each kind, however short.
    while time.perf_counter() < deadline or (tracer is not None and index <= 2):
        inp = wl.make_input(op_rng(seed, wl.stream, index))
        traced = tracer is not None and index % 2 == 0
        raised = None
        with tr.patched(tracer) if traced else nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                with tracer.op(index) if traced else nullcontext():
                    out = wl.run(inp)
            except Exception as exc:  # a raising op is a failed op, not a crash
                raised = f"raised {type(exc).__name__}: {exc}"
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if raised is None:
            rec = check(wl, inp, out, index, reference)
        else:
            rec = {"index": index, "problems": [raised], "agrees": None,
                   "tie_flips": 0, "why": []}
        records.append(rec | {"seconds": elapsed, "cpu_seconds": cpu, "traced": traced})
        index += 1
    return records


def check(wl, inp, out, index, reference) -> dict:
    problems = wl.validate(inp, out)
    rec = {"index": index, "problems": problems, "agrees": None, "tie_flips": 0, "why": []}
    if reference is not None and index in reference and not problems:
        agrees, flips, why = agreement.compare(wl.summarize(inp, out), reference[index])
        rec.update(agrees=agrees, tie_flips=flips, why=why)
    return rec


def trace_report(wl, ops, spans) -> dict:
    """Layer table of the traced ops, zero-call errors and trace overhead."""
    table = tr.layer_table(spans)
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]

    def rate(recs):
        return len(recs) / sum(r["seconds"] for r in recs)

    return {"layers": table, "expected": list(wl.expected),
            "missing": [q for q in wl.expected if table[q]["calls"] == 0],
            "overhead_frac": 1.0 - rate(traced) / rate(untraced),
            "cpu_per_wall": (sum(r["cpu_seconds"] for r in untraced)
                             / sum(r["seconds"] for r in untraced))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spans-out", type=Path)
    args = p.parse_args(argv)

    if not Path(rkhsball.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"rkhsball imported from {rkhsball.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The benchmark configurations sit below the theoretical penalty minimum
    # on purpose (see the workload notes); the warning carries no information.
    warnings.simplefilter("ignore", UserWarning)

    wl = WORKLOADS[args.workload]()
    reference = agreement.load_reference(wl.name, args.seed)
    warm_inp = wl.make_input(op_rng(args.seed, wl.stream, 0))
    warm = check(wl, warm_inp, wl.run(warm_inp), 0, reference)
    ready_at = time.monotonic()
    if args.probe:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    result = {"ready_at": ready_at, "warmup": warm, "env": environment(),
              "replicates_per_op": wl.replicates_per_op}
    tracer = tr.Tracer() if args.trace else None
    result["ops"] = run_ops(wl, args.seed, args.seconds, reference, tracer)
    if tracer is not None:
        result["trace"] = trace_report(wl, result["ops"], tracer.spans)
        if args.spans_out is not None:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_dict()) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
