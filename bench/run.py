"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload family-n800 --seed 0 --seconds 50 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``.  Set-up is timed from process start to the first timed op, in
``SETUPS`` separate worker processes, and reported as their median.  The last
worker then measures.  With ``--trace 0`` the result line carries the
end-to-end metrics; with ``--trace 1`` the worker traces every second op
and the result line carries the per-layer metrics.

Every line but the last is a human-readable report; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full report (environment, per-op records, layer table) is
also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
TAIL_BEYOND = 10    # the tail percentile keeps at least this many ops beyond it

# The metrics each mode reports on its last line, with units, in the order
# BENCHMARK.json lists them.
END_TO_END = {"op_p50_ms": "ms", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "estimator.eigen_gram.calls": "count/op",
    "estimator.eigen_gram.busy_s": "s/op",
    "estimator.eigen_gram.rank_fraction": "ratio",
    "estimator.eigen_gram.n_cubed": "count/op",
    "estimator.mu_of_r.calls": "count/op",
    "estimator.mu_of_r.busy_s": "s/op",
    "estimator.mu_of_r.active_fraction": "ratio",
    "estimator.fit_constrained.calls": "count/op",
    "estimator.fit_constrained.self_s": "s/op",
    "kernels.gram.calls": "count/op",
    "kernels.gram.busy_s": "s/op",
    "kernels.gram.entries": "count/op",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
}


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(v) for v in fh.read().split()[:3]]


class RunFailed(Exception):
    pass


def spawn(args, deadline: float, probe: bool, spans_out: Path | None = None) -> tuple[dict, float]:
    """Run one worker to completion; return its JSON result and set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready_at"] - spawned_at


def tail(times_ms: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND ops beyond it: (pct, value)."""
    n = len(times_ms)
    k = n - TAIL_BEYOND  # 1-based order statistic
    if k < 1:
        return None
    return 100.0 * k / n, sorted(times_ms)[k - 1]


def end_to_end(ops, setups, peak_rss_mb, replicates_per_op) -> dict:
    times = [op["seconds"] for op in ops]
    ops_per_s = len(times) / sum(times)
    return {"op_p50_ms": statistics.median(times) * 1e3, "ops_per_s": ops_per_s,
            "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb,
            "replicates_per_s": ops_per_s * replicates_per_op}


def per_layer(trace) -> dict:
    layers = trace["layers"]
    out = {}
    for name in PER_LAYER:
        if name == "process.cpu_per_wall":
            out[name] = trace["cpu_per_wall"]
        elif name == "trace.overhead_frac":
            out[name] = trace["overhead_frac"]
        else:
            layer, key = name.rsplit(".", 1)
            out[name] = layers[layer][key]
    return out


def report_lines(args, result, ops, metrics, setups, load_start, load_end, replicates):
    env = result["env"]
    blas = env["blas"]
    failed = [op for op in ops if op["problems"]]
    compared = [op for op in ops if op["agrees"] is not None]
    lines = [
        f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"  env: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
        f"numpy={env['numpy']} blas={blas['name']} {blas['version']} "
        f"blas_threads={blas['threads']} commit={env['commit'] or 'unknown (not a git checkout)'}",
        f"  load: start={load_start} end={load_end}"
        + ("  ** started under load: timings suspect **" if under_load(load_start) else ""),
    ]
    if not args.trace:
        times = [op["seconds"] * 1e3 for op in ops]
        t = tail(times)
        tail_text = (f"{t[1]:.1f} ms  (p{t[0]:.0f} of {len(ops)} ops)" if t else
                     f"n/a  ({len(ops)} ops; a tail with {TAIL_BEYOND} ops beyond it "
                     f"needs at least {TAIL_BEYOND + 1})")
        lines += [
            f"  op_p50_ms         {metrics['op_p50_ms']:.1f} ms  (median of {len(ops)} ops)",
            f"  op_tail_ms        {tail_text}",
            f"  ops_per_s         {metrics['ops_per_s']:.4f} 1/s",
            f"  replicates_per_s  {metrics['replicates_per_s']:.3f} 1/s"
            f"  ({replicates} replicate(s) per op)",
            f"  setup_s           {metrics['setup_s']:.3f} s  (median of "
            + ", ".join(f"{s:.3f}" for s in setups) + ")",
            f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB",
        ]
    lines.append(f"  error_rate        {len(failed) / len(ops):.4f}  "
                 f"({len(failed)} of {len(ops)} ops failed)")
    if compared:
        flips = sum(op["tie_flips"] for op in compared)
        agreed = sum(op["agrees"] for op in compared)
        lines.append(f"  agreement         {agreed / len(compared):.4f}  ({agreed} of "
                     f"{len(compared)} ops in the reference; {flips} near-tie flip(s))")
    else:
        lines.append("  agreement         n/a  (no reference for this seed or these ops)")
    for op in failed + [op for op in compared if not op["agrees"]]:
        lines.append(f"  op {op['index']}: " + "; ".join(op["problems"] + op["why"]))
    if args.trace:
        lines += trace_lines(result["trace"])
    return lines


def trace_lines(trace) -> list[str]:
    lines = ["  layer                                   calls/op    busy_s/op    self_s/op"
             "   share  work/op"]
    for name, row in trace["layers"].items():
        if row["calls"] == 0 and name not in trace["expected"]:
            lines.append(f"  {name:<38}   not called on this workload")
            continue
        extra = " ".join(f"{k}={row[k]:.6g}" for k in
                         ("entries", "pairs", "n_cubed", "rank_fraction", "active_fraction")
                         if k in row)
        lines.append(f"  {name:<38} {row['calls']:>9.1f} {row['busy_s']:>12.6f} "
                     f"{row['self_s']:>12.6f} {row['share']:>7.1%}  {extra}")
    lines.append("  (op.self_s: time inside ops that no wrapped call covers; n_cubed is "
                 "computed from argument shapes, not measured)")
    lines.append(f"  process.cpu_per_wall {trace['cpu_per_wall']:.4f}   "
                 f"trace.overhead_frac {trace['overhead_frac']:.4f}")
    for name in trace["missing"]:
        lines.append(f"  ERROR: layer {name} recorded zero calls on a workload that must call it")
    return lines


def under_load(load: list[float]) -> bool:
    # Back-to-back benchmark runs keep the 1-minute load between 1 and about
    # 1.5 (two pool threads); at the core count or above, another busy
    # process shares the cores.
    return load[0] >= (os.cpu_count() or 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if not (REPO / "src" / "rkhsball" / "__init__.py").is_file():
        print(f"no package source at {REPO / 'src' / 'rkhsball'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_start = loadavg()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for _ in range(SETUPS - 1 if not args.trace else 0):
            setups.append(spawn(args, deadline, probe=True)[1])
        result, setup = spawn(args, deadline, probe=False,
                              spans_out=OUT / f"{stem}.spans.jsonl" if args.trace else None)
        setups.append(setup)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    load_end = loadavg()

    ops = result["ops"]
    replicates = result["replicates_per_op"]
    e2e = end_to_end(ops, setups, result["peak_rss_mb"], replicates)
    lines = report_lines(args, result, ops, e2e, setups, load_start, load_end, replicates)
    failed = sum(1 for op in ops if op["problems"])
    correct = (failed == 0 and not result["warmup"]["problems"]
               and result["warmup"]["agrees"] is not False
               and all(op["agrees"] is not False for op in ops)
               and not (args.trace and result["trace"]["missing"]))
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in per_layer(result["trace"]).items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    line = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}

    (OUT / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "setups_s": setups, "load_start": load_start,
         "load_end": load_end, "under_load": under_load(load_start),
         "end_to_end": e2e, **result, "result": line}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
