"""Comparison of op results with the reference recorded at the seed commit.

Discrete results (chosen cells, event indicators, ``fraction_within``) must
match exactly; floats (criterion totals, holdout errors) to ``RTOL``.  A
different chosen cell still agrees when the reference totals of the two cells
lie within ``RTOL`` of each other: a near tie that a change in rounding may
flip.  Such flips are counted and reported, never hidden.
"""

from __future__ import annotations

import json
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _cell_agrees(cell: int, ref_cell: int, ref_totals) -> tuple[bool, int]:
    """(agrees, tie_flips) for one chosen cell against the reference choice."""
    if cell == ref_cell:
        return True, 0
    if close(ref_totals[cell], ref_totals[ref_cell]):
        return True, 1
    return False, 0


def compare(got: dict, ref: dict) -> tuple[bool, int, list[str]]:
    """Compare one op's summary with its reference; return (agrees, tie_flips, why)."""
    if "totals" in got:
        return _compare_selection(got, ref)
    return _compare_harness(got, ref)


def _compare_selection(got, ref):
    why = []
    if len(got["totals"]) != len(ref["totals"]):
        return False, 0, [f"{len(got['totals'])} totals, reference has {len(ref['totals'])}"]
    bad = [i for i, (a, b) in enumerate(zip(got["totals"], ref["totals"])) if not close(a, b)]
    if bad:
        why.append(f"{len(bad)} criterion totals differ beyond rtol {RTOL:g} (first cell {bad[0]})")
    ok, flips = _cell_agrees(got["cell"], ref["cell"], ref["totals"])
    if not ok:
        why.append(f"chose cell {got['cell']}, reference {ref['cell']}, not a near tie")
    return not why, flips, why


def _compare_harness(got, ref):
    why = []
    for name, ind in ref["indicators"].items():
        if got["indicators"][name] != ind:
            why.append(f"{name} event indicators differ")
    flips = 0
    for i, (cell, ref_cell) in enumerate(zip(got["cells"], ref["cells"])):
        ok, flip = _cell_agrees(cell, ref_cell, ref["replicate_totals"][i])
        flips += flip
        if not ok:
            why.append(f"replicate {i} chose cell {cell}, reference {ref_cell}, not a near tie")
        elif not flip and not close(got["err_adaptive"][i], ref["err_adaptive"][i]):
            why.append(f"replicate {i} adaptive holdout error differs")
        if not close(got["err_oracle_grid"][i], ref["err_oracle_grid"][i]):
            why.append(f"replicate {i} oracle holdout error differs")
    # A tie flip changes that replicate's adaptive error and may move the
    # fraction, so the fraction is compared exactly only without flips.
    if not flips and got["fraction_within"] != ref["fraction_within"]:
        why.append("fraction_within differs")
    return not why, flips, why


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference summaries by op index, or None when the seed has none."""
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        return None
    return {int(k): v for k, v in ref["workloads"].get(workload, {}).items()}
