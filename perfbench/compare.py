"""Paired comparison of two checkouts on this benchmark.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--workload NAME ...]

Both checkouts are measured with this copy of the benchmark and identical
settings: 10 pairs, each run ``run_seconds`` from BENCHMARK.json long.
Pair ``i`` runs both sides at seed ``100 + i``; the side that goes first
alternates.  For each workload and end-to-end metric it prints both sides'
medians and quartiles, the share of pairs the change won, and a verdict
using the bounds in BENCHMARK.json:

- ``incorrect``: the change's runs failed more points than the parent's;
- ``unresolved``: the parent's own spread (IQR / median) is wider than the
  bound, and not every run of the change beat every run of the parent;
- ``regression``: the change's median is worse by more than the bound;
- ``gain``: the change won at least 9 of 10 pairs (ties count for
  neither), and its median is better by more than the parent's IQR;
- ``within bound`` otherwise.

One traced run per side (at seed 100) gives the per-layer deltas.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import harness
from harness import SPEC

RUN = harness.HERE / "run.py"
PAIRS = 10
FIRST_SEED = 100


def bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {checkout} {workload} seed {seed}: no result\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {checkout} seed {seed}: INCORRECT ({result['failed']} failed)\n"
              + "\n".join(lines[:-1]))
    return result


def verdict(
    parent: List[float],
    change: List[float],
    bound: float,
    lower_better: bool,
    more_failures: bool,
):
    """``(pairs the change won, verdict)`` for one metric on one workload.

    ``more_failures``: the change's runs failed more points than the parent's.
    """
    sign = 1.0 if lower_better else -1.0
    p_q1, p_med, p_q3 = harness.quartiles(parent)
    c_med = harness.quartiles(change)[1]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if more_failures:
        return wins, "incorrect"
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (p_q3 - p_q1) / p_med > bound and not every_run_better:
        return wins, "unresolved"
    if sign * (c_med - p_med) > bound * p_med:
        return wins, "regression"
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1:
        return wins, "gain"
    return wins, "within bound"


def compare_workload(args, workload: str) -> None:
    samples: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    sides = {"parent": args.parent, "change": args.change}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = bench(sides[side], workload, FIRST_SEED + i, 0)
            failed[side] += result["failed"]
            for name, metric in result["metrics"].items():
                samples[side].setdefault(name, []).append(metric["value"])
    print(
        f"workload {workload}: {PAIRS} pairs, seeds {FIRST_SEED}..{FIRST_SEED + PAIRS - 1}, "
        f"failed points: parent {failed['parent']}, change {failed['change']}"
    )
    more_failures = failed["change"] > failed["parent"]
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        parent, change = samples["parent"][name], samples["change"][name]
        wins, outcome = verdict(
            parent, change, metric["bound"], metric["better"] == "lower", more_failures
        )
        p, c = harness.quartiles(parent), harness.quartiles(change)
        print(
            f"  {name:14s} parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]  "
            f"change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] {metric['unit']}  "
            f"change won {wins}/{len(parent)}  {outcome}"
        )
    traced = {side: bench(path, workload, FIRST_SEED, 1) for side, path in sides.items()}
    print("  per-layer (one traced run per side):")
    for name in (m["name"] for m in SPEC["per_layer"]):
        before = traced["parent"]["metrics"][name]["value"]
        after = traced["change"]["metrics"][name]["value"]
        if before == after == 0:
            continue
        print(f"    {name:30s} {before:12.6g} -> {after:12.6g}  delta {after - before:+.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=sorted(harness.WORKLOADS),
                        help="workload to compare (repeatable; default: all)")
    args = parser.parse_args(argv)
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    for workload in args.workload or list(harness.WORKLOADS):
        compare_workload(args, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
