"""Record the expected table digest of every benchmarked sweep.

Usage (from the repository root): ``python3 perfbench/record_expected.py``

For each parity seed, every sweep of every workload is run once per
instance seed of that workload in a cold uncached CLI process, and the
sha256 prefix of each printed table is written to ``expected.json`` as
``{sweep seed: {"sweep@scale": digest}}``.  A benchmark run at a recorded
seed fails any point whose sweep prints another table.  Re-record only
when a change is meant to alter the tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import harness

PARITY_SEEDS = (0, 3)


def record(root: Path) -> Dict[str, Dict[str, str]]:
    """Digests of every (sweep seed, sweep@scale) a parity-seed run prints."""
    jobs: Dict[tuple, list] = {}
    for workload in harness.WORKLOADS.values():
        for parity_seed in PARITY_SEEDS:
            for sweep_seed in workload.seeds(parity_seed):
                sweeps = jobs.setdefault((sweep_seed, workload.scale), [])
                sweeps.extend(s for s in workload.sweeps if s not in sweeps)
    digests: Dict[str, Dict[str, str]] = {}
    for (sweep_seed, scale), sweeps in sorted(jobs.items()):
        argv = [
            "-m", "repro.cli", "sweep", "run", *sweeps, "--scale", scale,
            "--seed", str(sweep_seed), "--workers", str(harness.WORKERS), "--no-cache",
        ]
        inv = harness.invoke(argv, root, timeout_s=900.0)
        tables = harness.split_tables(inv.stdout)
        if inv.exit_code != 0 or len(tables) != len(sweeps):
            raise SystemExit(f"error: seed {sweep_seed} {scale}: exit {inv.exit_code}")
        recorded = digests.setdefault(str(sweep_seed), {})
        for sweep, table in zip(sweeps, tables):
            recorded[f"{sweep}@{scale}"] = harness.digest(table)
        print(f"seed {sweep_seed} {scale}: {len(sweeps)} tables in {inv.wall_s:.1f} s")
    return digests


def main() -> int:
    digests = record(Path.cwd())
    harness.EXPECTED_PATH.write_text(
        json.dumps({"seeds": list(PARITY_SEEDS), "digests": digests}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {harness.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
