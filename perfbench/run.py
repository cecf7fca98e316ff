"""Cold-process benchmark of ``repro sweep run``, from spawn to printed table.

Usage (from the root of the repository under test)::

    python3 perfbench/run.py --workload flow-lp --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py --seed 3          # every workload in turn

A run sets up (bytecode compiled; warm-replay fills its cache; several
timed cold ``sweep show`` processes give ``setup_s``), then starts cold
``sweep run`` processes one after another, cycling through the workload's
instances, until every instance has run and ``--seconds`` have passed.
Each metric is the mean over instances of the instance's median.  Every
process's tables are checked: against the digests in ``expected.json`` for
recorded seeds, otherwise against the first tables printed for that seed.
With ``--trace 1`` the first instance is run in pairs, untraced and through
``traced_cli.py``, with at least two traced processes, and the per-layer
metrics are reported instead.  The last line of stdout is one JSON object.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
import layers
from harness import END_TO_END, SPEC, WORKERS, WORKLOADS, Invocation, Workload

#: Every run must end within this many seconds of starting.
RUN_BUDGET_S = 170.0
#: Cold ``sweep show`` processes timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Traced processes per trace run, so that the exact counts are compared.
MIN_TRACED = 2
#: Largest share of the layers' self time that may fall outside every
#: wrapped layer (see :func:`layers.uncovered_share`).  About 3% at most
#: when the benchmark was defined; more means work moved into a function
#: that ``layers.ENTRY_POINTS`` does not wrap.
MAX_UNCOVERED_SHARE = 0.2
TRACED_CLI = harness.HERE / "traced_cli.py"
PROCESS_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


class WorkloadRun:
    """One workload at one seed: its processes, checks and samples."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        root: Path,
        expected: Dict[str, Dict[str, str]],
        deadline: float,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seeds = workload.seeds(seed)
        self.root = root
        self.deadline = deadline
        #: (sweep seed, "sweep@scale") -> table digest every process must print.
        self.reference: Dict[Tuple[int, str], str] = {
            (s, key): expected[str(s)][key]
            for s in self.seeds
            for key in map(workload.key, workload.sweeps)
            if key in expected.get(str(s), {})
        }
        self.work = root / ".perfbench" / f"{workload.name}-{seed}-{id(self)}"
        self.caches: List[Optional[Path]] = [None] * len(self.seeds)
        self.points: Dict[str, int] = {}
        self.processes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup_s: List[float] = []
        #: metric -> per-instance samples
        self.samples: Dict[str, List[List[float]]] = {
            name: [[] for _ in self.seeds] for name in PROCESS_METRICS
        }
        self.traces: List[layers.Trace] = []

    # -- process plumbing ------------------------------------------------- #
    def _invoke(self, argv: List[str]) -> Invocation:
        timeout = max(self.deadline - time.monotonic(), 1.0)
        inv = harness.invoke(argv, self.root, timeout)
        if inv.timed_out:
            self.problems.append(f"{' '.join(argv[:4])} killed after {timeout:.0f} s")
        if inv.leftovers:
            self.problems.append(f"processes outlived their CLI: {inv.leftovers}")
        return inv

    def _args(self, sweep_seed: int) -> List[str]:
        w = self.workload
        return [*w.sweeps, "--scale", w.scale, "--seed", str(sweep_seed)]

    def _process_dir(self, kind: str) -> Path:
        self.processes += 1
        path = self.work / f"{self.processes:03d}-{kind}"
        path.mkdir(parents=True)
        return path

    def _sweep_run(self, instance: int, cache: Path, workdir: Path, traced: bool) -> Invocation:
        argv = [
            "sweep", "run", *self._args(self.seeds[instance]), "--workers", str(WORKERS),
            "--cache-dir", str(cache), "--runs-dir", str(workdir / "runs"),
        ]
        if traced:
            return self._invoke([str(TRACED_CLI), "--spans", str(workdir / "spans"), "--", *argv])
        return self._invoke(["-m", "repro.cli", *argv])

    # -- set-up ----------------------------------------------------------- #
    def setup(self, timed_repeats: int) -> None:
        """Compile bytecode, count points, fill warm caches, time set-up."""
        strays = harness.stray_processes(self.root)
        if strays:
            raise SystemExit(f"error: repro processes already running here: {strays}")
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src")],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        show = ["-m", "repro.cli", "sweep", "show", *self._args(self.seed)]
        shows = [self._invoke(show) for _ in range(max(timed_repeats, 1))]
        if any(inv.exit_code != 0 for inv in shows):
            raise SystemExit("error: sweep show failed")
        self.points = _count_points(shows[0].stdout, self.workload.sweeps)
        if timed_repeats:
            self.setup_s = [inv.wall_s for inv in shows]
        if self.workload.warm:
            for instance in range(len(self.seeds)):
                cache = self.work / f"warm-cache-{instance}"
                workdir = self._process_dir("fill")
                self._account(self._sweep_run(instance, cache, workdir, False), instance, workdir)
                self.caches[instance] = cache

    # -- measured processes ---------------------------------------------- #
    def cold_run(self, instance: int, traced: bool) -> Invocation:
        workdir = self._process_dir("traced" if traced else "run")
        cache = self.caches[instance] or workdir / "cache"
        inv = self._sweep_run(instance, cache, workdir, traced)
        executed = self._account(inv, instance, workdir, replay=self.workload.warm)
        if traced:
            trace = layers.load_trace(workdir / "spans")
            if trace.calls("engine.execute") != executed:
                self.problems.append(
                    f"trace saw {trace.calls('engine.execute')} point executions, "
                    f"manifests record {executed}"
                )
            self.traces.append(trace)
        if not self.workload.warm:
            shutil.rmtree(cache, ignore_errors=True)
        return inv

    def _account(self, inv: Invocation, instance: int, workdir: Path, replay: bool = False) -> int:
        """Check one process's tables and manifests; return points executed.

        A ``replay`` must serve every point from the cache.
        """
        sweeps = self.workload.sweeps
        attempted = sum(self.points.values())
        self.attempted += attempted
        tables = harness.split_tables(inv.stdout)
        if inv.exit_code != 0 or inv.timed_out or inv.leftovers or len(tables) != len(sweeps):
            self.failed += attempted
            self.problems.append(f"exit code {inv.exit_code}, {len(tables)} of {len(sweeps)} tables")
            return 0
        sweep_seed = self.seeds[instance]
        for sweep, table in zip(sweeps, tables):
            key = self.workload.key(sweep)
            got = harness.digest(table)
            want = self.reference.setdefault((sweep_seed, key), got)
            if got != want:
                self.failed += self.points[sweep]
                self.problems.append(f"{key} seed {sweep_seed} printed {got}, expected {want}")
        manifests = harness.load_manifests(workdir / "runs")
        if replay:
            misses = sum(m["cache"]["misses"] for m in manifests)
            if misses or len(manifests) != len(sweeps):
                self.failed += misses
                self.problems.append(f"warm replay missed the cache {misses} time(s)")
        return sum(
            1 for m in manifests for p in m["points"] if not p["cached"] and p["status"] == "ok"
        )

    # -- results ---------------------------------------------------------- #
    def add_sample(self, instance: int, inv: Invocation) -> None:
        for name in PROCESS_METRICS:
            self.samples[name][instance].append(getattr(inv, name))

    def value(self, name: str) -> float:
        """Mean over instances of each instance's median.

        A run cut short by a failure reports the instances it measured.
        """
        return statistics.fmean(statistics.median(s) for s in self.samples[name] if s)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        if harness.stray_processes(self.root):
            self.problems.append("repro processes left running after the run")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _count_points(show_output: str, sweeps) -> Dict[str, int]:
    """Points per sweep, from ``sweep show``'s ``point`` lines."""
    counts: Dict[str, int] = {}
    current: Optional[str] = None
    for line in show_output.splitlines():
        if not line.startswith(" "):
            current = line.split(":", 1)[0]
            counts[current] = 0
        elif line.startswith("    point "):
            counts[current] += 1
    if list(counts) != list(sweeps):
        raise SystemExit(f"error: sweep show listed {list(counts)}, expected {list(sweeps)}")
    return counts


def measure(run: WorkloadRun, seconds: float, trace: bool) -> Dict[str, dict]:
    """Run cold processes for ``seconds``; return the reported metrics."""
    run.setup(timed_repeats=0 if trace else SETUP_REPEATS)
    instances = 1 if trace else len(run.seeds)
    start = time.monotonic()
    pairs: List[Tuple[float, float]] = []
    count = 0
    while True:
        instance = count % instances
        if trace:
            # Alternate which side of a pair runs first.
            walls = {}
            for traced in ((True, False) if count % 2 else (False, True)):
                walls[traced] = run.cold_run(instance, traced).wall_s
            pairs.append((walls[False], walls[True]))
            longest = walls[False] + walls[True]
        else:
            inv = run.cold_run(instance, traced=False)
            run.add_sample(instance, inv)
            longest = inv.wall_s
        count += 1
        now = time.monotonic()
        if run.problems or (count >= instances and now - start >= seconds):
            break
        if now + 1.2 * longest > run.deadline:
            if count < instances:
                run.problems.append(f"out of time after {count} of {instances} instances")
            break
    while trace and not run.problems and len(run.traces) < MIN_TRACED:
        run.cold_run(0, traced=True)
    if not trace:
        values = {name: run.value(name) for name in PROCESS_METRICS}
        values["setup_s"] = statistics.median(run.setup_s)
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    values = [t.metrics() for t in run.traces]
    for name in layers.EXACT_COUNTS:
        if len({v[name] for v in values}) > 1:
            run.problems.append(f"{name} differs between traced runs: {[v[name] for v in values]}")
    for v in values:
        share = layers.uncovered_share(v)
        if share > MAX_UNCOVERED_SHARE:
            run.problems.append(
                f"{share:.0%} of layer self time is covered by no wrapped layer "
                f"(experiments.uncovered_s {v['experiments.uncovered_s']:.3g} s, "
                f"engine.execute_s {v['engine.execute_s']:.3g} s)"
            )
    untraced = statistics.median(p[0] for p in pairs)
    traced = statistics.median(p[1] for p in pairs)
    metrics = {}
    for name, unit in layers.PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = traced / untraced - 1.0
        else:
            value = statistics.median(v[name] for v in values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(run: WorkloadRun, metrics: Dict[str, dict]) -> None:
    """Human-readable lines: each metric by name, with its unit and samples."""
    w = run.workload
    seeds = ", ".join(map(str, run.seeds))
    print(f"workload {w.name} (seed {run.seed}: sweep seeds {seeds}; {w.scale} scale): {w.why}")
    for name, metric in metrics.items():
        detail = ""
        if name in run.samples and run.samples[name][0]:
            medians = [statistics.median(s) for s in run.samples[name]]
            counts = [len(s) for s in run.samples[name]]
            detail = f"  per-instance medians {[f'{m:.4g}' for m in medians]} n={counts}"
        elif name == "setup_s":
            q1, _, q3 = harness.quartiles(run.setup_s)
            detail = f"  q1 {q1:.4g}  q3 {q3:.4g}  n={len(run.setup_s)}"
        print(f"  {name:30s} {metric['value']:12.6g} {metric['unit']:6s}{detail}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':30s} {error_rate:12.6g} ratio   ({run.failed} of {run.attempted} points failed)")
    if run.traces:
        name, share = layers.largest_share({n: m["value"] for n, m in metrics.items()})
        print(f"  largest layer self time: {name} ({share:.0%})")
    missing = sorted({entry for trace in run.traces for entry in trace.missing})
    if missing:
        print(f"  note: entry points not found, not wrapped: {', '.join(missing)}")
    for problem in run.problems:
        print(f"  problem: {problem}")


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    expected: Dict[str, Dict[str, str]],
) -> dict:
    """Measure one workload and return the result object printed as JSON."""
    run = WorkloadRun(workload, seed, root, expected, time.monotonic() + RUN_BUDGET_S)
    try:
        metrics = measure(run, seconds, trace)
    finally:
        run.cleanup()
    report(run, metrics)
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of the sweeps; 0 and 3 have recorded tables")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measure cold processes for at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running CLI's process group
    # is killed and reaped before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: {root} holds no src/repro to benchmark", file=sys.stderr)
        return 2
    expected = harness.load_expected()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root, expected)
        for name in names
    }
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
