"""Workloads, cold CLI invocations and output checks for the sweep benchmark.

Every measured unit is one real ``python -m repro.cli sweep run ...``
process started from nothing (``--workers 2``, a fresh empty
``--cache-dir``), timed from spawn to exit.  The process is the leader of
its own process group, so a timeout kills the CLI and every worker it
forked, and :func:`stray_processes` proves nothing outlives a run.

The repository under test is the current working directory: its ``src/``
is what runs, and scratch files go under ``<root>/.perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: The benchmark's definition: metric names and units, workload reasons.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKERS = 2
INSTANCE_STRIDE = 1000

#: End-to-end metric name -> unit, in report order.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
_WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

#: The sweeps registered at the commit that defined this benchmark.  Fixed
#: here so that registering a new sweep does not silently grow warm-replay.
ALL_SWEEPS = (
    "fig01", "fig02a", "fig02a-ens", "fig02a-scale", "fig02b", "fig02c",
    "fig03", "fig04", "fig05", "fig05-ens", "fig05-scale", "fig06", "fig07",
    "fig08", "fig08-ens", "fig08-lifecycle", "fig09", "fig10", "fig11",
    "fig12", "fig12-dynamics", "fig13", "fig13-dynamics", "fig14", "table1",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a set of sweeps run by one CLI invocation.

    A run at seed ``N`` measures ``instances`` inputs, the sweeps at seeds
    ``N``, ``N + 1000``, ...: the work of these sweeps depends on the
    random instance, so one seed alone would make the figures depend on
    which seed was drawn.  ``warm`` workloads fill a cache once (untimed)
    and then measure cold processes that replay every point from it.
    """

    name: str
    sweeps: Sequence[str]
    scale: str
    instances: int
    why: str
    warm: bool = False

    def key(self, sweep: str) -> str:
        return f"{sweep}@{self.scale}"

    def seeds(self, seed: int) -> List[int]:
        """The sweep seed of each measured instance of benchmark seed ``seed``."""
        return [seed + INSTANCE_STRIDE * j for j in range(self.instances)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("flow-lp", ("fig02c", "fig03", "fig04"), "small", 3, _WHY["flow-lp"]),
        Workload("routing-sim", ("table1", "fig13-dynamics"), "paper", 1, _WHY["routing-sim"]),
        Workload(
            "graphs-ensemble",
            ("fig02a-ens", "fig02a-scale", "fig05-scale"),
            "paper",
            2,
            _WHY["graphs-ensemble"],
        ),
        Workload("warm-replay", ALL_SWEEPS, "small", 1, _WHY["warm-replay"], warm=True),
    )
}


# --------------------------------------------------------------------------- #
# Process control
# --------------------------------------------------------------------------- #
@dataclass
class Invocation:
    """One finished CLI process: exit code, resource use and output."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    timed_out: bool = False
    leftovers: List[int] = field(default_factory=list)


def child_env(root: Path) -> Dict[str, str]:
    """The environment of every benchmarked process.

    ``REPRO_*`` settings from the caller's shell (tracing, fault plans,
    memory budgets, cache roots) are dropped so they cannot change what is
    measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def live_group_members(pgid: int) -> List[int]:
    """Pids in process group ``pgid`` that have not exited (zombies excluded)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def invoke(
    argv: Sequence[str], root: Path, timeout_s: float
) -> Invocation:
    """Run ``python <argv>`` in ``root`` as its own process group.

    Wall time runs from spawn to exit; CPU time and peak RSS come from
    ``wait4``, which folds in every worker the CLI reaped (RSS as a max,
    not a sum).  On timeout the whole group is killed.  Afterwards the
    group must be empty: survivors are recorded in ``leftovers`` and
    killed, so they cannot inflate the next measurement.
    """
    out_path = root / ".perfbench" / f"stdout-{os.getpid()}.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    timed_out = threading.Event()
    with open(out_path, "w+b") as out:
        out_path.unlink()  # the open file outlives its name
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=root,
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )

        def on_timeout() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout_s, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SystemExit from a SIGTERM handler
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    leftovers = live_group_members(proc.pid)
    if leftovers:
        _kill_group(proc.pid)
        deadline = time.monotonic() + 5.0
        while live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
    return Invocation(
        exit_code=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        timed_out=timed_out.is_set(),
        leftovers=leftovers,
    )


def stray_processes(root: Path) -> List[int]:
    """Pids of CLI processes (and their forked workers) running in ``root``."""
    strays = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            args = (entry / "cmdline").read_bytes().split(b"\0")
            cwd = os.readlink(entry / "cwd")
        except OSError:
            continue
        is_cli = b"repro.cli" in args or any(a.endswith(b"traced_cli.py") for a in args)
        if is_cli and Path(cwd) == root:
            strays.append(int(entry.name))
    return strays


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def split_tables(stdout: str) -> List[str]:
    """The CLI prints one table per sweep, each followed by a blank line."""
    return [block for block in stdout.split("\n\n") if block.strip()]


def digest(table: str) -> str:
    return hashlib.sha256(table.encode("utf-8")).hexdigest()[:16]


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, str]]:
    """``{seed: {"sweep@scale": digest}}`` recorded by ``record_expected.py``."""
    return json.loads(path.read_text())["digests"]


def load_manifests(runs_dir: Path) -> List[dict]:
    if not runs_dir.is_dir():
        return []
    return [json.loads(p.read_text()) for p in sorted(runs_dir.glob("run-*.json"))]


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))
