"""Run ``repro.cli.main`` in this process with the layer wrappers installed.

Usage: ``python perfbench/traced_cli.py --spans DIR -- sweep run ...``

The time to import the CLI and the modules its sweep command loads is
recorded as ``startup.import_s``.  The wrappers go in before the sweep
starts, so forked pool workers inherit them; after the CLI returns they are
removed, and any wrapper still reachable makes the exit code non-zero.
"""

import sys
import time

_start = time.perf_counter()
import repro.cli  # noqa: E402
import repro.engine  # noqa: E402,F401
import repro.resources  # noqa: E402,F401
import repro.telemetry  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _start

import layers  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: traced_cli.py --spans DIR -- CLI-ARGS...", file=sys.stderr)
        return 2
    installation = layers.install(argv[1])
    try:
        exit_code = repro.cli.main(argv[3:])
    finally:
        installation.recorder.flush(import_s=IMPORT_S, missing=installation.missing)
        installation.uninstall()
    leftovers = layers.leftover_wrappers()
    if leftovers:
        print(f"wrappers left installed: {', '.join(leftovers)}", file=sys.stderr)
        return exit_code or 3
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
