#!/usr/bin/env python3
"""Build the ledger benchmark from this checkout's sources and run it.

Usage, from the repository root:
    python3 ledger/run.py --workload fig4 --seed 1 --seconds 25 --trace 0

All arguments are passed to the ledger executable (see ledger/ledger.ml).
Build output goes to standard error, so the benchmark's last line of
standard output stays its JSON result.  The build writes only to this
checkout's _build directory (the shared dune cache is off).
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("ledger", "ledger.exe")


def main() -> int:
    needed = ("dune-project", "lib", "BENCHMARK.json")
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"ledger: not a nanompi checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        print("ledger: neither dune nor opam is on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "--cache=disabled", "--display", "quiet", "./" + TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
        cwd=ROOT,
    )
    if build.returncode != 0:
        print("ledger: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    spec = os.path.join(ROOT, "BENCHMARK.json")
    return subprocess.run([exe, "--spec", spec] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
