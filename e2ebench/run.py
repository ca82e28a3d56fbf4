#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload fleet-audit --seed 1 --seconds 20 --trace 0

Builds the benchmark harness (e2ebench/main.ml) and the CLI, whose
`serve` daemon the serve-churn workload spawns, then replaces itself
with the harness.  Build output goes to stderr; the harness's last line
of stdout is the JSON result.  Exits 2 without a result when the
directory is not a buildable checkout.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_bench(workload, seed, seconds, trace, extra=()):
    """Run this script once as a child; return (exit code, the parsed
    result line or None, stderr).  Shared by selfcheck.py and spread.py."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def main():
    root = os.getcwd()
    needed = ["dune-project", "lib", "bin", os.path.join("e2ebench", "dune")]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.stderr.write("e2ebench: not a checkout of the repository (missing %s)\n"
                         % ", ".join(missing))
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("e2ebench: dune not found on PATH\n")
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "./e2ebench/main.exe", "./bin/minesweeper_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("e2ebench: build failed\n")
        return build.returncode or 1
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    exe = os.path.join(build_dir, "default", "e2ebench", "main.exe")
    cli = os.path.join(build_dir, "default", "bin", "minesweeper_cli.exe")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, [exe] + sys.argv[1:] + ["--cli", cli])


if __name__ == "__main__":
    sys.exit(main())
