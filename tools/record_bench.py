#!/usr/bin/env python3
"""Record one BENCH_<n>.json: every benchmark workload, untraced and traced.

    python3 tools/record_bench.py N

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs ``surfbench/run.py`` once with ``--trace 0`` (end-to-end metrics) and
once with ``--trace 1`` (per-layer metrics), with seed 1 and the run length
of BENCHMARK.json, and writes BENCH_<N>.json at
the root with each run's result line as printed, its exit code, and the
CPU count, Python version and commit (and whether the measured program
has changes not yet committed).  A run that fails, prints no result
or times out is recorded as such, never dropped.  Standard library only.

The runs are recorded without bytecode, so that every file compares
with every other: each CLI process compiles what it imports, which shows
in ``cli-cold`` and ``setup_s``.  The runs get PYTHONDONTWRITEBYTECODE=1,
and the script exits 2 before any run when src/surfpos holds a .pyc for
this interpreter (remove src/surfpos/__pycache__ first).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SEED = 1
# a run is stopped after this many times its nominal length, plus set-up
TIMEOUT_FACTOR = 4
TIMEOUT_EXTRA_S = 120


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def bytecode_files(package: Path) -> list[Path]:
    """The .pyc files of the package's modules for this interpreter."""
    tag = sys.implementation.cache_tag
    return sorted((package / "__pycache__").glob(f"*.{tag}*.pyc"))


def run_one(workload: str, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "surfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    rec = {"workload": workload, "trace": trace, "argv": argv[1:]}
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              env=os.environ | {"PYTHONDONTWRITEBYTECODE": "1"},
                              timeout=seconds * TIMEOUT_FACTOR
                              + TIMEOUT_EXTRA_S)
    except subprocess.TimeoutExpired as e:
        # the output read before the timeout comes back undecoded
        err = e.stderr or b""
        if isinstance(err, bytes):
            err = err.decode("utf-8", "replace")
        rec.update(exit_code=None, timed_out=True, result_line=None,
                   stderr_tail=err[-2000:])
        return rec
    lines = done.stdout.strip().splitlines()
    rec.update(exit_code=done.returncode, timed_out=False,
               result_line=lines[-1] if lines else None,
               stderr_tail=done.stderr[-2000:])
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="number in the file name")
    args = ap.parse_args(argv)
    cached = bytecode_files(ROOT / "src" / "surfpos")
    if cached:
        sys.stderr.write(f"src/surfpos holds bytecode ({cached[0].name} and "
                         f"{len(cached) - 1} more); remove "
                         "src/surfpos/__pycache__ and record again\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = []
    for trace in (0, 1):
        for w in bench["workloads"]:
            rec = run_one(w["name"], seconds, trace)
            sys.stderr.write(f"{w['name']} trace={trace}: exit "
                             f"{rec['exit_code']}\n")
            runs.append(rec)
    # the program measured differs from the commit when it is not yet
    # committed: changed, staged or new files under src/ or surfbench/
    changed = git("status", "--porcelain", "--", "src", "surfbench",
                  "BENCHMARK.json")
    doc = {"commit": git("rev-parse", "HEAD"),
           "uncommitted_changes": None if changed is None else bool(changed),
           "cpu_count": os.cpu_count(),
           "python": platform.python_version(),
           "PYTHONDONTWRITEBYTECODE": "1", "seed": SEED,
           "seconds": seconds, "runs": runs}
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    sys.stderr.write(f"wrote {out.name}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
