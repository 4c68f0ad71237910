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

The header also records, as the runs begin, the value of
PYTHONDONTWRITEBYTECODE and whether src/surfpos/__pycache__ holds bytecode
current for every source of the package.  Without it each CLI process
compiles what it imports, which shows in ``cli-cold`` and ``setup_s``.
"""

from __future__ import annotations

import argparse
import importlib.util
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


def bytecode_current(package: Path) -> bool:
    """True iff every module of the package has a cached .pyc for this
    interpreter whose header matches its source: size and mtime, or the
    source hash for a hash-based .pyc."""
    for src in package.glob("*.py"):
        pyc = Path(importlib.util.cache_from_source(str(src)))
        try:
            head = pyc.read_bytes()[:16]
        except OSError:
            return False
        if len(head) < 16 or head[:4] != importlib.util.MAGIC_NUMBER:
            return False
        if int.from_bytes(head[4:8], "little") & 1:
            ok = head[8:16] == importlib.util.source_hash(src.read_bytes())
        else:
            st = src.stat()
            ok = (int.from_bytes(head[8:12], "little")
                  == int(st.st_mtime) & 0xFFFFFFFF
                  and int.from_bytes(head[12:16], "little")
                  == st.st_size & 0xFFFFFFFF)
        if not ok:
            return False
    return True


def run_one(workload: str, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "surfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", str(trace)]
    rec = {"workload": workload, "trace": trace, "argv": argv[1:]}
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
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
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    dont_write = os.environ.get("PYTHONDONTWRITEBYTECODE")
    current = bytecode_current(ROOT / "src" / "surfpos")
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
           "PYTHONDONTWRITEBYTECODE": dont_write,
           "bytecode_current": current, "seed": SEED,
           "seconds": seconds, "runs": runs}
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    sys.stderr.write(f"wrote {out.name}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
