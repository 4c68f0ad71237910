"""A fixed pure-Python task that times the machine, not the program.

The reference machine's speed drifts by up to 1.6x over minutes (see the
noise floor in README.md).  run.py times this task next to every pass and
reports query costs in units of it.  The task does the kind of work
surfpos does: exact rational elimination and integer dot products over
lists of tuples.  It uses no surfpos code, so no change to the program
changes its time.  For a workload of one process per query, the task
runs in a fresh interpreter too (``python3 reference.py``), since process
start-up slows down more than computation in the machine's slow spells.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

ROUNDS = 2
# the wall time of ``timed_process`` on a quiet reference machine, which
# turns set-up time in reference processes back into seconds
NOMINAL_PROCESS_S = 0.1


def _rank(rows: list) -> int:
    """Gauss-Jordan elimination over Q, in place."""
    rank = 0
    ncols = len(rows[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        rows[rank] = [x / p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def task() -> int:
    """The same work every call; returns a checksum."""
    rng = random.Random(0)
    out = 0
    for _ in range(ROUNDS):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(10)] for _ in range(9)]
        out += _rank(rows)
        gens = [tuple(rng.randint(-3, 3) for _ in range(9))
                for _ in range(120)]
        for v in gens[:40]:
            out += sum(1 for g in gens
                       if sum(a * b for a, b in zip(g, v)) >= 0)
    return out


def timed() -> float:
    """Wall time of one task, in seconds."""
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def timed_process() -> float:
    """Wall time of a fresh interpreter that runs the task once."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


if __name__ == "__main__":
    task()
