"""Set-up of one workload in a fresh interpreter; run.py times it as
``setup_s``.

    python3 surfbench/prepare.py WORKLOAD SEED OUT_DIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
