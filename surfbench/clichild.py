"""Run one surfpos CLI command with the tracer installed and write the
trace to a file; the traced ``cli-cold`` run starts one per query.

    python3 surfbench/clichild.py TRACE_OUT SUBCOMMAND [ARGS...]
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    import surfpos.cli

    try:
        code = surfpos.cli.main(sys.argv[2:])
    finally:
        tracer.end_query()
        Path(sys.argv[1]).write_text(json.dumps(tracer.dump()))
    sys.exit(code)
