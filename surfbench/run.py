#!/usr/bin/env python3
"""Run one workload of the surfpos benchmark and print its metrics.

    python3 surfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` a separate traced run gives the
per-layer ones.  A summary goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import copyreg
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# seconds of queries between two reference tasks, in a library pass and in
# a cli-cold pass (where the reference is a process of about 0.1 s)
REF_EVERY = 0.25
CLI_REF_EVERY = 0.5
IMPORT_REPEATS = 5


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup(args, out: Path) -> tuple:
    """Wall time of a fresh interpreter that imports surfpos and builds
    everything the workload's queries use, and of the reference processes
    run just before and just after it."""
    before = reference.timed_process()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "prepare.py"), args.workload,
                    str(args.seed), str(out)],
                   env=child_env(), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0, before, reference.timed_process()


def measure_cli_import() -> float:
    """Median time for a fresh interpreter to import surfpos.cli, in ms."""
    code = ("import time; t = time.perf_counter(); import surfpos.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              cwd=ROOT, check=True, capture_output=True,
                              text=True)
        times.append(float(done.stdout) * 1000)
    return statistics.median(times)


def run_cli(q, out: Path, n: int, trace_file: Path | None) -> tuple:
    """One surfpos process per query; returns (seconds, result)."""
    if trace_file is None:
        argv = [sys.executable, "-m", "surfpos.cli", *q.argv]
    else:
        argv = [sys.executable, str(HERE / "clichild.py"), str(trace_file),
                *q.argv]
    so_path, se_path = out / f"p{n}.out", out / f"p{n}.err"
    with open(so_path, "wb") as so, open(se_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=child_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    res = {"code": proc.returncode,
           "stdout": so_path.read_text(encoding="utf-8", errors="replace"),
           "stderr": se_path.read_text(encoding="utf-8", errors="replace"),
           "files": tuple(p.read_bytes() if p.exists() else None
                          for p in q.outputs),
           "rss_kb": usage.ru_maxrss}
    return dt, res


def call_query(q) -> tuple:
    """One library query: (seconds, result, error)."""
    t0 = time.perf_counter()
    try:
        res, err = q.call(), None
    except Exception as e:  # counted as a failed operation
        res, err = None, repr(e)
    return time.perf_counter() - t0, res, err


def run_pass(batch, run_one, ref_fn, every: float) -> list:
    """One pass, one query at a time.  ``ref_fn`` times the reference task
    at both ends and whenever ``every`` seconds of queries have passed.
    Returns [(seconds, result, error, ref)], where ref is the mean of the
    reference times just before and just after the query: the machine's
    speed changes within seconds, so each query is set against its own."""
    marks = []  # (index of the next query, reference seconds)
    recs = []
    since = every
    for i, q in enumerate(batch):
        if since >= every:
            marks.append((i, ref_fn()))
            since = 0.0
        recs.append(run_one(q))
        since += recs[-1][0]
    marks.append((len(batch), ref_fn()))
    out = []
    for (i, before), (j, after) in zip(marks, marks[1:]):
        out += [(*recs[k], (before + after) / 2) for k in range(i, j)]
    return out


def _reduce_quad(x):
    return type(x), (x.a, x.b, x.d)


def run_forked(batch) -> tuple:
    """One pass of library queries in a forked child of the set-up
    process, so that every pass starts from the state the set-up left and
    none sees what an earlier pass computed.  Returns the child's
    ``run_pass`` records and its peak RSS in kB."""
    from surfpos.scalars import Quad

    # Quad forbids attribute setting, which default unpickling needs
    copyreg.pickle(Quad, _reduce_quad)
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: answer, send, and leave without clean-up
        code = 0
        try:
            os.close(rfd)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            recs = run_pass(batch, call_query, reference.timed, REF_EVERY)
            with os.fdopen(wfd, "wb") as f:
                pickle.dump(recs, f)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as f:
            data = f.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("a pass of the workload died")
    return pickle.loads(data), usage.ru_maxrss


def timed_loop(batch, seconds: float, tracer, out: Path,
               between_passes=lambda: None) -> dict:
    """Whole passes over ``batch``, one query at a time, while the next
    pass is expected to end within ``seconds`` (one pass when tracing).
    ``between_passes`` runs outside the passes."""
    passes = []
    wall = 0.0
    peak_kb = 0
    n = 0

    def cli_one(q):
        nonlocal n, peak_kb
        trace_file = out / f"t{n}.json" if tracer else None
        dt, res = run_cli(q, out, n, trace_file)
        peak_kb = max(peak_kb, res["rss_kb"])
        if trace_file is not None and trace_file.exists():
            tracer.merge(json.loads(trace_file.read_text()))
        n += 1
        return dt, res, None

    def traced_one(q):
        rec = call_query(q)
        tracer.end_query()
        return rec

    while True:
        t_pass = time.perf_counter()
        if batch[0].argv is not None:
            recs = run_pass(batch, cli_one, reference.timed_process,
                            CLI_REF_EVERY)
        elif tracer:
            recs = run_pass(batch, traced_one, reference.timed, REF_EVERY)
        else:
            recs, kb = run_forked(batch)
            peak_kb = max(peak_kb, kb)
        wall += time.perf_counter() - t_pass
        passes.append(recs)
        if tracer or wall * (len(passes) + 1) / len(passes) > seconds:
            break
        between_passes()
    if not peak_kb:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each query's median over the passes: steadier between runs than its
    # fastest pass, which hangs on a rare fast moment of the machine
    typical_s, typical_ref = [], []
    for i in range(len(batch)):
        typical_s.append(statistics.median(recs[i][0] for recs in passes))
        typical_ref.append(statistics.median(recs[i][0] / recs[i][3]
                                             for recs in passes))
    records = [(q, res, err) for recs in passes
               for q, (_, res, err, _) in zip(batch, recs)]
    return {"typical_s": typical_s, "typical_ref": typical_ref,
            "ref": statistics.median(r[3] for recs in passes for r in recs),
            "records": records, "passes": len(passes), "wall": wall,
            "peak_mb": peak_kb / 1024}


def same(a, b) -> bool:
    if isinstance(a, dict) and "rss_kb" in a:
        return (a["code"], a["stdout"], a["files"]) == \
            (b["code"], b["stdout"], b["files"])
    return a == b


def check_all(records) -> tuple[int, list]:
    """Check each distinct query once and every repeat against it.
    Returns (failed operations, problems)."""
    from checks import CheckFailed

    failed = 0
    problems = []
    first = {}
    for q, res, err in records:
        if err is not None or (q.argv is not None and not q.malformed
                               and res["code"] != 0):
            failed += 1
            why = err if err is not None else res["stderr"][-200:]
            problems.append(f"failed: {q.name}: {why!r}")
            continue
        if q.malformed:
            try:
                q.check(res)
            except CheckFailed:
                failed += 1
            continue
        if id(q) in first:
            if not same(res, first[id(q)]):
                problems.append(f"incorrect: {q.name}: differs between passes")
            continue
        first[id(q)] = res
        try:
            q.check(res)
        except CheckFailed as e:
            problems.append(f"incorrect: {q.name}: {e}")
    return failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its files and stops its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "surfpos" / "__init__.py").is_file():
        sys.stderr.write(f"surfbench: no surfpos package under {SRC}\n")
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    out = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        return _run(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _run(args, out: Path) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"surfbench: unknown workload {args.workload!r}\n")
        return 2
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    setup_times = []

    def sample_setup():
        # set-up samples are spread over the run, so that their median
        # does not hang on how fast the machine was in one second
        if not tracer and len(setup_times) < SETUP_REPEATS:
            setup_times.append(time_setup(args, out))

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    sample_setup()
    batch = workloads.build(args.workload, args.seed, out)
    if tracer:
        tracer.end_query()
    run = timed_loop(batch, args.seconds, tracer, out, sample_setup)
    if tracer:
        tracer.uninstall()
    while not tracer and len(setup_times) < SETUP_REPEATS:
        sample_setup()
    failed, problems = check_all(run["records"])
    n = len(run["records"])
    typical = run["typical_s"]
    qps = len(typical) / sum(typical)
    p50 = statistics.median(typical) * 1000
    ref = run["ref"]
    cost = run["typical_ref"]
    summary = (f"{args.workload} seed={args.seed} trace={args.trace}: "
               f"{run['passes']} passes of {len(typical)} queries in "
               f"{run['wall']:.2f} s; at each query's median time "
               f"{qps:.3f}/s, p50 {p50:.2f} ms")
    if len(typical) >= 100:
        p90 = statistics.quantiles(typical, n=10)[-1] * 1000
        summary += f", p90 {p90:.2f} ms"
    summary += f"; reference task {ref * 1000:.2f} ms"
    if setup_times:
        setup = statistics.median(t for t, _, _ in setup_times)
        setup_ref = statistics.median(r for _, *refs in setup_times
                                      for r in refs)
        summary += (f"; set-up {setup:.3f} s, reference process "
                    f"{setup_ref:.3f} s")
    sys.stderr.write(summary + "\n")
    for line in problems:
        sys.stderr.write(line + "\n")
    if tracer:
        from tracing import layer_metrics
        metrics = layer_metrics(tracer, n)
        metrics["cli.import_ms"] = {"value": measure_cli_import(),
                                    "unit": "ms"}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-s{args.seed}.json").write_text(
            json.dumps({"queries": n, "queries_per_s": qps,
                        "functions": tracer.dump()}, indent=1))
    else:
        metrics = {
            # seconds on a machine where the reference process takes
            # NOMINAL_PROCESS_S
            "setup_s": {"value": reference.NOMINAL_PROCESS_S * setup /
                        setup_ref, "unit": "s"},
            "queries_per_ref": {"value": len(cost) / sum(cost),
                                "unit": "1/ref"},
            "query_p50_ref": {"value": statistics.median(cost),
                              "unit": "ref"},
            "peak_rss_mb": {"value": run["peak_mb"], "unit": "MB"},
        }
    correct = not any(p.startswith("incorrect") for p in problems)
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
