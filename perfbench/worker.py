"""The benchmark's worker: the one process that runs nildist.

Usage: python3 perfbench/worker.py JOB.json OUT.json

It puts a ceiling on its own address space, imports nildist from the
checkout's `src/`, builds the Presentation and Hall basis of every group the
job uses, prints "ready", and then (unless the job is set-up only) runs the
job's ops one at a time through `nildist.cli.main(argv)`, in whole passes,
until the job's seconds are used.  A per-op deadline (SIGALRM) backs up the
memory ceiling.  With tracing on, untraced and traced passes alternate so
the tracing overhead can be stated.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OpDeadline(BaseException):
    """The per-op deadline passed; a BaseException so no handler eats it."""


def _alarm(signum, frame):
    raise OpDeadline()


def run_op(main, argv, deadline_s):
    """(elapsed_ns, outcome, exit code, stdout) for one in-process CLI call.

    outcome is "ok" for a normal return (any exit code), else "memory",
    "deadline" or "exception:<type>".
    """
    out, err = io.StringIO(), io.StringIO()
    code = None
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outcome = "ok"
    except MemoryError:
        outcome = "memory"
    except OpDeadline:
        outcome = "deadline"
    except Exception as exc:  # any other escape from the CLI is a failed op
        outcome = f"exception:{type(exc).__name__}"
    finally:
        elapsed = time.perf_counter_ns() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if outcome != "ok":
        gc.collect()
    return elapsed, outcome, code, out.getvalue()


def run_pass(main, ops, deadline_s, tracer=None):
    rows = []
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
            frame = tracer.enter("op")
        elapsed, outcome, code, text = run_op(main, op["argv"], deadline_s)
        if tracer is not None:
            tracer.leave(frame)
            tracer.op = None
        rows.append([elapsed, outcome, code, text])
    return rows


def _trace_summary(tracer):
    """Per-name stats and counters, for set-up (op None) and per op id."""
    setup, ops = {}, {}
    for (op, name), stats in tracer.stats.items():
        if op is None:
            setup[name] = stats
        else:
            ops.setdefault(name, {})[op] = stats
    counters = {"setup": {}, "ops": {}}
    for (op, name), value in tracer.counters.items():
        if op is None:
            counters["setup"][name] = value
        else:
            counters["ops"].setdefault(name, {})[op] = value
    return {"setup": setup, "ops": ops, "counters": counters, "spans": tracer.spans}


def main(job_path, out_path):
    with open(job_path) as fh:
        job = json.load(fh)
    limit = job["memory_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nildist
    from nildist.cli import main as cli_main

    if os.path.dirname(os.path.abspath(nildist.__file__)) != os.path.join(ROOT, "src", "nildist"):
        raise SystemExit(f"imported nildist from {nildist.__file__}, not this checkout")

    tracer = installation = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(span_names=tracing.span_names())
        installation = tracing.Installation(tracer)
        installation.install()

    bases = {}
    for m, c in job["presentations"]:
        bases[f"{m},{c}"] = nildist.hall_basis(nildist.Presentation(m, c))
    print("ready", flush=True)
    if job["setup_only"]:
        return
    names = {key: [b.bracket_str(i) for i in range(len(b))] for key, b in bases.items()}

    ops = job["ops"]
    start = time.perf_counter()
    passes, untraced = [], []
    while not passes or time.perf_counter() - start < job["seconds"]:
        if installation is not None:
            # alternate with untraced passes, so the overhead is measured
            # under the same machine load
            installation.uninstall()
            untraced.append([row[:3] for row in run_pass(cli_main, ops, job["deadline_s"])])
            installation.install()
        passes.append(run_pass(cli_main, ops, job["deadline_s"], tracer))
    if installation is not None:
        installation.uninstall()

    # keep each op's output once, plus any pass whose output differs
    first = {op["id"]: row[3] for op, row in zip(ops, passes[0])}
    for rows in passes[1:]:
        for op, row in zip(ops, rows):
            if row[3] == first[op["id"]]:
                row[3] = None
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "basis_names": names,
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer)
        result["trace"]["untraced_passes"] = untraced
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
