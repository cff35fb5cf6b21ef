"""nildist benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ball-bfs|decide|nf-deep --seed N \
        --seconds S --trace 0|1

The harness builds the workload's ops from the seed, times the set-up of
fresh worker processes, then has one worker run the ops one at a time
(closed loop, one client) in whole passes for S seconds.  It checks every
output against answers computed without nildist (oracle.py, expected/),
outside the timed region; a wrong output is a failed op.  It writes a
results file under perfbench/results/ and prints one line per metric, then,
as its last line, the JSON result: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

SETUP_SAMPLES = 7
MEMORY_MB = 256  # the worker's address-space ceiling
DEADLINE_S = 30  # per op; the slowest op that succeeds takes about 3 s
RUN_LIMIT_S = 170  # the whole run, workers included


class RunError(Exception):
    pass


# ------------------------------------------------------------ the worker


def _spawn(job, tag, deadline):
    """Run a worker on job; return (seconds to "ready", its output or None)."""
    job_path = os.path.join(RESULTS, f".{tag}-job.json")
    out_path = os.path.join(RESULTS, f".{tag}-out.json")
    log_path = os.path.join(RESULTS, f".{tag}-stderr.txt")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    if os.path.exists(out_path):
        os.remove(out_path)
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), job_path, out_path],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT, text=True,
        )
        try:
            if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
                raise subprocess.TimeoutExpired(proc.args, RUN_LIMIT_S)
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError(f"worker {tag} ran past the run limit") from None
        finally:
            proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        with open(log_path) as fh:
            raise RunError(f"worker {tag} failed (exit {code}): {fh.read()[-2000:]}")
    if job["setup_only"]:
        return ready, None
    with open(out_path) as fh:
        return ready, json.load(fh)


# ---------------------------------------------------------------- checks


def _expected_rows(op):
    if op["expected"] == "heisenberg":
        return oracle.heisenberg_delta(op["words"][0], op["radius"])
    with open(os.path.join(HERE, "expected", op["expected"])) as fh:
        return json.load(fh)["rows"]


def check_output(op, text, basis_names):
    """None when the op's output is right, else the reason it is not."""
    m, c = op["m"], op["c"]
    if op["kind"] == "measure":
        return oracle.check_measure(text, _expected_rows(op))
    if op["kind"] == "analyze":
        return oracle.check_decide(text, m, c, op["words"], op.get("expect"))
    expected = oracle.expected_element(op, m, c)
    return oracle.check_element(text, m, c, expected, basis_names[f"{m},{c}"])


def classify(outcome, code, problem):
    """The failure kind of one op execution, or None when it succeeded."""
    if outcome != "ok":
        return outcome.split(":")[0]
    if code != 0:
        return f"exit_{code}"
    if problem is not None:
        return "wrong_output"
    return None


# ---------------------------------------------------------------- metrics


def tail_percentile(values, want=0.9, beyond=10):
    """(value, level): the `want` percentile by nearest rank, or the highest
    level that leaves at least `beyond` samples above it, but not below the
    median."""
    ordered = sorted(values)
    n = len(ordered)
    level = min(want, math.floor(100 * (n - beyond) / n) / 100) if n > beyond else 0.5
    level = max(level, 0.5)
    return ordered[max(0, math.ceil(level * n) - 1)], level


def end_to_end(ops, passes, failures, setup_samples, peak_rss_kb):
    # an op's time is its median over the passes
    per_op = [statistics.median(p[i][0] for p in passes) for i in range(len(ops))]
    p90, level = tail_percentile(per_op)
    attempted = len(ops) * len(passes)
    failed = sum(1 for kinds in failures for k in kinds if k)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(per_op) / 1e9,
        "op_p50_ms": statistics.median(per_op) / 1e6,
        "op_p90_ms": p90 / 1e6,
        "ok_frac": 1 - failed / attempted,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    notes = {"op_p90_level": level, "op_samples": len(per_op),
             "failed_frac": failed / attempted}
    return metrics, notes, attempted, failed


def per_layer(trace, passes):
    """Per-layer metrics for one set-up plus one pass of the workload."""
    n = len(passes)

    def stats(name):
        calls, total, own = trace["setup"].get(name, [0, 0, 0])
        for c, t, o in trace["ops"].get(name, {}).values():
            calls, total, own = calls + c / n, total + t / n, own + o / n
        return calls, total, own

    def counter(name):
        ops = trace["counters"]["ops"].get(name, {}).values()
        return trace["counters"]["setup"].get(name, 0) + sum(ops) / n

    metrics = {}
    for _, _, name, _, _, _ in tracing.LAYERS:
        calls, total, own = stats(name)
        if name == "hall.hall_basis":
            metrics[f"{name}.builds"] = calls
            metrics[f"{name}.build_s"] = total / 1e9
        else:
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = own / 1e9
    for name in ("magnus.multiply.term_pairs", "distortion.ball.elements",
                 "subgroups.induced_basis.relations", "words.parse_word.letters"):
        metrics[name] = counter(name)
    name = "subgroups.induced_basis.preimage_letters_max"
    metrics[name] = max(trace["counters"]["ops"].get(name, {}).values(), default=0)
    member_calls = metrics["subgroups.member.calls"]
    metrics["subgroups.member.hit_ratio"] = (
        counter("subgroups.member.hits") / member_calls if member_calls else 0.0)
    # overhead over the ops that succeeded untraced and traced: a failing
    # op's time measures how soon it failed, not the work it did
    untraced = trace["untraced_passes"]
    ok = [i for i in range(len(passes[0]))
          if all(p[i][1:3] == ["ok", 0] for p in passes + untraced)]
    traced_ns = sum(statistics.median(p[i][0] for p in passes) for i in ok)
    untraced_ns = sum(statistics.median(p[i][0] for p in untraced) for i in ok)
    metrics["trace.overhead"] = traced_ns / untraced_ns - 1
    return metrics


# ------------------------------------------------------------ provenance


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository or HEAD's ref is packed."""
    git = os.path.join(ROOT, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return None
    with open(os.path.join(git, "HEAD")) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(git, ref[5:])
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return fh.read().strip()


def source_digest():
    """sha256 over src/nildist/*.py, which names the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nildist")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


# ------------------------------------------------------------------ main


def run(args, spec):
    deadline = time.monotonic() + RUN_LIMIT_S
    job = workloads.build(args.workload, args.seed)
    ops = job["ops"]
    base = {"presentations": job["presentations"], "ops": ops, "seconds": args.seconds,
            "trace": args.trace, "memory_mb": MEMORY_MB, "deadline_s": DEADLINE_S}
    tag = f"{args.workload}-{os.getpid()}"
    setup_samples = [
        _spawn(dict(base, setup_only=True, trace=0), tag, deadline)[0]
        for _ in range(SETUP_SAMPLES)
    ]
    _, out = _spawn(dict(base, setup_only=False), tag, deadline)
    for suffix in ("job.json", "out.json", "stderr.txt"):
        os.remove(os.path.join(RESULTS, f".{tag}-{suffix}"))

    passes = out["passes"]
    verdicts = {}  # (op id, output) -> problem, so each output is checked once
    failures = []
    for i, op in enumerate(ops):
        kinds = []
        for p in passes:
            elapsed, outcome, code, text = p[i]
            text = passes[0][i][3] if text is None else text
            problem = None
            if outcome == "ok" and code == 0:
                key = (i, text)
                if key not in verdicts:
                    verdicts[key] = check_output(op, text, out["basis_names"])
                problem = verdicts[key]
            kinds.append(classify(outcome, code, problem))
        failures.append(kinds)

    metrics, notes, attempted, failed = end_to_end(
        ops, passes, failures, setup_samples, out["peak_rss_kb"])
    if args.trace:
        metrics = per_layer(out["trace"], passes)
    wrong = sorted({i for i, kinds in enumerate(failures) if "wrong_output" in kinds})
    by_kind: dict = {}
    for kinds in failures:
        for k in kinds:
            if k:
                by_kind[k] = by_kind.get(k, 0) + 1

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RunError(f"metrics not computed: {missing}")
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "git_commit": git_commit(),
        "source_sha256": source_digest(), "passes": len(passes),
        "attempted": attempted, "failed": failed, "failures_by_kind": by_kind,
        "setup_samples_s": setup_samples, "metrics": reported, "notes": notes,
        "ops": [
            {"id": op["id"], "argv": op["argv"], "class": op.get("class"),
             "times_ns": [p[i][0] for p in passes], "failures": failures[i],
             "problems": sorted({v for (j, _), v in verdicts.items() if j == i and v})}
            for i, op in enumerate(ops)
        ],
    }
    if args.trace:
        record["layers"] = {name: moves for _, _, name, _, _, moves in tracing.LAYERS}
        record["spans"] = out["trace"]["spans"]
        record["untraced_times_ns"] = [[p[i][0] for p in out["trace"]["untraced_passes"]]
                                       for i in range(len(ops))]
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, entry in reported.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac = {notes['failed_frac']:.6g} ({failed} of {attempted}: {by_kind})")
    print(f"op_p90_ms is the p{round(100 * notes['op_p90_level'])} of "
          f"{notes['op_samples']} op times, each the median of {len(passes)} passes")
    for i in wrong:
        print(f"wrong output: {ops[i]['argv']}: {record['ops'][i]['problems']}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": reported}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nildist", "__init__.py")):
        print(f"run.py: no nildist source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        run(args, spec)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
