"""Per-layer tracing from outside the program.

The tracer wraps public functions of nildist's modules and rebinds each
wrapper in every nildist module namespace that holds the original, because
modules import functions by name (`hall` does `from .magnus import
multiply`).  Each call is a span on a stack: its self time is its duration
minus the time its child spans cover.  Calls are aggregated per op and per
function, so a million per-edge calls cost a dict update each, not a
record; only layer entries (coarse calls) keep a full span record.
"""

from __future__ import annotations

import functools
import sys
import time


def self_time(start: int, end: int, children) -> int:
    """Duration of [start, end) minus the part covered by child intervals."""
    covered = 0
    cursor = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return end - start - covered


class Tracer:
    def __init__(self, clock=time.perf_counter_ns, span_names=()):
        self.clock = clock
        self.span_names = frozenset(span_names)
        self.op = None
        self.stack: list[list] = []  # frames: [name, start, covered by children]
        self.stats: dict = {}  # (op, name) -> [calls, total, self]
        self.counters: dict = {}  # (op, counter) -> value
        self.spans: list[tuple] = []  # (op, name, parent, start, end, self)

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        # frames above this one were left open by an exception raised inside
        # the tracer itself (a MemoryError); drop them
        while stack and stack.pop() is not frame:
            pass
        duration = end - frame[1]
        own = duration - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        key = (self.op, frame[0])
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, duration, own]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        if frame[0] in self.span_names:
            self.spans.append(
                (self.op, frame[0], parent[0] if parent else None, frame[1], end, own)
            )

    def add(self, counter: str, value: int) -> None:
        key = (self.op, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def maximize(self, counter: str, value: int) -> None:
        key = (self.op, counter)
        if value > self.counters.get(key, 0):
            self.counters[key] = value


def wrap(tracer: Tracer, name: str, fn, extra=None):
    """A traced stand-in for fn; extra(tracer, args, result) adds counters."""
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(frame)
        if extra is not None:
            extra(tracer, args, result)
        return result

    return traced


def rebind(modules, original, replacement) -> list[tuple]:
    """Point every module attribute bound to original at replacement."""
    done = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                done.append((module, attr, original))
    return done


def _term_pairs(tracer, args, result):
    tracer.add("magnus.multiply.term_pairs", len(args[0].terms) * len(args[1].terms))


def _member_hits(tracer, args, result):
    if result:
        tracer.add("subgroups.member.hits", 1)


def _ball_elements(tracer, args, result):
    tracer.add("distortion.ball.elements", len(result))


def _basis_words(tracer, args, result):
    words = [len(e.word) for e in result.entries] + [len(r) for r in result.relations]
    tracer.maximize("subgroups.induced_basis.preimage_letters_max", max(words, default=0))
    tracer.add("subgroups.induced_basis.relations", len(result.relations))


def _letters(tracer, args, result):
    tracer.add("words.parse_word.letters", len(result))


# (module, attribute, metric name, counter hook, keeps full spans,
#  the end-to-end metrics and workloads it should move)
LAYERS = (
    ("magnus", "multiply", "magnus.multiply", _term_pairs, False,
     "wall_s everywhere; most on nf-deep; largest self time on ball-bfs"),
    ("magnus", "inverse", "magnus.inverse", None, False,
     "wall_s, op_p50_ms on ball-bfs and nf-deep"),
    ("magnus", "power", "magnus.power", None, False,
     "wall_s, op_p50_ms on ball-bfs and nf-deep"),
    ("magnus", "embed", "magnus.embed", None, False,
     "wall_s, op_p50_ms on ball-bfs and nf-deep"),
    ("hall", "to_coordinates", "hall.to_coordinates", None, False,
     "wall_s, op_p50_ms on ball-bfs; one call per op on nf-deep"),
    ("hall", "from_coordinates", "hall.from_coordinates", None, False,
     "wall_s, op_p50_ms on ball-bfs"),
    ("subgroups", "member", "subgroups.member", _member_hits, False,
     "wall_s on ball-bfs"),
    ("distortion", "enumerate_ball", "distortion.enumerate_ball", _ball_elements, True,
     "wall_s on ball-bfs"),
    ("distortion", "measure_distortion", "distortion.measure_distortion", None, True,
     "wall_s on ball-bfs (self time: subgroup-length BFS and the table)"),
    ("subgroups", "induced_basis", "subgroups.induced_basis", _basis_words, True,
     "wall_s, op_p90_ms, ok_frac, peak_rss_mb on decide; about 0 on nf-deep"),
    ("words", "free_reduce", "words.free_reduce", None, False,
     "wall_s, op_p90_ms, ok_frac, peak_rss_mb on decide; about 0 on nf-deep"),
    ("words", "parse_word", "words.parse_word", _letters, False,
     "op_p50_ms on nf-deep"),
    ("intmat", "_hnf_lists", "intmat.hermite_normal_form", None, True,
     "setup_s on nf-deep (every HNF: hermite_normal_form, rank, RepeatedSolver)"),
    ("hall", "HallBasis.__init__", "hall.hall_basis", None, True,
     "setup_s on nf-deep (uncached Hall basis builds only)"),
)


class Installation:
    """Wrappers for LAYERS, rebound across the loaded nildist modules."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nildist" or n.startswith("nildist.")]
        for module_name, attr, name, extra, _, _ in LAYERS:
            module = sys.modules[f"nildist.{module_name}"]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[method]
                setattr(owner, method, wrap(self.tracer, name, original, extra))
                self.undo.append((owner, method, original))
            else:
                original = getattr(module, attr)
                replacement = wrap(self.tracer, name, original, extra)
                self.undo.extend(rebind(modules, original, replacement))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo = []


def span_names() -> set[str]:
    return {name for _, _, name, _, spans, _ in LAYERS if spans} | {"op"}
