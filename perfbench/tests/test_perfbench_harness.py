"""Self-tests of the benchmark harness.

Run from the root of the repository: python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_covered_children():
    assert tracing.self_time(0, 100, []) == 100
    assert tracing.self_time(0, 100, [(10, 30), (50, 60)]) == 70
    # overlapping and out-of-span children count once, clipped to the span
    assert tracing.self_time(0, 100, [(10, 30), (20, 40), (90, 130)]) == 60


def test_tracer_self_time_matches_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock, span_names={"outer", "inner"})
    tracer.op = 7
    outer = tracer.enter("outer")
    clock.now = 10
    for start in (10, 40):
        clock.now = start
        inner = tracer.enter("inner")
        clock.now = start + 20
        tracer.leave(inner)
    clock.now = 100
    tracer.leave(outer)
    assert tracer.stats[(7, "inner")] == [2, 40, 40]
    assert tracer.stats[(7, "outer")] == [1, 100, 60]
    spans = {name: (start, end, own) for _, name, _, start, end, own in tracer.spans}
    children = [(s, e) for _, name, _, s, e, _ in tracer.spans if name == "inner"]
    start, end, own = spans["outer"]
    assert own == tracing.self_time(start, end, children)


def test_tracer_survives_a_frame_left_open():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    outer = tracer.enter("outer")
    tracer.enter("lost")  # never left: an exception inside the tracer
    clock.now = 5
    tracer.leave(outer)
    assert tracer.stack == []
    assert tracer.stats[(None, "outer")] == [1, 5, 5]


def test_rebind_reaches_every_module_that_imported_the_function():
    def original():
        return "original"

    a = types.ModuleType("a")
    b = types.ModuleType("b")
    a.f = original
    b.g = original  # as after `from a import f as g`
    b.other = len
    done = tracing.rebind([a, b], original, lambda: "traced")
    assert a.f() == b.g() == "traced"
    assert b.other is len
    for module, attr, value in done:
        setattr(module, attr, value)
    assert a.f is original and b.g is original


def test_installation_counts_calls_made_through_imported_names():
    from nildist import Presentation, hall, magnus, parse_word

    p = Presentation(2, 2)
    original = magnus.multiply
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer)
    installation.install()
    try:
        assert hall.multiply.__wrapped__ is original
        hall.to_coordinates(magnus.embed(parse_word("a b", p), p))
    finally:
        installation.uninstall()
    names = {name for _, name in tracer.stats}
    # hall calls multiply through its own `from .magnus import multiply`
    assert {"hall.to_coordinates", "magnus.embed", "magnus.multiply"} <= names
    assert tracer.counters[(None, "magnus.multiply.term_pairs")] > 0
    assert hall.multiply is original and magnus.multiply is original


def test_classify_failures():
    assert run.classify("ok", 0, None) is None
    assert run.classify("ok", 0, "table differs") == "wrong_output"
    assert run.classify("ok", 2, None) == "exit_2"
    assert run.classify("ok", 3, None) == "exit_3"
    assert run.classify("memory", None, None) == "memory"
    assert run.classify("deadline", None, None) == "deadline"
    assert run.classify("exception:KeyError", None, None) == "exception"


def test_tail_percentile_keeps_ten_samples_beyond():
    value, level = run.tail_percentile(range(1, 201))
    assert (value, level) == (180, 0.9)
    value, level = run.tail_percentile(range(1, 61))
    assert level == 0.83 and 60 - value >= 10
    assert run.tail_percentile([3, 1, 2]) == (2, 0.5)


def test_workloads_repeat_for_a_seed_and_change_across_seeds():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build("decide", 3)["ops"] != workloads.build("decide", 4)["ops"]


def test_oracle_agrees_with_naive_embed():
    from oracles import naive_embed

    from nildist import Presentation, parse_word

    for m, c, text in ((2, 4, "(a b^-1)^-3 [a,b,a]^2"), (3, 3, "[a c,b^2] c^-2 a")):
        word = parse_word(text, Presentation(m, c))
        group = oracle.PolyGroup(m, c)
        assert group.flat(oracle.evaluate(text, group, m)) == naive_embed(word, m, c)


def test_oracle_rejects_a_wrong_normal_form():
    basis = ["a", "b", "[b,a]"]
    expected = oracle.evaluate("a b", oracle.PolyGroup(2, 2), 2)
    assert oracle.check_element(
        "normal form: a b\ncoordinates: (1, 1, 0)", 2, 2, expected, basis) is None
    assert oracle.check_element(
        "normal form: a b [b,a]\ncoordinates: (1, 1, 1)", 2, 2, expected, basis)


def test_heisenberg_delta_is_quadratic():
    rows = oracle.heisenberg_delta("[a,b]", 8)
    assert [r[1] for r in rows] == [0, 0, 0, 1, 1, 2, 2, 4]
