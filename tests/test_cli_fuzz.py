"""A fuzz property of the command line: on any word the grammar admits, in
any group inside the Hirsch cap, nf, analyze and measure end with exit code
0, 1 or 2 and no traceback, in a fresh process under a 256 MB address-space
ceiling and a time limit."""

import os
import resource
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import nildist
from nildist.errors import CapExceededError
from nildist.presentation import DEFAULT_HIRSCH_CAP, Presentation
from nildist.words import MAX_EXPONENT


def _inside_cap(m, c):
    try:
        Presentation(m, c)
    except CapExceededError:
        return False
    return True


GROUPS = [(m, c) for m in range(1, 6) for c in range(1, 8) if _inside_cap(m, c)]

F53_INPUT = (
    "b^-2 a^-2",
    "[e^-1 c^-1,b^-1 c]^-1 [e^-1,a^-1]",
    "c^-2 [b b,a^-1 e^-1]",
    "b^-1 d^2",
    "d^-1",
    "b^2 [e,e^-1 a^-1]^2",
    "[a^-1,c d^-1]",
)


def words(m):
    names = [Presentation(m, 1).name_of(i) for i in range(m)]
    exponents = st.integers(-MAX_EXPONENT, MAX_EXPONENT)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(" ".join),
            children.map(lambda w: f"({w})"),
            st.tuples(children, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
            st.lists(children, min_size=2, max_size=4).map(
                lambda parts: f"[{','.join(parts)}]"
            ),
        )

    return st.recursive(st.sampled_from(names + ["1"]), extend, max_leaves=6)


@st.composite
def command_lines(draw):
    m, c = draw(st.sampled_from(GROUPS))
    command = draw(st.sampled_from(("nf", "analyze", "measure")))
    count = 1 if command == "nf" else draw(st.integers(1, 3))
    argv = [command, "-m", str(m), "-c", str(c)]
    if command == "measure":
        argv += ["--radius", str(draw(st.integers(0, 4)))]
    return argv + [draw(words(m)) for _ in range(count)]


def _run(argv):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(nildist.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "nildist.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=limit,
        timeout=60,
    )


# every run is a fresh process: ten draws and the examples take about six
# seconds, two to three of them in the F(5,3) example
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(command_lines())
# a weight-2 witness of 2.3 * 10^9 letters: it ran out of memory spelling it
@example(["analyze", "-m", "5", "-c", "3", *F53_INPUT])
# spelled and embedded one letter run at a time, these took 7-10 s
@example(["analyze", "-m", "2", "-c", "2", "(a b)^1000000"])
@example(["measure", "-m", "5", "-c", "2", "--radius", "2", "((a c)^362880)", "a", "d^-65537"])
# 330 nested parentheses and a 1000-part bracket ran out of stack
@example(["nf", "-m", "2", "-c", "2", "(" * 330 + "a" + ")" * 330])
@example(["nf", "-m", "2", "-c", "2", "[" + ",".join(["a"] * 1000) + "]"])
@example(["analyze", "-m", "2", "-c", "2", "[" + ",".join(["a"] * 1000) + "]"])
# non-ASCII digits: int() refused the first and read the second as 3
@example(["analyze", "-m", "2", "-c", "2", "a^²"])
@example(["nf", "-m", "2", "-c", "2", "a^٣"])
def test_cli_ends_with_an_exit_code_and_no_traceback(argv):
    assert DEFAULT_HIRSCH_CAP >= Presentation(int(argv[2]), int(argv[4])).hirsch_length
    result = _run(argv)
    assert result.returncode in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr
