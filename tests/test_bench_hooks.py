"""The benchmark's tracer (perfbench/tracing.py) wraps nildist functions and
its hooks read attributes of their results: an induced basis's entries,
their words and its relations, and the letters parse_word spells.  A
traced measure, analyze and parse_word run through every hook here, so
dropping or renaming one of those attributes fails the test suite, not
only a traced benchmark run.  The commands parse words without spelling
them, so parse_word is called directly."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Installation, Tracer  # noqa: E402
from nildist import words  # noqa: E402
from nildist.cli import main  # noqa: E402
from nildist.presentation import Presentation  # noqa: E402


def test_traced_commands_run_every_counter_hook(capsys):
    tracer = Tracer()
    installation = Installation(tracer)
    installation.install()
    try:
        assert main(["measure", "-m", "2", "-c", "3", "--radius", "3", "a", "[a,b]"]) == 0
        assert main(["analyze", "-m", "2", "-c", "2", "a", "[a,b]"]) == 0
        assert len(words.parse_word("a [a,b]", Presentation(2, 2))) == 5
    finally:
        installation.uninstall()
    assert '"verdict": "distorted"' in capsys.readouterr().out
    counters = {name for _, name in tracer.counters}
    assert counters >= {
        "magnus.multiply.term_pairs",
        "subgroups.member.hits",
        "distortion.ball.elements",
        "subgroups.induced_basis.preimage_letters_max",
        "subgroups.induced_basis.relations",
        "words.parse_word.letters",
    }
