import re
from pathlib import Path

import pytest

import nildist
from oracles import witt_every_d
from nildist import hall, magnus, presentation
from nildist.errors import CapExceededError
from nildist.magnus import embed, multiply
from nildist.presentation import (
    CACHED_PRESENTATIONS,
    Presentation,
    mobius,
    witt_number,
)


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_witt_numbers():
    assert [witt_number(2, k) for k in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert witt_number(3, 2) == 3
    assert witt_number(3, 3) == 8
    # total count over weights is the dimension of the ambient coordinate space
    assert Presentation(2, 2).hirsch_length == 3
    assert Presentation(2, 3).hirsch_length == 5
    assert Presentation(2, 4).hirsch_length == 8
    assert Presentation(3, 2).hirsch_length == 6
    assert Presentation(3, 3).hirsch_length == 14
    assert Presentation(2, 5).hirsch_length == 14


def test_witt_numbers_match_the_sum_over_every_d():
    # witt_number visits the divisors of k in pairs; the oracle tries every d
    for m in range(1, 6):
        for k in range(1, 61):
            assert witt_number(m, k) == witt_every_d(m, k), (m, k)


def test_default_names():
    assert Presentation(2, 2).names == ("a", "b")
    assert Presentation(5, 2).names == ("a", "b", "c", "d", "e")
    assert Presentation(6, 2, max_hirsch=100).names == (
        "x1", "x2", "x3", "x4", "x5", "x6",
    )


def test_name_lookup():
    p = Presentation(3, 2)
    assert p.name_of(2) == "c"
    assert p.index_of("c") == 2
    assert p.index_of("x3") == 2
    with pytest.raises(KeyError):
        p.index_of("z")


def test_custom_names_must_be_distinct():
    Presentation(2, 2, names=("u", "v"))
    with pytest.raises(ValueError):
        Presentation(2, 2, names=("u", "u"))
    with pytest.raises(ValueError):
        Presentation(2, 2, names=("u",))


def test_equality_is_by_value():
    p = Presentation(2, 3)
    assert p == p
    assert p == Presentation(2, 3) and hash(p) == hash(Presentation(2, 3))
    assert p != Presentation(2, 3, names=("x", "y"))
    assert p != Presentation(2, 3, max_hirsch=30)
    assert p != Presentation(3, 2) and p != (2, 3)


def test_equal_presentations_are_one_object():
    p = Presentation(2, 3)
    assert Presentation(2, 3) is p
    assert Presentation(2, 3, names=("a", "b"), max_hirsch=60) is p
    assert Presentation(2, 3, max_hirsch=30) is not p


def test_presentation_caches_are_bounded():
    # a caller that makes more presentations than the caches keep evicts the
    # oldest; one made again afterwards is a new object, equal by value
    # names no other test uses, so no earlier read of p's attributes counts
    p = Presentation(2, 3, names=("s", "t"))
    g = embed(((0, 1), (1, -1)), p)
    made = [
        Presentation(1, 1, names=(f"g{i}",)) for i in range(2 * CACHED_PRESENTATIONS)
    ]
    for q in made:
        hall.hall_basis(q)
        hall.letter_steps(q)
        embed(((0, 1), (0, -1)), q)
        assert q.index_of(q.names[0]) == 0
    for cache in (
        presentation._intern,
        presentation._name_table,
        hall.hall_basis,
        hall.letter_steps,
        magnus._letter_image,
    ):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    assert presentation._intern.cache_info().currsize == CACHED_PRESENTATIONS
    assert hall.hall_basis.cache_info().currsize == CACHED_PRESENTATIONS
    assert hall.letter_steps.cache_info().currsize == CACHED_PRESENTATIONS
    again = Presentation(2, 3, names=("s", "t"))
    assert again is not p and again == p and hash(again) == hash(p)
    # reading the Hirsch length on one side only leaves them equal
    assert again.hirsch_length == 5 and again == p
    assert multiply(g, embed(((1, 1),), again)) == embed(((0, 1),), p)


def test_invalid_sizes():
    with pytest.raises(ValueError):
        Presentation(0, 2)
    with pytest.raises(ValueError):
        Presentation(2, 0)


def test_hirsch_cap():
    with pytest.raises(CapExceededError) as exc:
        Presentation(3, 9)
    assert str(exc.value) == "Hirsch length for rank 3, class 9 exceeds the cap 60"
    # raising the cap admits the same presentation
    p = Presentation(2, 5, max_hirsch=14)
    assert p.hirsch_length == 14
    with pytest.raises(CapExceededError):
        Presentation(2, 5, max_hirsch=13)


def test_package_exports():
    assert nildist.__version__
    for name in (
        "Presentation",
        "parse_word",
        "embed",
        "to_coordinates",
        "induced_basis",
        "decide_undistorted",
        "measure_distortion",
        "estimate_exponent",
    ):
        assert name in nildist.__all__
    # the public surface is what the README's Library section documents
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    for name in nildist.__all__:
        assert getattr(nildist, name) is not None
        assert re.search(rf"\b{name}\b", library), name
