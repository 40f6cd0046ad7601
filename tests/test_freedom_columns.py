"""The ``freedom`` bijection as a relabeling of the Dyck path's columns.

:mod:`shi_ish.bijections` runs the prime-component construction on column
indices and reads each word off the positions the columns reach.  The
label-level construction of :mod:`freedom_reference` is the reference: the
word maps and the refusals must be the same on every word.
"""

import random

import pytest

import shi_ish.bijections as bijections
from shi_ish.bijections import freedom_parking_to_rook, freedom_rook_to_parking
from shi_ish.parking import parking_functions
from shi_ish.rookwords import orbit_certificate, rook_words

import freedom_reference as reference
from test_word_regions import run_under_python_O


def outcome(function, word):
    """The value of ``function(word)``, or the type and message it raised."""
    try:
        return function(word)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc), str(exc)


def seeded_words(n, count=300):
    """The parking and rook members of ``count`` seeded cyclic orbits over
    [n+1]^n: uniform parking words and uniform rook words."""
    rng = random.Random(f"freedom-columns:{n}")
    certificates = [orbit_certificate([rng.randint(1, n + 1) for _ in range(n)]) for _ in range(count)]
    return [c.parking for c in certificates], [c.rook for c in certificates]


@pytest.mark.parametrize("n", range(1, 7))
def test_word_maps_are_the_reference_on_every_word(n):
    for word in rook_words(n):
        assert freedom_rook_to_parking(word) == reference.rook_to_parking(word), word
    for word in parking_functions(n):
        assert freedom_parking_to_rook(word) == reference.parking_to_rook(word), word


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_word_maps_are_the_reference_on_seeded_words(n):
    parking, rook = seeded_words(n)
    for word in rook:
        image = freedom_rook_to_parking(word)
        assert image == reference.rook_to_parking(word), word
        assert freedom_parking_to_rook(image) == word, word
    for word in parking:
        assert freedom_parking_to_rook(word) == reference.parking_to_rook(word), word


BAD_WORDS = [
    (2, 2),  # neither a parking word nor a rook word
    (1, 3, 3),  # a rook word, no parking word
    (3, 1, 1),  # a parking word, no rook word
    (2, 3, 3),  # neither: 1 is missing
    (4, 1, 2, 2),  # a parking word, no rook word
    [2, 2],  # a list
    (),
    (0, 1),  # letters out of range
    (1, 5),
    (2.5, 1),  # a float no integer equals
    (1, "a"),
    (None,),
    (True,),  # bools index like 1
    (True, True),
    (1, True),
    (2, True, True),
    (1, False),
]


@pytest.mark.parametrize("word", BAD_WORDS, ids=repr)
def test_refusals_are_the_reference(word):
    """Every word refused by the reference is refused with the same type
    and message; every other one maps to the same word."""
    assert outcome(freedom_parking_to_rook, word) == outcome(reference.parking_to_rook, word)
    assert outcome(freedom_rook_to_parking, word) == outcome(reference.rook_to_parking, word)


FLOAT_WORDS = [
    (1, 2.0, 2),
    (1, 1.0),
    (2, 1.0),
    # the rook test itself refuses (1.0,): range(1, 2.0) is no range
    (1.0,),
]


@pytest.mark.parametrize("word", FLOAT_WORDS, ids=repr)
def test_a_float_equal_to_a_letter_is_refused(word):
    """A float equal to an integer passes the parking and rook tests.  The
    reference then stumbled on it (a ``TypeError`` from a list index) or
    read ``(1, 1.0)`` as ``(1, 1)``; the column sizes of both word maps
    refuse it with the message of ``core.check_word``."""
    assert reference.rook_to_parking((1, 1.0)) == (1, 1)
    letter = next(a for a in word if type(a) is float)
    for function in (freedom_parking_to_rook, freedom_rook_to_parking):
        with pytest.raises(ValueError) as refused:
            function(word)
        assert str(refused.value) == f"letter {letter!r} outside alphabet [1, {len(word)}]"


def test_the_construction_checks_survive_python_O():
    """The checks inside the column construction raise ``AssertionError``
    explicitly, so ``python -O`` keeps them: a forward map whose cycle
    lemma finds no rotation, and an inverse map fed a word that is no
    parking word, both raise."""
    script = (
        "from shi_ish import bijections\n"
        "bijections._parking_shifts = lambda counts, bar: []\n"
        "try:\n"
        "    bijections.freedom_rook_to_parking((2, 8, 8, 1, 8, 8, 2, 5))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "bijections.is_parking_function = lambda word: True\n"
        "try:\n"
        "    bijections.freedom_parking_to_rook((2, 2))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    assert run_under_python_O(script) == (
        "0 rotations are Dyck paths, expected 1\nan empty column precedes the column of 1 for (2, 2)\n"
    )
    assert bijections.freedom_rook_to_parking((2, 8, 8, 1, 8, 8, 2, 5)) == (2, 4, 4, 1, 4, 4, 2, 7)
