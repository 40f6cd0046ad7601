"""The bijections in the word domain.

Each bijection is implemented once, as ``{name}_rook_to_parking`` (the rook
word of an Ish region to the parking word of its Shi image) and
``{name}_parking_to_rook``.  The diagram maps ``{name}_bijection`` and
``{name}_bijection_inverse`` are their one view, through the Ish codec and
Shi diagrams.  The word maps and the view must agree on every region and
every word of small size, and the theorem sweeps must never build or decode
a Shi diagram, nor walk or measure an Ish diagram.
"""

import itertools
import json
import re
import sys

import pytest

import shi_ish.bijections as bijections
import shi_ish.cli as cli
import shi_ish.ish as ish
import shi_ish.parking as parking
import shi_ish.rookwords as rookwords
import shi_ish.shi as shi
from shi_ish.core import Graph, all_graphs, check_word
from shi_ish.ish import ish_statistics
from shi_ish.parking import is_parking_function, is_prime_parking_function, parking_functions
from shi_ish.rookwords import is_prime_rook_word, is_rook_word, rook_words
from shi_ish.shi import parking_to_shi_diagram

from reference import (
    ish_diagram_to_rook_word,
    ish_diagrams,
    prime_rook_word_to_parking,
    rook_word_to_ish_diagram,
)
from codec_routes import REFERENCES, codec_views

NAMES = ("basic", "dominance", "bounded", "freedom")
GRAPHS = [g for n in range(1, 5) for g in all_graphs(n)] + [Graph.complete(5)]


def maps(name):
    """The codec views of the word maps (:func:`codec_routes.codec_views`),
    ``{name}_bijection`` and its inverse."""
    return [*codec_views(name), *(getattr(bijections, f"{name}_{s}") for s in ("bijection", "bijection_inverse"))]


def regions(name):
    """The Ish regions of every graph in GRAPHS, each once, in the domain of
    the bijection (the relatively bounded ones for ``bounded``)."""
    found = dict.fromkeys(d for graph in GRAPHS for d in ish_diagrams(graph.n, graph))
    return [d for d in found if name != "bounded" or ish_statistics(d).relatively_bounded]


def words(name):
    """The parking words of every graph in GRAPHS, each once (the prime ones
    for ``bounded``)."""
    found = dict.fromkeys(w for graph in GRAPHS for w in parking_functions(graph.n, graph))
    return [w for w in found if name != "bounded" or is_prime_parking_function(w)]


@pytest.mark.parametrize("name", NAMES)
def test_word_map_is_the_diagram_map(name):
    parking, _, bijection, _ = maps(name)
    domain = regions(name)
    assert domain
    for diagram in domain:
        assert parking_to_shi_diagram(parking(diagram)) == bijection(diagram), diagram


@pytest.mark.parametrize("name", NAMES)
def test_word_inverse_is_the_diagram_inverse(name):
    _, parking_inverse, _, bijection_inverse = maps(name)
    domain = words(name)
    assert domain
    for word in domain:
        assert parking_inverse(word) == bijection_inverse(parking_to_shi_diagram(word)), word


@pytest.mark.parametrize("name", NAMES)
def test_the_codec_views_are_the_word_maps(name):
    """The word map after the encoding and the decoding after the inverse
    word map are the word maps seen through the Ish codec: the image is the
    one of the placement route, the word maps invert each other on every
    region's rook word, and the decoding gives the region back."""
    parking, parking_inverse, _, _ = maps(name)
    forward, backward = (getattr(bijections, f"{name}_{s}") for s in ("rook_to_parking", "parking_to_rook"))
    for diagram in regions(name):
        word = ish_diagram_to_rook_word(diagram)
        image = forward(word)
        assert image == parking(diagram) == REFERENCES[name][0](diagram), diagram
        assert backward(image) == word, diagram
        assert parking_inverse(image) == rook_word_to_ish_diagram(word) == diagram, diagram


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("word", [(2, 2), (3, 1, 1), (2, 3, 3), (4, 1, 2, 2), [2, 2]])
def test_word_maps_refuse_words_that_are_no_rook_words(name, word):
    with pytest.raises(ValueError) as refused:
        getattr(bijections, f"{name}_rook_to_parking")(word)
    assert str(refused.value) == f"{word!r} is not a rook word"


@pytest.mark.parametrize("direction", ["rook_to_parking", "parking_to_rook"])
@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("word", [(1, 2.0, 2), (1, 1.0), (1, "a"), (1, None)], ids=repr)
def test_word_maps_refuse_a_letter_that_is_no_integer(name, direction, word):
    """Each of the eight word maps refuses a letter that is no integer with
    a ValueError: the one of ``core.check_word``, naming that letter, before
    the word's shape is judged (``(1, 2, 2)`` is no prime parking function,
    yet ``bounded_parking_to_rook`` names the float in ``(1, 2.0, 2)``)."""
    bad = next(a for a in word if type(a) is not int)
    with pytest.raises(ValueError) as refused:
        getattr(bijections, f"{name}_{direction}")(word)
    assert re.fullmatch(rf"letter {re.escape(repr(bad))} outside alphabet \[1, \d+\]", str(refused.value))


@pytest.mark.parametrize(
    "predicate", [is_parking_function, is_prime_parking_function, is_rook_word, is_prime_rook_word]
)
@pytest.mark.parametrize(
    "word", [(1, 1.0), (1.5, 1), (1, 2.0, 2), (2, 1, 3.0), (1, "a"), (None,), (0, 1.0)], ids=repr
)
def test_word_predicates_refuse_a_letter_that_is_no_integer(predicate, word):
    """Whether a word is a parking function or a rook word is never decided
    for a word that ``check_word`` refuses: the predicates raise its
    ValueError, a float equal to an integer included."""
    with pytest.raises(ValueError) as expected:
        check_word(word, len(word))
    with pytest.raises(ValueError) as refused:
        predicate(word)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("word", [(1, 1.0, 2), (1, 2.0, 2), (1, "a", 2)], ids=repr)
def test_prime_rook_word_refuses_a_letter_that_is_no_integer(word):
    """A float equal to a letter is no prime rook letter, and a string
    raises ``check_word``'s ValueError rather than a TypeError, from the
    predicate and from the map it guards."""
    for refuse in (is_prime_rook_word, prime_rook_word_to_parking):
        with pytest.raises(ValueError, match="outside alphabet"):
            refuse(word)


def test_theorem_sweeps_never_touch_a_shi_diagram(capsys, monkeypatch):
    def refuse(*_):
        raise RuntimeError("a theorem sweep built or decoded a Shi diagram")

    builders = ("parking_to_shi_diagram", "_shi_diagram", "shi_diagram_to_parking")
    for module in (cli, bijections, shi):
        for attr in builders:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    for suite in ("thm-basic", "thm-dominance", "thm-bounded", "thm-freedom"):
        code = cli.main(["verify", "--n", "3", "--suite", suite])
        out = capsys.readouterr().out
        assert code == 0, suite
        assert json.loads(out)["passed"] is True, suite


def test_theorem_sweeps_stay_in_the_word_domain(capsys, monkeypatch):
    """An Ish region is its rook word: the sweeps generate no Ish diagram and
    compute no statistics from one, in either direction of any bijection."""

    def refuse(*_):
        raise RuntimeError("a theorem sweep walked or measured an Ish diagram")

    for module in (cli, bijections, ish):
        for attr in ("ish_diagrams", "ish_statistics"):
            monkeypatch.setattr(module, attr, refuse, raising=False)
    for suite in ("thm-basic", "thm-dominance", "thm-bounded", "thm-freedom"):
        code = cli.main(["verify", "--n", "5", "--suite", suite])
        out = capsys.readouterr().out
        assert code == 0, suite
        assert json.loads(out)["passed"] is True, suite


@pytest.mark.parametrize(
    "word",
    [(1, 3, 3), (2, 2), (4, 1, 1), (0, 1, 1), (1, 1, 5), (3, 5, 1, 1), (), [1, 3, 3], [0]],
)
def test_dominance_inverse_refuses_non_parking_words(word):
    """Letters 0 and n + 2 fail the orbit certificate's alphabet check; the
    inverse still says the input is not a parking function."""
    with pytest.raises(ValueError) as refused:
        codec_views("dominance")[1](word)
    assert str(refused.value) == f"{word!r} is not a parking function"


def test_dominance_round_trip_tests_each_parking_word_once(monkeypatch):
    """One parking test in the forward certificate, one in the inverse's
    certificate of its input, both through the float-free core
    ``_is_parking``: no ``is_parking_function`` call."""
    calls = {}

    def counting(name):
        original = getattr(parking, name)

        def counted(word):
            calls[name] = calls.get(name, 0) + 1
            return original(word)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("shi_ish") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    counting("is_parking_function")
    counting("_is_parking")
    sample = list(itertools.islice(ish_diagrams(6), 0, None, 41))
    assert len(sample) > 400
    forward, inverse = codec_views("dominance")
    for diagram in sample:
        assert inverse(forward(diagram)) == diagram
    assert calls == {"_is_parking": 2 * len(sample)}


def test_dominance_round_trip_scans_each_kind_of_shift_once(monkeypatch):
    """Going forward the orbit is scanned for its parking function only and
    the input is tested as a rook word; going back it is scanned for its
    rook word only and the input is tested as a parking function.  ``basic``
    parks its laser word without looking for a rook shift."""
    calls = {"_parking_shifts": 0, "_rook_shifts": 0}
    for name in calls:
        original = getattr(rookwords, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(rookwords, name, counted)
    forward, inverse = codec_views("dominance")
    for diagram in itertools.islice(ish_diagrams(5), 0, None, 37):
        calls.update(dict.fromkeys(calls, 0))
        assert inverse(forward(diagram)) == diagram
        assert calls == {"_parking_shifts": 1, "_rook_shifts": 1}, diagram
    for word in itertools.islice(rook_words(6), 0, None, 53):
        calls.update(dict.fromkeys(calls, 0))
        bijections.basic_rook_to_parking(word)
        assert calls == {"_parking_shifts": 1, "_rook_shifts": 0}, word


#: (word map, input, exception type, message) for inputs outside each map's
#: domain at n = 4: letters 0 and n + 2, words of [n+1]^n that are no rook
#: word or no parking function, a float letter and things that are no word
REFUSALS = [
    pytest.param(name, word, error, message, id=f"{name}-{word!r}")
    for name, rows in {
        "dominance_rook_to_parking": [
            ((1, 0, 2, 3), ValueError, "letter 0 outside alphabet [1, 5]"),
            ((1, 6, 2, 3), ValueError, "letter 6 outside alphabet [1, 5]"),
            ((3, 1, 1, 1), ValueError, "(3, 1, 1, 1) is not a rook word"),
            ((1, 4, 4, 5), ValueError, "(1, 4, 4, 5) is not a rook word"),
            ([3, 1, 1, 1], ValueError, "[3, 1, 1, 1] is not a rook word"),
            ((1, 2.0, 1, 1), ValueError, "letter 2.0 outside alphabet [1, 5]"),
            (2.0, TypeError, "object of type 'float' has no len()"),
            ("a", ValueError, "letter 'a' outside alphabet [1, 2]"),
            (None, TypeError, "object of type 'NoneType' has no len()"),
            ((), ValueError, "orbit of () over [1, 1] has 0 parking functions and 0 rook words; expected one of each"),
        ],
        "dominance_parking_to_rook": [
            ((1, 0, 2, 3), ValueError, "(1, 0, 2, 3) is not a parking function"),
            ((1, 6, 2, 3), ValueError, "(1, 6, 2, 3) is not a parking function"),
            ((1, 4, 4, 2), ValueError, "(1, 4, 4, 2) is not a parking function"),
            ((1, 4, 4, 5), ValueError, "(1, 4, 4, 5) is not a parking function"),
            ([1, 4, 4, 2], ValueError, "[1, 4, 4, 2] is not a parking function"),
            ((1, 2.0, 1, 1), ValueError, "letter 2.0 outside alphabet [1, 4]"),
            (2.0, TypeError, "object of type 'float' has no len()"),
            ("a", ValueError, "letter 'a' outside alphabet [1, 1]"),
            (None, TypeError, "object of type 'NoneType' has no len()"),
            ((), ValueError, "() is not a parking function"),
        ],
        "basic_rook_to_parking": [
            ((1, 0, 2, 3), ValueError, "(1, 0, 2, 3) is not a rook word"),
            ((1, 6, 2, 3), ValueError, "(1, 6, 2, 3) is not a rook word"),
            ((3, 1, 1, 1), ValueError, "(3, 1, 1, 1) is not a rook word"),
            ((1, 4, 4, 5), ValueError, "(1, 4, 4, 5) is not a rook word"),
            ([3, 1, 1, 1], ValueError, "[3, 1, 1, 1] is not a rook word"),
            ((1, 2.0, 1, 1), ValueError, "letter 2.0 outside alphabet [1, 4]"),
            (2.0, TypeError, "object of type 'float' has no len()"),
            ("a", ValueError, "letter 'a' outside alphabet [1, 1]"),
            (None, ValueError, "None is not a rook word"),
            ((), ValueError, "() is not a rook word"),
        ],
    }.items()
    for word, error, message in rows
]


@pytest.mark.parametrize("name, word, error, message", REFUSALS)
def test_cycle_lemma_maps_keep_their_refusals(name, word, error, message):
    """Each refusal keeps its exception type and its message exactly."""
    with pytest.raises(Exception) as refused:
        getattr(bijections, name)(word)
    assert (type(refused.value), str(refused.value)) == (error, message)
