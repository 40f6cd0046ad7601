"""One letter contract over the package's public word functions.

Every public function whose first argument is a word refuses a letter that
is not an int, a float equal to an integer included, with the ValueError
of ``check_word`` and with no other exception.  The functions are listed
by name, and a second test finds every public function that takes a word
first, so that a new one has to be added here.
"""

import inspect
import re

import pytest

from shi_ish import bijections, core, ish, parking, rookwords, shi
from shi_ish.core import Graph

import reference

MODULES = (core, parking, rookwords, shi, ish, bijections, reference)

#: name -> the arguments after the word
WORD_FUNCTIONS = {
    # the predicates
    "is_parking_function": (),
    "is_prime_parking_function": (),
    "is_rook_word": (),
    "is_prime_rook_word": (),
    # the statistics and the degrees of freedom
    "shi_word_statistics": (),
    "region_word_statistics": (Graph.complete(2),),
    "region_rook_word_statistics": (Graph.complete(2),),
    "parking_dof": (),
    "tail_and_dof": (),
    "position_partition": (),
    # the eight word maps of the four bijections
    "basic_rook_to_parking": (),
    "basic_parking_to_rook": (),
    "dominance_rook_to_parking": (),
    "dominance_parking_to_rook": (),
    "bounded_rook_to_parking": (),
    "bounded_parking_to_rook": (),
    "freedom_rook_to_parking": (),
    "freedom_parking_to_rook": (),
    # the cycle lemma
    "orbit_certificate": (),
    "rook_word_to_parking": (),
    "parking_to_rook_word": (),
    "prime_rook_word_to_parking": (),
    "prime_parking_to_rook_word": (),
    "pollak_empty_spot": (),
    "cyclic_shift": (1, 3),
    "orbit": (3,),
    # the codecs that start from a word
    "word_to_dyck": (),
    "factorize_parking": (),
    "parking_to_shi_diagram": (),
    "parking_to_placement": (),
    "rook_word_to_placement": (),
    "rook_word_to_ish_diagram": (),
    "laser_word_to_ish_diagram": (),
    "parking_to_ish_diagram": (),
}

#: public word functions outside the contract, with the reason
NOT_IN_THE_CONTRACT: set[str] = set()

REFUSED = [(1, 1.0), (1.0, 1), (1, "a"), (1, None)]


def public_word_functions():
    found = {}
    for module in MODULES:
        for name, function in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(function) or function.__module__ != module.__name__:
                continue
            first = next(iter(inspect.signature(function).parameters), None)
            if first == "word":
                found[name] = function
    return found


def test_every_public_word_function_is_listed():
    assert set(public_word_functions()) == set(WORD_FUNCTIONS) | NOT_IN_THE_CONTRACT


@pytest.mark.parametrize("word", REFUSED, ids=repr)
@pytest.mark.parametrize("name", sorted(WORD_FUNCTIONS))
def test_a_letter_that_is_no_int_is_refused(name, word):
    """The ValueError of ``check_word``, which names the letter, and no
    statistic of a word read with the float as its integer."""
    bad = next(a for a in word if type(a) is not int)
    with pytest.raises(ValueError) as refused:
        public_word_functions()[name](word, *WORD_FUNCTIONS[name])
    assert re.fullmatch(rf"letter {re.escape(repr(bad))} outside alphabet \[1, \d+\]", str(refused.value))
