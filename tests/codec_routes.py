"""Two routes between Ish regions and parking words, shared by the tests.

``codec_views(name)`` runs a bijection's word maps through the Ish codec, as
``{name}_bijection`` and its inverse do without the Shi diagrams.
``REFERENCES[name]`` runs the same maps through rook placements, the
documented construction, so the two routes check each other.
"""

import shi_ish.bijections as bijections
from shi_ish.ish import (
    _decode_rook_word,
    _encode_rook_word,
    complete_placement,
    ish_diagram_to_placement,
    ish_statistics,
    parking_to_placement,
    placement_to_ish_diagram,
    placement_to_parking,
    placement_to_rook_word,
    restrict_placement,
    rook_word_to_placement,
)
from shi_ish.parking import is_prime_parking_function
from shi_ish.rookwords import (
    parking_to_rook_word,
    prime_parking_to_rook_word,
    prime_rook_word_to_parking,
    rook_word_to_parking,
)

import freedom_reference as freedom


def codec_views(name):
    """The word map after ``_encode_rook_word``, and ``_decode_rook_word``
    after the inverse word map.  ``{name}_bijection`` and its inverse run
    the same composition around Shi diagrams, except that ``basic_bijection``
    runs the unchecked ``_basic_rook_to_parking`` where this runs
    ``basic_rook_to_parking``."""
    forward, backward = (getattr(bijections, f"{name}_{s}") for s in ("rook_to_parking", "parking_to_rook"))
    return (lambda diagram: forward(_encode_rook_word(diagram)),
            lambda word: _decode_rook_word(backward(word)))


# the word maps as they were defined through rook placements


def basic_reference(diagram):
    return placement_to_parking(restrict_placement(ish_diagram_to_placement(diagram)))


def basic_inverse_reference(word):
    return placement_to_ish_diagram(complete_placement(parking_to_placement(word)))


def dominance_reference(diagram):
    return rook_word_to_parking(placement_to_rook_word(ish_diagram_to_placement(diagram)))


def dominance_inverse_reference(word):
    return placement_to_ish_diagram(rook_word_to_placement(parking_to_rook_word(word)))


def bounded_reference(diagram):
    if not ish_statistics(diagram).relatively_bounded:
        raise ValueError("input region is not relatively bounded")
    return prime_rook_word_to_parking(placement_to_rook_word(ish_diagram_to_placement(diagram)))


def bounded_inverse_reference(word):
    if not is_prime_parking_function(word):
        raise ValueError("input region is not relatively bounded")
    return placement_to_ish_diagram(rook_word_to_placement(prime_parking_to_rook_word(word)))


# ``freedom`` goes through labeled Dyck paths and no laser; the reference
# runs the label-level construction of ``freedom_reference`` on rook words
# read off the placements instead of the codec


def freedom_reference(diagram):
    return freedom.rook_to_parking(placement_to_rook_word(ish_diagram_to_placement(diagram)))


def freedom_inverse_reference(word):
    return placement_to_ish_diagram(rook_word_to_placement(freedom.parking_to_rook(word)))


#: name -> (map, inverse) by the placement route
REFERENCES = {
    "basic": (basic_reference, basic_inverse_reference),
    "dominance": (dominance_reference, dominance_inverse_reference),
    "bounded": (bounded_reference, bounded_inverse_reference),
    "freedom": (freedom_reference, freedom_inverse_reference),
}
