"""The board-free laser codec of ``shi_ish.ish`` against the rook placements.

``ish_diagram_to_rook_word``, ``rook_word_to_ish_diagram``,
``ish_diagram_to_laser_word`` and ``laser_word_to_ish_diagram`` read the two
laser constructions straight off (pi, eps).  The placements remain the
documented construction, so here they are the reference: the codec must give
the same words, the same diagrams and the same exceptions, and the word maps
of ``bijections`` built on it must equal their placement-route definitions.
"""

import itertools

import pytest

import shi_ish.bijections as bijections
import shi_ish.cli as cli
import shi_ish.ish as ish
from shi_ish.bijections import ish_diagram_to_parking, parking_to_ish_diagram
from shi_ish.core import Graph, all_graphs
from shi_ish.ish import (
    IshCeilingDiagram,
    complete_placement,
    ish_diagram_to_laser_word,
    ish_diagram_to_placement,
    ish_diagram_to_rook_word,
    ish_diagrams,
    ish_statistics,
    laser_word_to_ish_diagram,
    parking_to_placement,
    placement_laser_word,
    placement_to_ish_diagram,
    placement_to_parking,
    placement_to_rook_word,
    restrict_placement,
    rook_word_to_ish_diagram,
    rook_word_to_placement,
)
from shi_ish.parking import is_prime_parking_function, parking_functions
from shi_ish.rookwords import (
    parking_to_rook_word,
    prime_parking_to_rook_word,
    prime_rook_word_to_parking,
    rook_word_to_parking,
)


def outcome(function, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return function(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


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


#: name -> (map, inverse) by the placement route; ``freedom`` goes through
#: labeled Dyck paths and no laser, so its reference is that construction
REFERENCES = {
    "basic": (basic_reference, basic_inverse_reference),
    "dominance": (dominance_reference, dominance_inverse_reference),
    "bounded": (bounded_reference, bounded_inverse_reference),
    "freedom": (ish_diagram_to_parking, parking_to_ish_diagram),
}


@pytest.mark.parametrize("n", range(1, 7))
def test_codec_is_the_placement_route_on_every_diagram(n):
    count = 0
    for diagram in ish_diagrams(n):
        placement = ish_diagram_to_placement(diagram)
        rook_word = placement_to_rook_word(placement)
        assert ish_diagram_to_rook_word(diagram) == rook_word, diagram
        assert rook_word_to_ish_diagram(rook_word) == diagram, rook_word
        assert ish_diagram_to_laser_word(diagram) == placement_laser_word(restrict_placement(placement)), diagram
        count += 1
    for word in parking_functions(n):
        expected = placement_to_ish_diagram(complete_placement(parking_to_placement(word)))
        assert laser_word_to_ish_diagram(word) == expected, word
        count += 1
    assert count == 2 * (n + 1) ** (n - 1)


def test_laser_decode_reads_the_whole_orbit():
    n = 4
    for word in parking_functions(n):
        diagram = laser_word_to_ish_diagram(word)
        for t in range(n + 1):
            shifted = tuple((a - 1 + t) % (n + 1) + 1 for a in word)
            assert laser_word_to_ish_diagram(shifted) == diagram


def _pairs(name, graphs):
    """(map, reference) over the regions, then (inverse, reference) over the
    parking words, of every graph given; each region and word once."""
    parking, inverse = (getattr(bijections, f"{name}_{s}") for s in ("parking", "parking_inverse"))
    reference, inverse_reference = REFERENCES[name]
    regions = dict.fromkeys(d for g in graphs for d in ish_diagrams(g.n, g))
    words = dict.fromkeys(w for g in graphs for w in parking_functions(g.n, g))
    return [(parking, reference, d) for d in regions] + [(inverse, inverse_reference, w) for w in words]


@pytest.mark.parametrize("name", REFERENCES)
def test_word_maps_are_the_placement_route_on_every_graph(name):
    # every graph at n <= 4, then the complete graph at n = 5, where every
    # region of every subgraph occurs; ``bounded`` is compared on all of them,
    # the refusals of unbounded regions and non-prime words included
    graphs = [g for n in range(1, 5) for g in all_graphs(n)] + [Graph.complete(5)]
    checked = 0
    for function, reference, value in _pairs(name, graphs):
        assert outcome(function, value) == outcome(reference, value), value
        checked += 1
    assert checked == 2 * sum((n + 1) ** (n - 1) for n in range(1, 6))


def _incoherent_diagrams(n):
    """Every (pi, eps) with eps in [0, n]^n that is no Ish ceiling diagram."""
    for pi in itertools.permutations(range(1, n + 1)):
        for eps in itertools.product(range(n + 1), repeat=n):
            diagram = IshCeilingDiagram(pi, eps)
            try:
                ish.ish_ceiling_pairs(diagram)
            except ValueError:
                yield diagram


@pytest.mark.parametrize("n", (2, 3))
def test_incoherent_diagrams_raise_as_before(n):
    checked = 0
    for diagram in _incoherent_diagrams(n):
        expected = outcome(ish_diagram_to_placement, diagram)
        assert expected[0] is ValueError
        assert outcome(ish_diagram_to_rook_word, diagram) == expected
        assert outcome(ish_diagram_to_laser_word, diagram) == expected
        for name in ("basic", "dominance", "bounded"):
            assert outcome(getattr(bijections, f"{name}_parking"), diagram) == outcome(
                REFERENCES[name][0], diagram
            ), (name, diagram)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("n", (1, 2, 3))
def test_bad_words_raise_as_before(n):
    words = [(), (1.0,), ("1",), (True,)] + list(itertools.product(range(-1, n + 3), repeat=n))
    for word in words:
        assert outcome(rook_word_to_ish_diagram, word) == outcome(
            lambda w: placement_to_ish_diagram(rook_word_to_placement(w)), word
        ), word
        for name in ("basic", "dominance", "bounded"):
            function = getattr(bijections, f"{name}_parking_inverse")
            assert outcome(function, word) == outcome(REFERENCES[name][1], word), (name, word)


@pytest.mark.parametrize("word", [(), (0, 1), (1, 5, 1), (1, 2.0)])
def test_laser_decode_refuses_words_outside_the_alphabet(word):
    with pytest.raises(ValueError):
        laser_word_to_ish_diagram(word)


def test_theorem_sweeps_build_no_rook_placement(capsys, monkeypatch):
    built = []
    post_init = ish.RookPlacement.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ish.RookPlacement, "__post_init__", counting)
    for suite in ("thm-basic", "thm-dominance", "thm-bounded"):
        assert cli.main(["verify", "--n", "4", "--suite", suite]) == 0, suite
        capsys.readouterr()
    assert built == []
    # the counter is live: the placement route still builds placements
    ish_diagram_to_placement(IshCeilingDiagram((1, 2), (0, 1)))
    assert len(built) == 1
