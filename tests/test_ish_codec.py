"""The board-free laser codec of ``shi_ish.ish`` against the rook placements.

``ish_diagram_to_rook_word``, ``rook_word_to_ish_diagram``,
``ish_diagram_to_laser_word`` and ``laser_word_to_ish_diagram`` read the two
laser constructions straight off (pi, eps).  The placements remain the
documented construction, so here they are the reference: the codec must give
the same words, the same diagrams and the same exceptions, and the word maps
of ``bijections`` built on it must equal their placement-route definitions.
"""

import itertools
import json
import sys
from collections import Counter

import pytest

import shi_ish.bijections as bijections
import shi_ish.cli as cli
import shi_ish.ish as ish
import shi_ish.parking as parking
import shi_ish.rookwords as rookwords
import shi_ish.shi as shi
import shi_ish.verify as verify
from shi_ish.core import Graph, all_graphs, is_nonnesting, position_partition
from shi_ish.ish import IshCeilingDiagram, ish_statistics
from shi_ish.parking import parking_functions
from shi_ish.rookwords import is_prime_rook_word, is_rook_word, tail_and_dof

from reference import (
    RookPlacement,
    complete_placement,
    ish_diagram_to_laser_word,
    ish_diagram_to_placement,
    ish_diagram_to_rook_word,
    ish_diagrams,
    laser_word_to_ish_diagram,
    parking_to_placement,
    placement_laser_word,
    placement_to_ish_diagram,
    placement_to_rook_word,
    restrict_placement,
    rook_word_to_ish_diagram,
    rook_word_to_placement,
)
from codec_routes import REFERENCES, codec_views


def outcome(function, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return function(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


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
    parking, inverse = codec_views(name)
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
            assert outcome(codec_views(name)[0], diagram) == outcome(
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
            function = codec_views(name)[1]
            assert outcome(function, word) == outcome(REFERENCES[name][1], word), (name, word)


@pytest.mark.parametrize("word", [(), (0, 1), (1, 5, 1), (1, 2.0)])
def test_laser_decode_refuses_words_outside_the_alphabet(word):
    with pytest.raises(ValueError):
        laser_word_to_ish_diagram(word)


def test_theorem_sweeps_build_no_rook_placement(capsys, monkeypatch):
    built = []
    post_init = RookPlacement.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RookPlacement, "__post_init__", counting)
    for suite in ("thm-basic", "thm-dominance", "thm-bounded"):
        assert cli.main(["verify", "--n", "4", "--suite", suite]) == 0, suite
        capsys.readouterr()
    assert built == []
    # the counter is live: the placement route still builds placements
    ish_diagram_to_placement(IshCeilingDiagram((1, 2), (0, 1)))
    assert len(built) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_the_rook_word_carries_every_statistic(n):
    """On every region of Ish(K_n), w = ish_diagram_to_rook_word(d) gives the
    statistics: the ceiling partition is the position partition of w, the
    degrees of freedom are those of :func:`tail_and_dof`, and pi is the
    identity exactly when the position partition is nonnesting and each of
    its blocks holds its own minimum at its first position, the rule of
    :func:`shi_ish.shi.shi_word_statistics`."""
    dominant = 0
    for diagram in ish_diagrams(n):
        word = ish_diagram_to_rook_word(diagram)
        partition = position_partition(word)
        stats = ish_statistics(diagram)
        assert stats.ceiling_partition == partition, diagram
        assert stats.dof == tail_and_dof(word)[1], diagram
        rule = is_nonnesting(partition) and all(word[block[0] - 1] == block[0] for block in partition)
        assert stats.dominant == rule, diagram
        dominant += rule
    # the dominant regions are counted by the Catalan numbers
    assert dominant == [1, 2, 5, 14, 42, 132][n - 1]


def count_calls(monkeypatch, *functions):
    """Count the calls of each function, patched wherever a ``shi_ish``
    module binds it.  Returns the counter, keyed by function name."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name == "shi_ish" or name.startswith("shi_ish.")]
    for function in functions:

        def counting(*args, _function=function, **kwargs):
            calls[_function.__name__] += 1
            return _function(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("name", ["dominance", "bounded"])
def test_each_rook_word_is_checked_once_per_direction(name, monkeypatch):
    """Encoding a region checks its rook word once, by the orbit
    certificate's substitution; decoding checks the certificate's rook
    member once and does not check it again.  The certificate substitutes
    into the predicates' float-free cores (``_rook_dof``, or
    ``_is_prime_rook`` for a prime orbit), never the predicates."""
    parking, inverse = codec_views(name)
    regions = [d for d in ish_diagrams(4) if name == "dominance" or ish_statistics(d).relatively_bounded]
    core = rookwords._rook_dof if name == "dominance" else rookwords._is_prime_rook
    calls = count_calls(monkeypatch, is_rook_word, is_prime_rook_word, core)
    for diagram in regions:
        assert inverse(parking(diagram)) == diagram
    assert len(regions) == {"dominance": 125, "bounded": 27}[name]
    assert calls == {core.__name__: 2 * len(regions)}, calls


def test_freedom_checks_each_region_once(capsys, monkeypatch):
    """``verify --suite thm-freedom`` checks each region once per suite,
    however many of its graphs hold it: it reads the region's statistics off
    its rook word, never through ``ish_statistics``, and runs each word map
    once.  The suites call the word maps through ``verify``'s tables, which
    hold the functions themselves, so the counters go there too."""
    calls = count_calls(
        monkeypatch,
        ish.ish_statistics,
        ish._rook_word_statistics,
        bijections.freedom_rook_to_parking,
        bijections.freedom_parking_to_rook,
    )
    monkeypatch.setitem(verify._PARKING_MAPS, "freedom", bijections.freedom_rook_to_parking)
    monkeypatch.setitem(verify._INVERSES, "freedom", bijections.freedom_parking_to_rook)
    assert cli.main(["verify", "--n", "4", "--suite", "thm-freedom"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["regions_checked"] == 4296
    regions = sum(1 for _ in ish_diagrams(4))
    assert regions == 125
    assert calls == {
        "_rook_word_statistics": regions,
        "freedom_rook_to_parking": regions,
        "freedom_parking_to_rook": regions,
    }
    assert calls["ish_statistics"] == 0


def test_bounded_computes_statistics_only_to_filter_and_compare(capsys, monkeypatch):
    """``thm-bounded`` reads each region's statistics off its rook word once
    per suite, to keep the relatively bounded ones; the ``freedom`` map it
    is compared with and ``bounded_rook_to_parking`` read the degrees of
    freedom off the word themselves.  Every graph's regions are regions of
    K_n."""
    regions = list(ish_diagrams(4))
    bounded = sum(1 for d in regions if ish_statistics(d).relatively_bounded)
    calls = count_calls(monkeypatch, ish.ish_statistics, ish._rook_word_statistics)
    assert cli.main(["verify", "--n", "4", "--suite", "thm-bounded"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["graphs"] == 64
    assert (len(regions), bounded) == (125, 27)
    assert calls["ish_statistics"] == 0
    assert calls["_rook_word_statistics"] == len(regions)


def test_bounded_reads_only_the_dof_of_its_targets(capsys, monkeypatch):
    """``thm-bounded`` keeps the relatively bounded parking words of each
    graph by their diagonal touches alone: one ``parking_dof`` per word and
    no ``shi_word_statistics``.  Each bounded region's image is checked once
    per suite by ``_word_statistics``, the float-free core of
    ``region_word_statistics``, which reads the same count off its scan:
    ``_diagonal_touches`` runs once per word and once per image."""
    words = sum(1 for graph in all_graphs(4) for _ in parking_functions(4, graph))
    calls = count_calls(
        monkeypatch,
        shi.shi_word_statistics,
        shi._word_statistics,
        shi.parking_dof,
        parking._diagonal_touches,
    )
    assert cli.main(["verify", "--n", "4", "--suite", "thm-bounded"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["graphs"] == 64
    assert calls["shi_word_statistics"] == 0
    assert calls["_word_statistics"] == 27  # the relatively bounded regions of K_4
    assert calls["parking_dof"] == words
    assert calls["_diagonal_touches"] == words + 27
