"""Shi regions as parking words and Ish regions as rook words: the
prefix-pruned generators, the word-native statistics and the per-word check
of the region stream.

Every generator is compared, as a list and so in order, with the filter of
its defining predicate over ``itertools.product``; the word statistics with
the statistics read off the diagram the old way.  The one scan that checks
a word and gives its statistics is compared with the definitions it
replaced, written out here.
"""

import itertools
import operator
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shi_ish import geometry
from shi_ish.core import (
    Graph,
    RegionStatistics,
    all_graphs,
    arcs,
    identity_permutation,
    is_nonnesting,
    partition_from_blocks,
    position_partition,
    set_partitions,
)
from shi_ish.geometry import diagram_statistics
from shi_ish.ish import _decode_rook_word, ish_statistics, region_rook_word_statistics
from shi_ish.parking import (
    is_parking_function,
    is_prime_parking_function,
    parking_functions,
    prime_parking_functions,
)
from shi_ish.rookwords import is_prime_rook_word, is_rook_word, prime_rook_words, rook_words, tail_and_dof
from shi_ish.shi import (
    parking_dof,
    parking_to_shi_diagram,
    region_word_statistics,
    shi_statistics,
    shi_word_statistics,
)

from reference import connected_components, ish_diagram_to_rook_word, ish_diagrams, rook_word_to_ish_diagram

SRC = Path(__file__).resolve().parents[1] / "src"


def filtered_parking_functions(n, graph=None):
    """The n^n filter the generator replaces, kept as its reference."""
    for word in itertools.product(range(1, n + 1), repeat=n):
        if not is_parking_function(word):
            continue
        if graph is not None:
            if any(e not in graph.edges for e in arcs(position_partition(word))):
                continue
        yield word


def seeded_graphs(n, count, seed):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(count):
        density = rng.random()
        yield Graph(n, frozenset(p for p in pairs if rng.random() < density))


def diagram_side_statistics(diagram):
    """Statistics read off a coherent diagram: its partition carried along
    pi, the connected components of its partition, and pi = identity."""
    return RegionStatistics(
        ceiling_partition=partition_from_blocks(
            [diagram.pi[b - 1] for b in block] for block in diagram.partition
        ),
        dof=len(connected_components(diagram.partition)),
        dominant=diagram.pi == identity_permutation(diagram.n),
    )


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("n", range(1, 5))
def test_graph_parking_functions_match_the_filter_on_every_graph(n):
    for graph in all_graphs(n):
        assert list(parking_functions(n, graph)) == list(filtered_parking_functions(n, graph))


def test_graph_parking_functions_match_the_filter_on_seeded_graphs():
    graphs = list(seeded_graphs(5, 60, seed=5))
    assert len({g.edges for g in graphs}) > 40
    for graph in graphs:
        assert list(parking_functions(5, graph)) == list(filtered_parking_functions(5, graph))


@pytest.mark.parametrize("make", [Graph.complete, Graph.path, Graph.empty, None])
def test_parking_functions_match_the_filter_at_six(make):
    graph = None if make is None else make(6)
    assert list(parking_functions(6, graph)) == list(filtered_parking_functions(6, graph))


@pytest.mark.parametrize("n", range(1, 6))
def test_graph_rook_words_match_the_filter_on_every_graph(n):
    words = [(word, set(arcs(position_partition(word)))) for word in rook_words(n)]
    for graph in all_graphs(n):
        assert list(rook_words(n, graph)) == [word for word, pairs in words if pairs <= graph.edges]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize(
    "generate, predicate, alphabet",
    [
        (prime_parking_functions, is_prime_parking_function, lambda n: max(1, n - 1)),
        (rook_words, is_rook_word, lambda n: n),
        (prime_rook_words, is_prime_rook_word, lambda n: max(1, n - 1)),
    ],
    ids=["prime_parking_functions", "rook_words", "prime_rook_words"],
)
def test_word_generators_match_their_filters(n, generate, predicate, alphabet):
    words = itertools.product(range(1, alphabet(n) + 1), repeat=n)
    assert list(generate(n)) == [w for w in words if predicate(w)]


# ---------------------------------------------------------------------------
# nonnesting


def pairwise_nonnesting(partition):
    return not any(
        a < b and c < d for (a, d), (b, c) in itertools.permutations(arcs(partition), 2)
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_nonnesting_matches_the_pairwise_definition(n):
    for partition in set_partitions(n):
        assert is_nonnesting(partition) == pairwise_nonnesting(partition)


# ---------------------------------------------------------------------------
# word statistics


@pytest.mark.parametrize("n", range(1, 7))
def test_word_statistics_match_the_diagram_statistics(n):
    for word in parking_functions(n):
        diagram = parking_to_shi_diagram(word)
        stats = shi_word_statistics(word)
        assert stats == shi_statistics(diagram) == diagram_side_statistics(diagram), word


@pytest.mark.parametrize("word", [(), (0,), (2, 2), (1, 3, 3), (1, 4, 1)])
def test_word_statistics_refuse_non_parking_words(word):
    with pytest.raises(ValueError):
        shi_word_statistics(word)


@pytest.mark.parametrize("n", range(1, 4))
def test_region_words_are_the_filtered_parking_functions(n):
    """A word labels a region of Shi(G) exactly when the filter keeps it;
    words of the wrong length label none."""
    for graph in all_graphs(n):
        regions = set(filtered_parking_functions(n, graph))
        for length in (n - 1, n, n + 1):
            for word in itertools.product(range(n + 2), repeat=length):
                stats = region_word_statistics(word, graph)
                assert (stats is not None) == (word in regions), (graph, word)
                if stats is not None:
                    assert stats == shi_word_statistics(word)


def ish_reference(n, graph):
    """The regions of Ish(G) the old way: every diagram with the statistics
    read off its (pi, eps), keyed by the diagram's rook word."""
    return {ish_diagram_to_rook_word(d): ish_statistics(d) for d in ish_diagrams(n, graph)}


@pytest.mark.parametrize("make", [Graph.complete, Graph.path, Graph.empty])
@pytest.mark.parametrize("n", range(1, 5))
def test_region_rook_words_are_the_encoded_diagrams(n, make):
    """A word labels a region of Ish(G) exactly when it is the rook word of
    one of its diagrams, and then its statistics are that diagram's; words
    of the wrong length label none."""
    graph = make(n)
    regions = set(ish_reference(n, graph))
    for length in (n - 1, n, n + 1):
        for word in itertools.product(range(n + 2), repeat=length):
            stats = region_rook_word_statistics(word, graph)
            assert (stats is not None) == (word in regions), (graph, word)
            if stats is not None:
                assert stats == ish_statistics(rook_word_to_ish_diagram(word)), word


# ---------------------------------------------------------------------------
# the one scan against the definitions it replaced


def reference_scan(word, edges):
    """The position partition and dominance rule of a word, None on an arc
    outside ``edges``: the scan as it was, returning the partition."""
    blocks = {}
    dominant = True
    left = 0
    for pos, letter in enumerate(word, start=1):
        block = blocks.get(letter)
        if block is None:
            blocks[letter] = [pos]
            dominant = dominant and letter == pos
            continue
        before = block[-1]
        if edges is not None and (before, pos) not in edges:
            return None
        dominant = dominant and before > left
        left = before
        block.append(pos)
    return tuple(map(tuple, blocks.values())), dominant


def reference_parking_dof(word):
    """The sorted-letters parking test, a_i <= i, and its touches a_i = i;
    None unless a parking function."""
    letters = sorted(word)
    bounds = range(1, len(letters) + 1)
    if not letters or letters[0] < 1 or any(map(operator.gt, letters, bounds)):
        return None
    return sum(map(operator.eq, letters, bounds))


def reference_rook_dof(word):
    """The set-based rook test with its tail; None unless a rook word."""
    n = len(word)
    if n == 0:
        return None
    present = set(word)
    first = word[0]
    if min(present) < 1 or max(present) > n or not present.issuperset(range(1, first + 1)):
        return None
    j = n + 1  # the tail is [j, n]
    while j - 1 > first and j - 1 in present:
        j -= 1
    return first + n + 1 - j


def reference_statistics(word, graph, dof_of, make):
    if len(word) != graph.n:
        return None
    dof = dof_of(word)
    scan = None if dof is None else reference_scan(word, graph.edges)
    return None if scan is None else make(scan[0], dof, scan[1])


def reference_shi(word, graph):
    return reference_statistics(word, graph, reference_parking_dof, RegionStatistics)


def reference_ish(word, graph):
    return reference_statistics(word, graph, reference_rook_dof, RegionStatistics)


@pytest.mark.parametrize("n", range(1, 6))
def test_the_one_scan_matches_the_definitions_it_replaced(n):
    """Every word of [0, n+1]^n, on K_n, the path and the empty graph (and
    on every graph for n <= 3): the same Nones and the same statistics as
    the sorted parking test, the set-based rook test and the old scan.  The
    parking and rook predicates and dofs agree with them on every word."""
    graphs = list(all_graphs(n)) if n <= 3 else [Graph.complete(n), Graph.path(n), Graph.empty(n)]
    kept = {"shi": 0, "ish": 0}
    for word in itertools.product(range(n + 2), repeat=n):
        park, rook = reference_parking_dof(word), reference_rook_dof(word)
        assert is_parking_function(word) == (park is not None), word
        assert is_rook_word(word) == (rook is not None), word
        if park is not None:
            assert parking_dof(word) == park, word
        if rook is not None:
            assert tail_and_dof(word)[1] == rook, word
        for graph in graphs:
            shi_stats = region_word_statistics(word, graph)
            assert shi_stats == reference_shi(word, graph), (word, graph)
            ish_stats = region_rook_word_statistics(word, graph)
            assert ish_stats == reference_ish(word, graph), (word, graph)
            kept["shi"] += shi_stats is not None
            kept["ish"] += ish_stats is not None
    # both arrangements of each graph have the same number of regions
    assert kept["shi"] == kept["ish"] == sum(sum(1 for _ in parking_functions(n, g)) for g in graphs)


REFUSED_LETTERS = [(1, 2, 1.5), (1.0, 2, 1), (1, 2, 1.0), (1, "a", 1), (1, None, 1), (1.5,), (2, 1.0, 1, 1)]


@pytest.mark.parametrize("word", REFUSED_LETTERS)
@pytest.mark.parametrize(
    "statistics, predicate",
    [(region_word_statistics, is_parking_function), (region_rook_word_statistics, is_rook_word)],
    ids=["shi", "ish"],
)
def test_the_region_statistics_refuse_what_the_predicates_refuse(word, statistics, predicate):
    """A letter that is not an int, whatever the length of the word, raises
    the ValueError of ``check_word`` that the word's predicate raises, and
    is never read as a letter."""
    with pytest.raises(ValueError) as refused:
        predicate(word)
    with pytest.raises(ValueError) as also:
        statistics(word, Graph.complete(3))
    assert str(also.value) == str(refused.value)
    assert "outside alphabet" in str(also.value)


# ---------------------------------------------------------------------------
# the region streams


def test_shi_regions_stream_as_words():
    graph = Graph.path(4)
    streamed = list(diagram_statistics("shi", 4, graph))
    assert [word for word, _ in streamed] == list(filtered_parking_functions(4, graph))
    assert all(stats == shi_word_statistics(word) for word, stats in streamed)


@pytest.mark.parametrize(
    "graph, bad",
    [
        (Graph.complete(3), (2, 2, 3)),  # not a parking function
        (Graph.path(3), (1, 2, 1)),  # arc (1, 3) is not an edge
    ],
)
def test_a_word_that_fails_the_check_raises(monkeypatch, graph, bad):
    def generator(n, g):
        yield from parking_functions(n, g)
        yield bad

    monkeypatch.setattr(geometry, "parking_functions", generator)
    with pytest.raises(AssertionError, match=re.escape(repr(bad))):
        for _ in diagram_statistics("shi", graph.n, graph):
            pass


@pytest.mark.parametrize("n", range(1, 7))
def test_ish_regions_stream_as_rook_words(n):
    """The stream holds the rook words of the diagrams, once each and in
    lexicographic order, with the diagrams' statistics: on every graph for
    n <= 4, on the complete graph for n = 5 and 6."""
    for graph in all_graphs(n) if n <= 4 else [Graph.complete(n)]:
        streamed = list(diagram_statistics("ish", n, graph))
        words = [word for word, _ in streamed]
        assert words == sorted(words)
        reference = ish_reference(n, graph)
        assert len(streamed) == len(reference)
        assert dict(streamed) == reference


ISH_BAD_WORDS = [
    (Graph.complete(3), (2, 2, 3)),  # not a rook word: the value 1 never occurs
    (Graph.path(3), (1, 2, 1)),  # arc (1, 3) is not an edge
]


@pytest.mark.parametrize("graph, bad", ISH_BAD_WORDS)
def test_an_ish_word_that_fails_the_check_raises(monkeypatch, graph, bad):
    def generator(n, g):
        yield from rook_words(n, g)
        yield bad

    monkeypatch.setattr(geometry, "rook_words", generator)
    with pytest.raises(AssertionError, match=re.escape(repr(bad))):
        for _ in diagram_statistics("ish", graph.n, graph):
            pass


def run_under_python_O(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout


@pytest.mark.parametrize("graph, bad", ISH_BAD_WORDS)
def test_the_ish_word_check_survives_python_O(graph, bad):
    script = (
        "from shi_ish import geometry\n"
        "from shi_ish.core import Graph\n"
        f"geometry.rook_words = lambda n, g: iter([{bad!r}])\n"
        "try:\n"
        f"    list(geometry.diagram_statistics('ish', 3, Graph({graph.n}, frozenset({sorted(graph.edges)!r}))))\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    assert run_under_python_O(script) == "raised\n"


def test_the_word_check_survives_python_O():
    script = (
        "from shi_ish import geometry\n"
        "from shi_ish.core import Graph\n"
        "geometry.parking_functions = lambda n, g: iter([(1, 2, 1)])\n"
        "try:\n"
        "    list(geometry.diagram_statistics('shi', 3, Graph.path(3)))\n"
        "except AssertionError:\n"
        "    print('raised')\n"
    )
    assert run_under_python_O(script) == "raised\n"


def test_the_ish_decode_survives_python_O():
    """A word that decodes to an incoherent diagram raises ValueError in
    ``_decode_rook_word``, which builds the diagram without the
    constructor's checks, with or without ``python -O``."""
    with pytest.raises(ValueError, match="is not an Ish ceiling diagram"):
        _decode_rook_word((2, 2, 2))
    script = (
        "from shi_ish.ish import _decode_rook_word\n"
        "try:\n"
        "    _decode_rook_word((2, 2, 2))\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    assert run_under_python_O(script) == "raised\n"
