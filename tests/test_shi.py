"""Shi ceiling diagrams and their statistics."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shi_ish.core import Graph, all_graphs, identity_permutation, partition_from_blocks
from shi_ish.parking import parking_functions
from shi_ish.rookwords import orbit_certificate
from shi_ish.shi import (
    ShiCeilingDiagram,
    ceiling_hyperplane_tags,
    is_valid_shi,
    parking_dof,
    parking_to_shi_diagram,
    shi_diagram_to_parking,
    shi_statistics,
)
from reference import apply_permutation, prime_components, shi_diagrams, word_to_dyck
from test_word_regions import run_under_python_O


def test_diagram_validation():
    ShiCeilingDiagram((2, 1), ((1, 2),))
    with pytest.raises(ValueError):
        ShiCeilingDiagram((1, 1), ((1, 2),))
    with pytest.raises(ValueError):
        ShiCeilingDiagram((1, 2), ((2,), (1,)))  # partition not canonical


def assert_view_is_checked_diagram(word):
    d = parking_to_shi_diagram(word)
    checked = ShiCeilingDiagram(d.pi, d.partition)
    assert d == checked and hash(d) == hash(checked), word
    assert (type(d.pi), type(d.partition)) == (tuple, tuple)
    assert all(type(block) is tuple for block in d.partition)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_diagram_view_is_the_checked_diagram(n):
    """``parking_to_shi_diagram`` skips the constructor's checks; the
    constructor must accept what it builds, as built."""
    for word in parking_functions(n):
        assert_view_is_checked_diagram(word)


def test_the_diagram_view_is_the_checked_diagram_at_n64():
    rng = random.Random(64)
    for _ in range(200):
        word = tuple(rng.randint(1, 65) for _ in range(64))
        assert_view_is_checked_diagram(orbit_certificate(word).parking)


#: (pi, partition) pairs the public constructor refuses: pi not a
#: permutation, or the partition not a canonical partition of [n]
BAD_DIAGRAMS = [
    ((1, 1), ((1, 2),)),
    ((0, 1), ((1, 2),)),
    ((1, 3), ((1, 2),)),
    ((1, 2), ((2,), (1,))),
    ((1, 2), ((2, 1),)),
    ((1, 2), ((1,),)),
    ((1, 2), ((1, 2), (2,))),
]


def test_the_constructor_still_checks_under_python_O():
    for pi, partition in BAD_DIAGRAMS:
        with pytest.raises(ValueError):
            ShiCeilingDiagram(pi, partition)
    script = (
        "from shi_ish.shi import ShiCeilingDiagram\n"
        f"for pi, partition in {BAD_DIAGRAMS!r}:\n"
        "    try:\n"
        "        ShiCeilingDiagram(pi, partition)\n"
        "    except ValueError:\n"
        "        print('raised')\n"
    )
    assert run_under_python_O(script) == "raised\n" * len(BAD_DIAGRAMS)


def test_json_roundtrip():
    d = ShiCeilingDiagram((3, 1, 2), ((1, 3), (2,)))
    assert ShiCeilingDiagram.from_json(d.to_json()) == d


@pytest.mark.parametrize(
    "data, key",
    [
        ({"pi": {"a": 1}, "partition": [[1]]}, "pi"),
        ({"pi": 5, "partition": [[1]]}, "pi"),
        ({"pi": "1", "partition": [[1]]}, "pi"),
        ({"pi": [1], "partition": 5}, "partition"),
        ({"pi": [1], "partition": [3]}, "partition"),
        ({"pi": [1], "partition": ["1"]}, "partition"),
        ({"pi": [1], "partition": {"1": [1]}}, "partition"),
        ({"pi": [1, 2], "partition": [[1], 2]}, "partition"),
    ],
    ids=repr,
)
def test_json_names_a_key_of_the_wrong_shape(data, key):
    """A ``pi`` that is no list, or a ``partition`` that is no list of
    lists, is refused by its key, as ``IshCeilingDiagram.from_json`` does:
    a dict's keys or a string's characters are never read as letters."""
    with pytest.raises(ValueError) as refused:
        ShiCeilingDiagram.from_json(data)
    assert str(refused.value) == f"{key!r} must be a list of {'lists of ' if key == 'partition' else ''}integers"


def test_is_valid_shi_conditions():
    k3 = Graph.complete(3)
    # pi must increase along blocks
    assert not is_valid_shi(ShiCeilingDiagram((1, 3, 2), ((1,), (2, 3))), k3)
    assert is_valid_shi(ShiCeilingDiagram((1, 2, 3), ((1,), (2, 3))), k3)
    # nesting partitions are rejected
    assert not is_valid_shi(
        ShiCeilingDiagram((1, 2, 3, 4), ((1, 4), (2, 3))), Graph.complete(4)
    )
    # consecutive block values must be graph edges
    g = Graph(3, frozenset({(1, 2)}))
    assert is_valid_shi(ShiCeilingDiagram((1, 2, 3), ((1, 2), (3,))), g)
    assert not is_valid_shi(ShiCeilingDiagram((1, 3, 2), ((1, 2), (3,))), g)
    # and the sizes must match
    assert not is_valid_shi(ShiCeilingDiagram((1, 2), ((1, 2),)), k3)


def test_parking_fixture():
    d = parking_to_shi_diagram((3, 2, 3, 7, 1, 2, 7, 2))
    assert d.pi == (5, 2, 1, 6, 3, 8, 4, 7)
    assert d.partition == ((1,), (2, 4, 6), (3, 5), (7, 8))
    assert shi_diagram_to_parking(d) == (3, 2, 3, 7, 1, 2, 7, 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_parking_roundtrip_everywhere(n):
    for word in parking_functions(n):
        d = parking_to_shi_diagram(word)
        assert is_valid_shi(d, Graph.complete(n))
        assert shi_diagram_to_parking(d) == word


@pytest.mark.parametrize("n", range(1, 6))
def test_diagram_counts(n):
    assert sum(1 for _ in shi_diagrams(n)) == (n + 1) ** (n - 1)


def test_diagram_counts_subgraphs():
    # the empty graph leaves only the Coxeter regions: n! of them
    assert sum(1 for _ in shi_diagrams(3, Graph.empty(3))) == 6
    assert sum(1 for _ in shi_diagrams(3, Graph.path(3))) == 13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dominant_regions_are_counted_by_catalan(n):
    catalan = math.comb(2 * n, n) // (n + 1)
    dominant = [d for d in shi_diagrams(n) if shi_statistics(d).dominant]
    assert len(dominant) == catalan
    assert all(d.pi == identity_permutation(n) for d in dominant)


def test_statistics_fixture():
    d = ShiCeilingDiagram(
        (5, 2, 1, 6, 3, 8, 4, 7), ((1,), (2, 4, 6), (3, 5), (7, 8))
    )
    stats = shi_statistics(d)
    assert stats.ceiling_partition == ((1, 3), (2, 6, 8), (4, 7), (5,))
    # components of the partition: {1}, {2..6}, {7, 8}
    assert stats.dof == 3
    assert stats.dominant is False


def test_ceiling_tags_follow_the_arcs():
    d = ShiCeilingDiagram(
        (5, 2, 1, 6, 3, 8, 4, 7), ((1,), (2, 4, 6), (3, 5), (7, 8))
    )
    assert ceiling_hyperplane_tags(d) == frozenset(
        {(2, 6), (6, 8), (1, 3), (4, 7)}
    )
    no_ceilings = ShiCeilingDiagram((2, 1), ((1,), (2,)))
    assert ceiling_hyperplane_tags(no_ceilings) == frozenset()


@pytest.mark.parametrize("n", range(1, 5))
def test_statistics_match_word_side_definitions(n):
    """dof = number of distinct letter runs read off the word, ceiling
    partition = positions grouped by block minima pushed through pi."""
    for word in parking_functions(n):
        d = parking_to_shi_diagram(word)
        stats = shi_statistics(d)
        assert stats.ceiling_partition == apply_permutation(d.pi, d.partition)
        assert 1 <= stats.dof <= n
        assert stats.dominant == (d.pi == identity_permutation(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_diagonal_touches_count_the_prime_components(n):
    """``parking_dof`` counts diagonal touches; the labeled Dyck path of the
    word has one prime component per touch."""
    for word in parking_functions(n):
        assert parking_dof(word) == len(prime_components(word_to_dyck(word))), word


@given(st.sampled_from(sorted(parking_functions(4))))
def test_ceiling_partition_blocks_carry_the_letters(word):
    """Each ceiling-partition block is the set of positions holding one
    letter value of the parking function."""
    d = parking_to_shi_diagram(word)
    cp = shi_statistics(d).ceiling_partition
    by_letter = partition_from_blocks(
        [i for i, a in enumerate(word, start=1) if a == v]
        for v in set(word)
    )
    assert cp == by_letter


def test_subgraph_diagrams_are_valid_for_their_graph():
    for g in all_graphs(3):
        for d in shi_diagrams(3, g):
            assert is_valid_shi(d, g)
