"""Ish ceiling diagrams, rook boards, lasers, and counting."""

import itertools
import math
import random

import pytest

from shi_ish.core import Graph, all_graphs, arcs, identity_permutation, set_partitions
from shi_ish.ish import (
    IshCeilingDiagram,
    ceiling_partition_count,
    ish_ceiling_pairs,
    ish_char_poly,
    ish_region_count,
    ish_statistics,
    is_valid_ish,
    poly_add,
    poly_eval,
    poly_mul,
    rook_number,
)
from shi_ish.parking import parking_functions
from shi_ish.rookwords import rook_words

from reference import (
    Board,
    RookPlacement,
    complete_placement,
    is_maximal_placement,
    is_valid_hatted_placement,
    ish_diagram_to_placement,
    ish_diagrams,
    parking_to_placement,
    placement_laser_word,
    placement_to_ish_diagram,
    placement_to_parking,
    placement_to_rook_word,
    reference_ish_statistics,
    restrict_placement,
    rook_word_to_placement,
    stir,
)

EXAMPLE_DIAGRAM = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))


def test_diagram_validation():
    IshCeilingDiagram((2, 1), (0, 1))
    with pytest.raises(ValueError):
        IshCeilingDiagram((1, 1), (0, 0))
    with pytest.raises(ValueError):
        IshCeilingDiagram((1, 2), (0,))
    with pytest.raises(ValueError):
        IshCeilingDiagram((1, 2), (0, -1))


def test_json_roundtrip():
    assert IshCeilingDiagram.from_json(EXAMPLE_DIAGRAM.to_json()) == EXAMPLE_DIAGRAM


def test_is_valid_ish_conditions():
    k8 = Graph.complete(8)
    assert is_valid_ish(EXAMPLE_DIAGRAM, k8)
    # dots must be right of the letter 1
    assert not is_valid_ish(IshCeilingDiagram((2, 1), (1, 0)), Graph.complete(2))
    # positive eps strictly increasing
    bad = IshCeilingDiagram((3, 1, 4, 2, 5), (0, 0, 2, 0, 2))
    assert not is_valid_ish(bad, Graph.complete(5))
    # eps_i < pi_i
    assert not is_valid_ish(
        IshCeilingDiagram((3, 1, 2, 4), (0, 0, 2, 0)), Graph.complete(4)
    )
    # (eps_i, pi_i) must be an edge
    d = IshCeilingDiagram((1, 3, 2), (0, 1, 0))
    assert is_valid_ish(d, Graph(3, frozenset({(1, 3)})))
    assert not is_valid_ish(d, Graph(3, frozenset({(2, 3)})))


def test_statistics_fixture():
    stats = ish_statistics(EXAMPLE_DIAGRAM)
    assert stats.ceiling_partition == ((1, 7), (2, 3, 5, 6), (4,), (8,))
    assert stats.dof == 3
    assert stats.dominant is False
    assert stats.relatively_bounded is False
    assert ish_ceiling_pairs(EXAMPLE_DIAGRAM) == frozenset(
        {(1, 7), (2, 3), (3, 5), (5, 6)}
    )


def test_relatively_bounded_needs_first_one_and_last_dot():
    bounded = IshCeilingDiagram((1, 3, 2), (0, 0, 1))
    assert ish_statistics(bounded).relatively_bounded
    assert not ish_statistics(IshCeilingDiagram((1, 3, 2), (0, 1, 0))).relatively_bounded
    assert not ish_statistics(IshCeilingDiagram((2, 1, 3), (0, 0, 1))).relatively_bounded


def test_dof_reads_the_last_dot():
    # no dots: the identity has n degrees of freedom
    free = IshCeilingDiagram(identity_permutation(4), (0, 0, 0, 0))
    assert ish_statistics(free).dof == 4
    # dot at the last position with pi_1 = 1: one degree of freedom
    tight = IshCeilingDiagram((1, 4, 3, 2), (0, 0, 0, 1))
    assert ish_statistics(tight).dof == 1


def _holds_to_the_reference(diagrams):
    for d in diagrams:
        stats = ish_statistics(d)
        partition, dof, dominant = reference_ish_statistics(d)
        assert (stats.ceiling_partition, stats.dof, stats.dominant) == (partition, dof, dominant), d
        assert stats.relatively_bounded == (dof == 1), d


@pytest.mark.parametrize("n", range(1, 7))
def test_statistics_are_the_paper_definition_on_every_diagram(n):
    """The statistics the rook word gives are those the paper reads off
    ``(pi, eps)``, on every region of Ish(K_n)."""
    _holds_to_the_reference(ish_diagrams(n))


@pytest.mark.parametrize("n", range(1, 5))
def test_statistics_are_the_paper_definition_on_every_graph(n):
    for graph in all_graphs(n):
        _holds_to_the_reference(ish_diagrams(n, graph))


@pytest.mark.parametrize("n", range(1, 6))
def test_diagram_counts(n):
    assert sum(1 for _ in ish_diagrams(n)) == (n + 1) ** (n - 1)


def test_diagram_counts_subgraphs():
    assert sum(1 for _ in ish_diagrams(3, Graph.empty(3))) == 6
    assert sum(1 for _ in ish_diagrams(3, Graph.path(3))) == 13
    for g in all_graphs(3):
        assert sum(1 for _ in ish_diagrams(3, g)) == ish_region_count(g)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dominant_regions_are_counted_by_catalan(n):
    catalan = math.comb(2 * n, n) // (n + 1)
    assert sum(1 for d in ish_diagrams(n) if ish_statistics(d).dominant) == catalan


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relatively_bounded_count(n):
    got = sum(1 for d in ish_diagrams(n) if ish_statistics(d).relatively_bounded)
    assert got == (n - 1) ** (n - 1)


# ---------------------------------------------------------------------------
# boards and placements


def test_board_squares():
    k3 = Graph.complete(3)
    full = Board(3, True, k3)
    restricted = Board(3, False, k3)
    assert list(full.columns()) == [1, 2, 3]
    assert list(restricted.columns()) == [2, 3]
    # column i has n + i - 1 squares when every edge is present
    assert sum(1 for _ in full.squares()) == 3 + 4 + 5
    assert sum(1 for _ in restricted.squares()) == 4 + 5
    # above-bar squares need the matching edge
    bare = Board(3, False, Graph.empty(3))
    assert not bare.contains(2, 4)
    assert bare.contains(2, 3)
    assert sum(1 for _ in bare.squares()) == 3 + 3


def test_placement_validation():
    k3 = Graph.complete(3)
    board = Board(3, False, k3)
    RookPlacement(board, frozenset({(2, 1), (3, 2)}))
    with pytest.raises(ValueError):
        RookPlacement(board, frozenset({(2, 1), (3, 1)}))  # same row
    with pytest.raises(ValueError):
        RookPlacement(board, frozenset({(2, 5)}))  # off the board
    p = RookPlacement(board, frozenset({(2, 4), (3, 1)}))
    assert p.row_of(2) == 4
    with pytest.raises(KeyError):
        p.row_of(1)


def test_placement_fixture():
    placement = ish_diagram_to_placement(EXAMPLE_DIAGRAM)
    assert is_valid_hatted_placement(placement)
    assert placement.sorted_rooks() == (
        (1, 2), (2, 8), (3, 10), (4, 1), (5, 11), (6, 13), (7, 9), (8, 5),
    )
    restricted = restrict_placement(placement)
    assert is_maximal_placement(restricted)
    assert complete_placement(restricted) == placement
    assert placement_to_ish_diagram(placement) == EXAMPLE_DIAGRAM


@pytest.mark.parametrize("n", range(1, 5))
def test_placement_roundtrips(n):
    for d in ish_diagrams(n):
        placement = ish_diagram_to_placement(d)
        assert placement_to_ish_diagram(placement) == d
        assert complete_placement(restrict_placement(placement)) == placement


def test_lasers_fixture():
    restricted = restrict_placement(ish_diagram_to_placement(EXAMPLE_DIAGRAM))
    assert placement_laser_word(restricted) == (1, 8, 9, 1, 8, 9, 7, 4)
    assert placement_to_parking(restricted) == (4, 2, 3, 4, 2, 3, 1, 7)
    assert placement_to_rook_word(
        ish_diagram_to_placement(EXAMPLE_DIAGRAM)
    ) == (2, 8, 8, 1, 8, 8, 2, 5)


@pytest.mark.parametrize("n", range(1, 5))
def test_rightward_lasers_invert(n):
    for word in parking_functions(n):
        placement = parking_to_placement(word)
        assert is_maximal_placement(placement)
        assert placement_to_parking(placement) == word


@pytest.mark.parametrize("n", range(1, 5))
def test_downward_lasers_invert(n):
    for word in rook_words(n):
        placement = rook_word_to_placement(word)
        assert placement_to_rook_word(placement) == word


@pytest.mark.parametrize("n", range(2, 5))
def test_lasers_traverse_all_diagrams(n):
    """diagram -> placement -> parking function is injective onto all
    parking functions, so the two labelings agree in count."""
    words = {
        placement_to_parking(restrict_placement(ish_diagram_to_placement(d)))
        for d in ish_diagrams(n)
    }
    assert words == set(parking_functions(n))


# ---------------------------------------------------------------------------
# counting


def brute_force_placements(board, m):
    squares = list(board.squares())
    count = 0
    for chosen in itertools.combinations(squares, m):
        cols = [c for c, _ in chosen]
        rows = [r for _, r in chosen]
        if len(set(cols)) == len(cols) and len(set(rows)) == len(rows):
            count += 1
    return count


@pytest.mark.parametrize("n", [2, 3])
def test_rook_number_matches_brute_force_all_graphs(n):
    for g in all_graphs(n):
        board = Board(n, False, g)
        for m in range(n):
            assert rook_number(g, m) == brute_force_placements(board, m)


def test_rook_number_matches_brute_force_sample_n4():
    for g in [Graph.complete(4), Graph.path(4), Graph.empty(4),
              Graph(4, frozenset({(1, 4), (2, 3)}))]:
        board = Board(4, False, g)
        for m in range(4):
            assert rook_number(g, m) == brute_force_placements(board, m)


def test_stir_values():
    # Stirling partition numbers for the complete graph
    assert [stir(Graph.complete(4), k) for k in range(5)] == [0, 1, 7, 6, 1]
    # the empty graph only allows all-singleton partitions
    assert [stir(Graph.empty(3), k) for k in range(4)] == [0, 0, 0, 1]
    with pytest.raises(ValueError):
        stir(Graph.complete(3), 4)


def stir_per_k(graph, k):
    """One walk over the set partitions per block count k."""
    return sum(
        1
        for partition in set_partitions(graph.n)
        if len(partition) == k and all(e in graph.edges for e in arcs(partition))
    )


def formulas_per_k(graph):
    """Region count, rook numbers and characteristic polynomial with every
    partition count taken from :func:`stir_per_k`."""
    n = graph.n
    s = [stir_per_k(graph, k) for k in range(n + 1)]
    count = sum(s[n - k] * math.factorial(n) // math.factorial(k + 1) for k in range(n))
    rooks = [
        sum(
            s[n - k] * math.comb(n - k - 1, m - k) * math.factorial(n) // math.factorial(n - m + k)
            for k in range(m + 1)
        )
        for m in range(n)
    ]
    total = (0,)
    for k in range(n):
        term = (1,)
        for j in range(k + 1, n):
            term = poly_mul(term, (-j, 1))
        total = poly_add(total, tuple((-1) ** k * s[n - k] * c for c in term))
    return s, count, rooks, poly_mul((0, 1), total)


def seeded_graphs(n, count, seed):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(count):
        density = rng.random()
        yield Graph(n, frozenset(p for p in pairs if rng.random() < density))


@pytest.mark.parametrize(
    "graphs",
    [
        pytest.param(lambda: [g for n in range(1, 5) for g in all_graphs(n)], id="all-n<=4"),
        pytest.param(lambda: list(seeded_graphs(5, 20, seed=13)), id="seeded-n5"),
        pytest.param(lambda: list(seeded_graphs(6, 20, seed=17)), id="seeded-n6"),
    ],
)
def test_one_walk_formulas_equal_the_per_k_definition(graphs):
    for g in graphs():
        s, count, rooks, chi = formulas_per_k(g)
        assert [stir(g, k) for k in range(g.n + 1)] == s
        assert ish_region_count(g) == count
        assert [rook_number(g, m) for m in range(g.n)] == rooks
        assert ish_char_poly(g) == chi


@pytest.mark.parametrize("n", range(1, 6))
def test_region_count_complete(n):
    assert ish_region_count(Graph.complete(n)) == (n + 1) ** (n - 1)


def test_maximal_placements_equal_regions():
    """Maximal rook placements on the restricted board biject with regions."""
    for g in all_graphs(3):
        board = Board(3, False, g)
        assert brute_force_placements(board, 2) == ish_region_count(g)


def test_ceiling_partition_count_values():
    g = Graph.complete(4)
    # one block of size 2 plus singletons: k = 1, so 4!/2! = 12 regions
    assert ceiling_partition_count(g, ((1, 2), (3,), (4,))) == 12
    assert ceiling_partition_count(g, ((1,), (2,), (3,), (4,))) == 24
    with pytest.raises(ValueError):
        ceiling_partition_count(Graph.empty(4), ((1, 2), (3,), (4,)))


def test_char_poly_fixture_and_zaslavsky():
    assert ish_char_poly(Graph.complete(3)) == (0, 9, -6, 1)
    for g in all_graphs(3):
        chi = ish_char_poly(g)
        assert (-1) ** 3 * poly_eval(chi, -1) == ish_region_count(g)
        # chi is monic of degree n with zero constant term
        assert chi[-1] == 1 and chi[0] == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_char_poly_complete_graph_factors(n):
    """For the complete graph the characteristic polynomial is
    q (q - n)^(n-1)."""
    expected = (0, 1)
    for _ in range(n - 1):
        from shi_ish.ish import poly_mul

        expected = poly_mul(expected, (-n, 1))
    assert ish_char_poly(Graph.complete(n)) == expected
