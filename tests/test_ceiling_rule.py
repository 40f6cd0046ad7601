"""One ceiling reader per arrangement.

A diagram is a region of Shi(G) or Ish(G) exactly when it is coherent and
every ceiling is an edge of G.  These tests restate the diagram conditions by
brute force, compare them with ``is_valid_shi`` / ``is_valid_ish`` on every
small diagram (incoherent ones included), and check that coherence is decided
without building a complete graph.
"""

import itertools

import pytest

from shi_ish.core import Graph, all_graphs, arcs, set_partitions
from shi_ish.ish import IshCeilingDiagram, ish_ceiling_pairs, ish_statistics, is_valid_ish
from shi_ish.shi import (
    ShiCeilingDiagram,
    ceiling_hyperplane_tags,
    is_valid_shi,
    shi_diagram_to_parking,
    shi_statistics,
)

from reference import ish_diagram_to_placement, ish_diagrams, shi_diagrams


def brute_valid_shi(diagram, graph):
    """The Shi diagram conditions, stated directly: the partition is
    nonnesting, pi increases along every block, and consecutive pi-values in
    a block are joined by edges."""
    if graph.n != diagram.n:
        return False
    block_arcs = [(a, b) for block in diagram.partition for a, b in zip(block, block[1:])]
    for (a, d), (b, c) in itertools.product(block_arcs, repeat=2):
        if a < b < c < d:
            return False
    for block in diagram.partition:
        values = [diagram.pi[x - 1] for x in block]
        for u, v in zip(values, values[1:]):
            if not (u < v and (u, v) in graph.edges):
                return False
    return True


def brute_valid_ish(diagram, graph):
    """The Ish diagram conditions, stated directly: every dotted position
    lies right of the letter 1, dot counts increase strictly from left to
    right, and each dot count e at letter p has e < p with (e, p) an edge."""
    if graph.n != diagram.n:
        return False
    one_at = diagram.pi.index(1) + 1
    dots = [(i, e, p) for i, (p, e) in enumerate(zip(diagram.pi, diagram.eps), 1) if e]
    if any(i <= one_at or e >= p or (e, p) not in graph.edges for i, e, p in dots):
        return False
    return all(e1 < e2 for (_, e1, _), (_, e2, _) in zip(dots, dots[1:]))


def every_shi_diagram(n):
    for pi in itertools.permutations(range(1, n + 1)):
        for partition in set_partitions(n):
            yield ShiCeilingDiagram(pi, partition)


def every_ish_diagram(n):
    for pi in itertools.permutations(range(1, n + 1)):
        for eps in itertools.product(range(n), repeat=n):
            yield IshCeilingDiagram(pi, eps)


def raises_value_error(function, diagram):
    try:
        function(diagram)
    except ValueError:
        return True
    return False


SHI_DIAGRAMS = {n: list(every_shi_diagram(n)) for n in range(1, 5)}
ISH_DIAGRAMS = {n: list(every_ish_diagram(n)) for n in range(1, 5)}


def ish_graphs(n):
    return list(all_graphs(n)) if n <= 3 else [Graph.complete(n), Graph.path(n), Graph.empty(n)]


@pytest.mark.parametrize("n", range(1, 5))
def test_is_valid_shi_is_the_diagram_conditions(n):
    graphs = list(all_graphs(n)) + [Graph.complete(n + 1)]
    for diagram in SHI_DIAGRAMS[n]:
        for graph in graphs:
            assert is_valid_shi(diagram, graph) == brute_valid_shi(diagram, graph), (diagram, graph)


@pytest.mark.parametrize("n", range(1, 5))
def test_is_valid_ish_is_the_diagram_conditions(n):
    graphs = ish_graphs(n) + [Graph.complete(n + 1)]
    for diagram in ISH_DIAGRAMS[n]:
        for graph in graphs:
            assert is_valid_ish(diagram, graph) == brute_valid_ish(diagram, graph), (diagram, graph)


@pytest.mark.parametrize("n", range(1, 5))
def test_shi_readers_raise_exactly_on_incoherent_diagrams(n):
    complete = Graph.complete(n)
    incoherent = 0
    for diagram in SHI_DIAGRAMS[n]:
        coherent = brute_valid_shi(diagram, complete)
        incoherent += not coherent
        for function in (ceiling_hyperplane_tags, shi_statistics, shi_diagram_to_parking):
            assert raises_value_error(function, diagram) == (not coherent), (function, diagram)
    assert incoherent > 0 or n < 3


@pytest.mark.parametrize("n", range(1, 5))
def test_ish_readers_raise_exactly_on_incoherent_diagrams(n):
    complete = Graph.complete(n)
    incoherent = 0
    for diagram in ISH_DIAGRAMS[n]:
        coherent = brute_valid_ish(diagram, complete)
        incoherent += not coherent
        for function in (ish_ceiling_pairs, ish_statistics, ish_diagram_to_placement):
            assert raises_value_error(function, diagram) == (not coherent), (function, diagram)
    assert incoherent > 0 or n < 2


def regions():
    """Every region of Shi(G) and Ish(G) for n <= 4 on every graph, and for
    n = 5 on the complete graph, with its graph and ceiling reader."""
    graphs = [g for n in range(1, 5) for g in all_graphs(n)] + [Graph.complete(5)]
    for graph in graphs:
        for diagram in shi_diagrams(graph.n, graph):
            yield graph, diagram, ceiling_hyperplane_tags, shi_statistics
        for diagram in ish_diagrams(graph.n, graph):
            yield graph, diagram, ish_ceiling_pairs, ish_statistics


def test_ceilings_are_the_arcs_of_the_ceiling_partition():
    count = 0
    for graph, diagram, ceilings, statistics in regions():
        tags = ceilings(diagram)
        assert tags == frozenset(arcs(statistics(diagram).ceiling_partition)), diagram
        assert tags <= graph.edges
        count += 1
    assert count == 11368


def test_coherence_needs_no_complete_graph(monkeypatch):
    diagrams = [d for n in range(1, 5) for d in SHI_DIAGRAMS[n] + ISH_DIAGRAMS[n]]
    graphs = {n: ish_graphs(n) for n in range(1, 5)}

    def refuse(cls, n):
        raise AssertionError(f"Graph.complete({n}) called")

    monkeypatch.setattr(Graph, "complete", classmethod(refuse))
    for diagram in diagrams:
        if isinstance(diagram, ShiCeilingDiagram):
            readers = (ceiling_hyperplane_tags, shi_statistics, shi_diagram_to_parking)
            valid = is_valid_shi
        else:
            readers = (ish_ceiling_pairs, ish_statistics)
            valid = is_valid_ish
        for reader in readers:
            raises_value_error(reader, diagram)
        for graph in graphs[diagram.n]:
            valid(diagram, graph)
