"""The theorem sweeps in the word domain, and partitions canonical by
construction.

``cli._theorem_run`` maps the rook word of each Ish region straight to the
parking word of its Shi image and back, and reads validity and statistics
off the words; the targets are the parking words of G.  The diagram-domain
run it replaced, through
``bijections.{name}_bijection`` and its inverse, is kept here as its
reference, and both must return the same ``(detail, count, counts)``, with
the per-region facts shared across a sweep's graphs or computed afresh.  The
two partition functions of ``core`` skip ``partition_from_blocks``, so each
is compared with the canonicalized result on every input of small size.
"""

import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import shi_ish.bijections as bijections
import shi_ish.cli as cli
from shi_ish.core import (
    Graph,
    all_graphs,
    inverse_permutation,
    partition_from_blocks,
    partition_from_pairs,
    position_partition,
)
from shi_ish.ish import ish_statistics, rook_word_to_ish_diagram
from shi_ish.rookwords import rook_words
from shi_ish.shi import (
    ShiCeilingDiagram,
    is_valid_shi,
    shi_diagram_to_parking,
    shi_diagrams,
    shi_statistics,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def diagram_theorem_run(name, graph):
    """The diagram-domain ``_theorem_run``: targets are Shi diagrams, and each
    image is checked with ``is_valid_shi`` and ``shi_statistics``.  It reads
    the statistics of valid images only; the old run read them first and
    raised on an incoherent image.  It visits the regions in the order of
    their rook words, as the word run does, so that a failing run names the
    same first region."""
    theorem = cli._THEOREMS[name]
    bijection = getattr(bijections, f"{name}_bijection")
    inverse = getattr(bijections, f"{name}_bijection_inverse")
    n = graph.n
    bounded = theorem.domain == "bounded"
    targets = set(shi_diagrams(n, graph))
    if bounded:
        targets = {d for d in targets if shi_statistics(d).relatively_bounded}
    singletons = tuple((v,) for v in range(1, n + 1))
    seen = set()
    counts = Counter()
    for diagram in map(rook_word_to_ish_diagram, rook_words(n, graph)):
        stats = ish_statistics(diagram) if theorem.checks else None
        if bounded and not stats.relatively_bounded:
            continue
        image = bijection(diagram)
        valid = is_valid_shi(image, graph)
        image_stats = shi_statistics(image) if valid and theorem.checks else None
        broken = [s for s in theorem.checks if valid and getattr(image_stats, s) != getattr(stats, s)]
        free = theorem.free_regions and stats.dof == n
        if not valid:
            detail = "image invalid for G: {}"
        elif broken:
            detail = cli._BROKEN[broken[0]][0]
        elif inverse(image) != diagram:
            detail = theorem.roundtrip_detail
        elif free and image != ShiCeilingDiagram(diagram.pi, singletons):
            detail = "free-region image wrong: {}"
        elif free and shi_diagram_to_parking(image) != inverse_permutation(diagram.pi):
            detail = "free-region word wrong: {}"
        else:
            detail = None
        if detail is not None:
            return detail.format(diagram), len(seen), counts
        if theorem.compare_with is not None:
            agrees = getattr(bijections, f"{theorem.compare_with}_bijection")(diagram) == image
            counts[theorem.counters[0 if agrees else 1]] += 1
        seen.add(image)
    detail = None
    if seen != targets:
        detail = f"image set is not all {'bounded ' if bounded else ''}Shi diagrams"
    return detail, len(seen), counts


GRAPHS = [g for n in range(1, 5) for g in all_graphs(n)] + [Graph.complete(5)]


@pytest.mark.parametrize("name", sorted(cli._THEOREMS))
def test_word_run_equals_the_diagram_run(name):
    """Every graph at n <= 4 and K_5, each run twice: with one ``facts`` dict
    shared by all graphs of its size in sweep order, as a sweep shares it,
    and with a fresh dict.  The theorems hold on all of them, but ``basic``
    holds on the complete graph only: off it the runs must give the same
    failure detail."""
    shared = {}
    for graph in GRAPHS:
        expected = diagram_theorem_run(name, graph)
        assert cli._theorem_run(name, graph, shared.setdefault(graph.n, {})) == expected, (name, graph)
        assert cli._theorem_run(name, graph, {}) == expected, (name, graph)
        if name != "basic" or graph == Graph.complete(graph.n):
            assert expected[0] is None, (name, graph, expected)


@pytest.mark.parametrize("name", ["freedom", "bounded"])
def test_shared_facts_equal_fresh_ones_under_a_partly_wrong_map(name, monkeypatch):
    """A freedom map that sends the regions with a dot in the last column to
    the word 1...1 fails on some graphs only: where a ceiling of that word is
    missing the image is invalid, elsewhere the ceiling partition breaks.
    ``bounded`` compares its words with that map.  Every graph's run with
    the dict its sweep shares must equal a run with a fresh dict.  The
    dotted positions are the letters a rook word misses, so those regions
    are the ones whose rook word misses n."""
    real = cli._PARKING_MAPS["freedom"]
    monkeypatch.setitem(cli._PARKING_MAPS, "freedom", lambda w: (1,) * len(w) if len(w) not in w else real(w))
    details, differs = set(), 0
    for n in range(1, 5):
        shared = {}
        for graph in all_graphs(n):
            run = cli._theorem_run(name, graph, shared)
            assert run == cli._theorem_run(name, graph, {}), (name, graph)
            details.add(run[0] and run[0].split(":")[0])
            differs += run[2]["freedom_differs_from_bounded"]
    if name == "freedom":
        assert details == {None, "image invalid for G", "ceiling partition broken"}
    else:
        assert details == {None} and differs > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_position_partition_is_canonical_by_construction(n):
    for word in itertools.product(range(1, n + 1), repeat=n):
        groups = {}
        for pos, letter in enumerate(word, start=1):
            groups.setdefault(letter, []).append(pos)
        assert position_partition(word) == partition_from_blocks(groups.values()), word


def canonicalized_partition_from_pairs(n, pairs):
    """The union-find of ``partition_from_pairs`` followed by
    ``partition_from_blocks``, as it was before the blocks were returned
    directly."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in pairs:
        parent[find(i)] = find(j)
    blocks = {}
    for v in range(1, n + 1):
        blocks.setdefault(find(v), []).append(v)
    return partition_from_blocks(blocks.values())


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_from_pairs_is_canonical_by_construction(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, k):
            for ordered in (chosen, chosen[::-1], [(j, i) for i, j in chosen]):
                expected = canonicalized_partition_from_pairs(n, ordered)
                assert partition_from_pairs(n, ordered) == expected, ordered


def test_importing_the_cli_leaves_the_process_pool_out():
    script = "import sys, shi_ish.cli\nprint('concurrent.futures.process' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "False\n"
