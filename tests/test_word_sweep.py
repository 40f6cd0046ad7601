"""The theorem sweeps in the word domain, and partitions canonical by
construction.

``verify._theorem_check(name, n)`` maps the rook word of each region of
Ish(K_n) straight to the parking word of its Shi image and back, once, and
reads each graph's regions off that pass by their ceilings; the targets are
the parking words of G.  Two runs are kept here as its references, and the
check of every graph must return the same ``(detail, count, counts)``:

- the diagram-domain run, through ``bijections.{name}_bijection`` and its
  inverse, on the Ish and Shi diagrams of G;
- the per-graph word run that the read-off replaced, which walks
  ``rook_words(n, G)`` and computes each region's facts afresh.

The two partition functions of ``core`` skip ``partition_from_blocks``, so
each is compared with the canonicalized result on every input of small
size.
"""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import shi_ish.bijections as bijections
import shi_ish.cli as cli
import shi_ish.verify as verify
from shi_ish.core import (
    Graph,
    all_graphs,
    arcs,
    inverse_permutation,
    partition_from_blocks,
    partition_from_pairs,
    position_partition,
)
from shi_ish.ish import _decode_rook_word, ish_statistics, rook_word_to_ish_diagram
from shi_ish.parking import parking_functions
from shi_ish.rookwords import rook_words
from shi_ish.shi import (
    ShiCeilingDiagram,
    is_valid_shi,
    parking_dof,
    shi_diagram_to_parking,
    shi_diagrams,
    shi_statistics,
)

from test_cli_golden import GOLDEN, cli_stdout

SRC = Path(__file__).resolve().parents[1] / "src"


def diagram_theorem_run(name, graph):
    """The theorem run in the diagram domain: targets are Shi diagrams, and each
    image is checked with ``is_valid_shi`` and ``shi_statistics``.  It reads
    the statistics of valid images only; the old run read them first and
    raised on an incoherent image.  It visits the regions in the order of
    their rook words, as the word run does, so that a failing run names the
    same first region."""
    theorem = verify._THEOREMS[name]
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
            detail = verify._BROKEN[broken[0]][0]
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


def graph_theorem_run(name, graph):
    """The per-graph word run: it walks ``rook_words(n, graph)``, computes
    each region's :func:`verify._region_facts` afresh, and tests each image's
    ceilings against the edges."""
    theorem = verify._THEOREMS[name]
    n = graph.n
    complete = Graph.complete(n)
    bounded = theorem.domain == "bounded"
    targets = set(parking_functions(n, graph))
    if bounded:
        targets = {w for w in targets if parking_dof(w) == 1}
    seen = set()
    counts = Counter()
    for word in rook_words(n, graph):
        fact = verify._region_facts(name, word, complete)
        if not fact:
            continue
        _, image, partition, detail, agrees = fact
        if partition is None or not graph.edges.issuperset(arcs(partition)):
            detail = "image invalid for G: {}"
        if detail is not None:
            return detail.format(_decode_rook_word(word)), len(seen), counts
        if agrees is not None:
            counts[theorem.counters[0 if agrees else 1]] += 1
        seen.add(image)
    detail = None
    if seen != targets:
        detail = f"image set is not all {'bounded ' if bounded else ''}Shi diagrams"
    return detail, len(seen), counts


GRAPHS = [g for n in range(1, 5) for g in all_graphs(n)] + [Graph.complete(5)]

#: 40 graphs of order 5, seeded: no sweep covers a graph of order 5 but K_5
SEEDED_GRAPHS = random.Random("word-sweep:5").sample(list(all_graphs(5)), 40)


@pytest.mark.parametrize("name", sorted(verify._THEOREMS))
def test_word_run_equals_the_diagram_run(name):
    """Every graph at n <= 4 and K_5, each read off the one check built per
    size.  The theorems hold on all of them, but ``basic`` holds on the
    complete graph only: off it the runs must give the same failure
    detail."""
    checks = {}
    for graph in GRAPHS:
        check = checks.get(graph.n) or checks.setdefault(graph.n, verify._theorem_check(name, graph.n))
        expected = diagram_theorem_run(name, graph)
        assert check(graph) == expected, (name, graph)
        if name != "basic" or graph == Graph.complete(graph.n):
            assert expected[0] is None, (name, graph, expected)


@pytest.mark.parametrize("name", sorted(verify._THEOREMS))
def test_the_read_off_equals_the_graph_run_at_n5(name):
    """40 seeded graphs of order 5, none of which a sweep covers: the read-off
    of one K_5 pass equals the per-graph run on each.  ``basic`` holds on the
    complete graph only, and on each of these it meets an invalid image."""
    check = verify._theorem_check(name, 5)
    details = set()
    for graph in SEEDED_GRAPHS:
        run = check(graph)
        assert run == graph_theorem_run(name, graph), (name, graph)
        details.add(run[0] and run[0].split(":")[0])
    assert details == ({"image invalid for G"} if name == "basic" else {None})


@pytest.mark.parametrize("name", ["freedom", "bounded"])
def test_the_read_off_equals_the_graph_run_under_a_partly_wrong_map(name, monkeypatch):
    """A freedom map that sends the regions with a dot in the last column to
    the word 1...1 fails on some graphs only: where a ceiling of that word is
    missing the image is invalid, elsewhere the ceiling partition breaks.
    ``bounded`` compares its words with that map.  Every graph's read-off
    must equal its per-graph run.  The dotted positions are the letters a
    rook word misses, so those regions are the ones whose rook word misses
    n."""
    real = verify._PARKING_MAPS["freedom"]
    monkeypatch.setitem(verify._PARKING_MAPS, "freedom", lambda w: (1,) * len(w) if len(w) not in w else real(w))
    details, differs = set(), 0
    for n in range(1, 5):
        check = verify._theorem_check(name, n)
        for graph in all_graphs(n):
            run = check(graph)
            assert run == graph_theorem_run(name, graph), (name, graph)
            details.add(run[0] and run[0].split(":")[0])
            differs += run[2]["freedom_differs_from_bounded"]
    if name == "freedom":
        assert details == {None, "image invalid for G", "ceiling partition broken"}
    else:
        assert details == {None} and differs > 0


@pytest.mark.parametrize("suite", ["thm-basic", "thm-dominance", "thm-bounded", "thm-freedom"])
def test_a_theorem_suite_walks_the_rook_words_once(suite, monkeypatch, capsys):
    """A theorem suite walks ``rook_words(n)`` once, with no graph, over all
    64 graphs at n = 4; a size it refuses (exit 3) walks none."""
    calls = []
    real = verify.rook_words
    monkeypatch.setattr(verify, "rook_words", lambda *args: calls.append(args) or real(*args))
    assert cli.main(["verify", "--n", "4", "--suite", suite]) == 0
    assert calls == [(4,)]
    calls.clear()
    assert cli.main(["verify", "--n", "7", "--suite", suite]) == 3
    assert calls == []
    capsys.readouterr()


def test_thm_basic_builds_no_position_partition(monkeypatch):
    """``thm-basic`` runs on K_5 alone, where every region is kept, so it
    keys no region by its position partition; its report keeps the bytes
    pinned in ``test_cli_golden.py``.  A graph other than K_n still tests
    the arcs of each ``basic`` region, on its word
    (``test_word_run_equals_the_diagram_run``)."""
    calls = []
    real = position_partition
    for module in [m for name, m in sys.modules.items() if name.startswith("shi_ish")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, lambda word: calls.append(word) or real(word))
    command = "verify --n 5 --suite thm-basic --format json"
    code, stdout = cli_stdout(command)
    assert code == 0
    assert calls == []
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN[command]


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
