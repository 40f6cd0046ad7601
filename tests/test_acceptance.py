"""Acceptance gate: ten exact, timed checks covering the whole package.

Each test prints one terse pass/fail line on the live terminal (bypassing
pytest's capture) so the gate can be read off a plain ``pytest -v`` run.
All checks are exact integer/structure comparisons; the only tolerances are
the two wall-clock budgets pinned in criteria 1 and 2.
"""

import itertools
import math
import time
from contextlib import contextmanager

import pytest

from shi_ish.bijections import (
    basic_bijection,
    dominance_bijection,
    dominance_bijection_inverse,
    freedom_bijection,
    freedom_bijection_inverse,
)
from shi_ish.core import Graph, all_graphs, position_partition, set_partitions, arcs
from shi_ish.geometry import cross_validate
from shi_ish.ish import (
    IshCeilingDiagram,
    ish_char_poly,
    ish_region_count,
    ish_statistics,
    poly_eval,
    poly_mul,
    rook_number,
)
from shi_ish.parking import is_prime_parking_function, parking_functions
from shi_ish.rookwords import orbit_certificate, prime_rook_words, rook_words, tail_and_dof
from shi_ish.shi import parking_to_shi_diagram, shi_diagram_to_parking, shi_statistics

from reference import (
    DIAMOND,
    factorize_parking,
    ish_diagram_to_parking,
    ish_diagram_to_placement,
    ish_diagrams,
    parking_to_ish_diagram,
    parking_to_ish_diagram_stages,
    placement_laser_word,
    placement_to_parking,
    placement_to_rook_word,
    prime_rook_word_to_parking,
    restrict_placement,
    rook_word_to_parking,
    shi_diagrams,
)

EXAMPLE_DIAGRAM = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))

D = DIAMOND


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d}: FAIL — {description}")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {number:2d}: PASS — {description}")


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_criterion_01_region_counts(capsys):
    with criterion(capsys, 1, "Shi(n) and Ish(n) have (n+1)^(n-1) regions, n = 1..6, under 30 s"):
        start = time.monotonic()
        for n in range(1, 7):
            expected = (n + 1) ** (n - 1)
            assert sum(1 for _ in shi_diagrams(n)) == expected
            assert sum(1 for _ in ish_diagrams(n)) == expected
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_02_geometric_agreement(capsys):
    with criterion(capsys, 2, "geometry matches the diagram catalog for all graphs at n = 3, 4, under 5 min"):
        start = time.monotonic()
        for n in (3, 4):
            graphs = list(all_graphs(n))
            assert len(graphs) == (8 if n == 3 else 64)
            for graph in graphs:
                for kind in ("shi", "ish"):
                    report = cross_validate(kind, n, graph)
                    assert report["ok"], (kind, n, graph.sorted_edges(), report["mismatches"][:3])
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_criterion_03_dominant_regions(capsys):
    with criterion(capsys, 3, "both arrangements have Cat(n) dominant regions: 5, 14, 42"):
        for n, expected in ((3, 5), (4, 14), (5, 42)):
            assert expected == catalan(n)
            assert sum(1 for d in shi_diagrams(n) if shi_statistics(d).dominant) == expected
            assert sum(1 for d in ish_diagrams(n) if ish_statistics(d).dominant) == expected


def test_criterion_04_ceiling_partition_refinement(capsys):
    with criterion(capsys, 4, "every admissible ceiling partition holds n!/(k+1)! regions of each arrangement, with equal dominant sub-counts, all graphs n <= 4"):
        for n in range(1, 5):
            partitions = list(set_partitions(n))
            for graph in all_graphs(n):
                shi_counts = {}
                shi_dominant = {}
                for d in shi_diagrams(n, graph):
                    stats = shi_statistics(d)
                    cp = stats.ceiling_partition
                    shi_counts[cp] = shi_counts.get(cp, 0) + 1
                    shi_dominant[cp] = shi_dominant.get(cp, 0) + stats.dominant
                ish_counts = {}
                ish_dominant = {}
                for d in ish_diagrams(n, graph):
                    stats = ish_statistics(d)
                    cp = stats.ceiling_partition
                    ish_counts[cp] = ish_counts.get(cp, 0) + 1
                    ish_dominant[cp] = ish_dominant.get(cp, 0) + stats.dominant
                for partition in partitions:
                    admissible = all(e in graph.edges for e in arcs(partition))
                    k = n - len(partition)
                    expected = (
                        math.factorial(n) // math.factorial(k + 1) if admissible else 0
                    )
                    assert shi_counts.get(partition, 0) == expected
                    assert ish_counts.get(partition, 0) == expected
                    assert shi_dominant.get(partition, 0) == ish_dominant.get(partition, 0)


def test_criterion_05_cycle_lemmas(capsys):
    with criterion(capsys, 5, "every orbit of [n+1]^n (and prime [n-1]^n) has one parking function and one rook word, n <= 5; the translations preserve position partitions"):
        for n in range(1, 6):
            for word in itertools.product(range(1, n + 2), repeat=n):
                orbit_certificate(word)  # raises unless exactly one of each
            for word in rook_words(n):
                assert position_partition(rook_word_to_parking(word)) == (
                    position_partition(word)
                )
        for n in range(2, 6):
            for word in itertools.product(range(1, n), repeat=n):
                orbit_certificate(word, prime=True)
            for word in prime_rook_words(n):
                assert position_partition(prime_rook_word_to_parking(word)) == (
                    position_partition(word)
                )


def _bijection_scope():
    for n in range(1, 5):
        for graph in all_graphs(n):
            yield n, graph
    yield 5, Graph.complete(5)


def test_criterion_06_dominance_bijection(capsys):
    with criterion(capsys, 6, "the dominance bijection is bijective and preserves ceiling partition and dominance, all graphs n <= 4 and K_5"):
        for n, graph in _bijection_scope():
            images = set()
            for d in ish_diagrams(n, graph):
                image = dominance_bijection(d)
                assert dominance_bijection_inverse(image) == d
                s_in, s_out = ish_statistics(d), shi_statistics(image)
                assert s_in.ceiling_partition == s_out.ceiling_partition
                assert s_in.dominant == s_out.dominant
                images.add(image)
            assert images == set(shi_diagrams(n, graph))


def test_criterion_07_freedom_bijection(capsys):
    with criterion(capsys, 7, "the freedom bijection is bijective and preserves ceiling partition and dof over the same scope; the Dyck construction round-trips all parking functions, n <= 5"):
        for n, graph in _bijection_scope():
            images = set()
            for d in ish_diagrams(n, graph):
                image = freedom_bijection(d)
                assert freedom_bijection_inverse(image) == d
                s_in, s_out = ish_statistics(d), shi_statistics(image)
                assert s_in.ceiling_partition == s_out.ceiling_partition
                assert s_in.dof == s_out.dof
                images.add(image)
            assert images == set(shi_diagrams(n, graph))
        for n in range(1, 6):
            for word in parking_functions(n):
                assert ish_diagram_to_parking(parking_to_ish_diagram(word)) == word


def test_criterion_08_worked_examples(capsys):
    with criterion(capsys, 8, "all worked-example fixtures reproduce bit-exactly"):
        # parking function -> Shi diagram
        shi_fixture = parking_to_shi_diagram((3, 2, 3, 7, 1, 2, 7, 2))
        assert shi_fixture.pi == (5, 2, 1, 6, 3, 8, 4, 7)
        assert shi_fixture.partition == ((1,), (2, 4, 6), (3, 5), (7, 8))

        # rightward lasers on the running Ish example
        restricted = restrict_placement(ish_diagram_to_placement(EXAMPLE_DIAGRAM))
        assert placement_laser_word(restricted) == (1, 8, 9, 1, 8, 9, 7, 4)
        # (4,2,3,4,2,3,1,7) is the unique parking function in the cyclic
        # orbit of the laser word over [9] (shift by 3)
        assert placement_to_parking(restricted) == (4, 2, 3, 4, 2, 3, 1, 7)

        # downward lasers and the cycle-lemma translations
        assert placement_to_rook_word(
            ish_diagram_to_placement(EXAMPLE_DIAGRAM)
        ) == (2, 8, 8, 1, 8, 8, 2, 5)
        assert rook_word_to_parking((2, 8, 8, 1, 8, 8, 2, 5)) == (4, 1, 1, 3, 1, 1, 4, 7)
        assert rook_word_to_parking((1, 4, 4, 2, 5)) == (4, 1, 1, 5, 2)
        assert prime_rook_word_to_parking((1, 2, 2)) == (2, 1, 1)

        # Dyck-path construction with its four intermediate diamond words
        stages = parking_to_ish_diagram_stages((3, 7, 3, 8, 2, 2, 7, 1, 2))
        assert stages.stage_words[0] == (1, D, D, 5, D)
        assert stages.stage_words[1] == (1, 2, 4, D, D, D, 5, D)
        assert stages.after_prefix_rotation == (2, 8, 1, 4, D, D, D, 5, D)
        assert stages.after_global_rotation == (8, 1, 4, D, D, D, 5, D, 2)
        assert stages.diagram == IshCeilingDiagram(
            (8, 1, 4, 3, 7, 6, 5, 9, 2), (0, 0, 0, 1, 2, 5, 0, 6, 0)
        )

        # prime factorization of the same parking function
        blocks, factors = factorize_parking((3, 7, 3, 8, 2, 2, 7, 1, 2))
        assert blocks == ((8,), (1, 3, 5, 6, 9), (2, 4, 7))
        assert factors == ((1,), (2, 2, 1, 1, 1), (1, 2, 1))

        # tail and degrees of freedom of a rook word
        assert tail_and_dof((2, 1, 1, 6, 3, 4)) == ((6,), 3)


def test_criterion_09_negative_controls(capsys):
    with criterion(capsys, 9, "negative controls fire: the basic map breaks both statistics; dominant-bounded counts differ 2 vs 3; bounded totals are (n-1)^(n-1)"):
        # the basic bijection moves the ceiling partition and the dof
        before = ish_statistics(EXAMPLE_DIAGRAM)
        after = shi_statistics(basic_bijection(EXAMPLE_DIAGRAM))
        assert before.ceiling_partition != after.ceiling_partition
        assert (before.dof, after.dof) == (3, 2)

        # dominant relatively bounded regions: 3 on the Ish side vs 2 on the
        # Shi side (dominant diagrams decoding to prime parking functions)
        ish_side = [
            d
            for d in ish_diagrams(3)
            if ish_statistics(d).dominant and ish_statistics(d).relatively_bounded
        ]
        shi_side = [
            d
            for d in shi_diagrams(3)
            if shi_statistics(d).dominant
            and is_prime_parking_function(shi_diagram_to_parking(d))
        ]
        assert (len(shi_side), len(ish_side)) == (2, 3)

        # relatively bounded totals
        for n, expected in ((3, 4), (4, 27)):
            assert expected == (n - 1) ** (n - 1)
            got = sum(
                1 for d in ish_diagrams(n) if ish_statistics(d).relatively_bounded
            )
            assert got == expected


def test_criterion_10_formula_consistency(capsys):
    with criterion(capsys, 10, "characteristic polynomial q(q-n)^(n-1) for K_n, Zaslavsky evaluation, and rook_number(G, n-1) = region count, all graphs n <= 4"):
        for n in range(1, 6):
            expected = (0, 1)
            for _ in range(n - 1):
                expected = poly_mul(expected, (-n, 1))
            assert ish_char_poly(Graph.complete(n)) == expected
        for n in range(1, 5):
            for graph in all_graphs(n):
                count = ish_region_count(graph)
                assert sum(1 for _ in ish_diagrams(n, graph)) == count
                chi = ish_char_poly(graph)
                assert (-1) ** n * poly_eval(chi, -1) == count
                assert rook_number(graph, n - 1) == count
