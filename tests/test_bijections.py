"""The four Shi/Ish region bijections and their stage constructions."""

import pytest

from shi_ish.bijections import (
    basic_bijection,
    basic_bijection_inverse,
    bounded_bijection,
    bounded_bijection_inverse,
    dominance_bijection,
    dominance_bijection_inverse,
    freedom_bijection,
    freedom_bijection_inverse,
)
from shi_ish.core import Graph, all_graphs
from shi_ish.ish import IshCeilingDiagram, _encode_rook_word, ish_statistics
from shi_ish.parking import parking_functions
from shi_ish.shi import ShiCeilingDiagram, shi_statistics

from reference import (
    DIAMOND,
    Diamond,
    ish_diagram_to_parking,
    ish_diagrams,
    parking_to_ish_diagram,
    shi_diagrams,
)
from freedom_reference import (
    parking_to_ish_diagram_stages,
    resolve_diamond_word,
    resolve_rook_word,
    rook_word_to_parking_stages,
)

EXAMPLE_DIAGRAM = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))

D = DIAMOND


def test_diamond_is_a_singleton():
    assert Diamond() is DIAMOND
    assert repr(DIAMOND) == "<>"


# ---------------------------------------------------------------------------
# worked examples


def test_basic_bijection_fixture():
    image = basic_bijection(EXAMPLE_DIAGRAM)
    assert image.pi == (7, 2, 3, 1, 5, 6, 8, 4)
    assert image.partition == ((1,), (2, 5), (3, 6), (4, 8), (7,))
    assert basic_bijection_inverse(image) == EXAMPLE_DIAGRAM


def test_dominance_bijection_fixture():
    image = dominance_bijection(EXAMPLE_DIAGRAM)
    assert image.pi == (2, 3, 4, 1, 5, 7, 8, 6)
    assert shi_statistics(image).ceiling_partition == ish_statistics(
        EXAMPLE_DIAGRAM
    ).ceiling_partition
    assert dominance_bijection_inverse(image) == EXAMPLE_DIAGRAM


def test_bounded_bijection_fixture():
    bounded = IshCeilingDiagram((1, 2, 3), (0, 0, 1))
    image = bounded_bijection(bounded)
    assert image.partition == ((1, 3), (2,))
    assert bounded_bijection_inverse(image) == bounded
    with pytest.raises(ValueError):
        bounded_bijection(IshCeilingDiagram((2, 1, 3), (0, 0, 1)))
    with pytest.raises(ValueError):
        bounded_bijection_inverse(ShiCeilingDiagram((1, 2, 3), ((1,), (2,), (3,))))


def test_dyck_stage_fixture():
    stages = parking_to_ish_diagram_stages((3, 7, 3, 8, 2, 2, 7, 1, 2))
    assert stages.stage_words[0] == (1, D, D, 5, D)
    assert stages.stage_words[1] == (1, 2, 4, D, D, D, 5, D)
    assert stages.stage_words[2] == (1, 2, 8, 4, D, D, D, 5, D)
    assert stages.after_prefix_rotation == (2, 8, 1, 4, D, D, D, 5, D)
    assert stages.after_global_rotation == (8, 1, 4, D, D, D, 5, D, 2)
    assert stages.diagram == IshCeilingDiagram(
        (8, 1, 4, 3, 7, 6, 5, 9, 2), (0, 0, 0, 1, 2, 5, 0, 6, 0)
    )
    assert stages.components == (
        ((5, 6, 9), (1, 3), (), (), ()),
        ((2, 7), (4,), ()),
        ((8,),),
    )


def test_dyck_inverse_stage_fixture():
    diagram = IshCeilingDiagram((8, 1, 4, 3, 7, 6, 5, 9, 2), (0, 0, 0, 1, 2, 5, 0, 6, 0))
    stages = rook_word_to_parking_stages(_encode_rook_word(diagram))
    assert stages.diamond_word == (8, 1, 4, D, D, D, 5, D, 2)
    assert stages.cycle_index == 1
    assert stages.after_cycling == (2, 8, 1, 4, D, D, D, 5, D)
    assert stages.after_prefix_rotation == (1, 2, 8, 4, D, D, D, 5, D)
    assert stages.linear_order == (3, 1, 2)
    assert stages.word == (3, 7, 3, 8, 2, 2, 7, 1, 2)


def test_resolve_diamond_word_is_forced():
    got = resolve_diamond_word((1, D, 2), ((1, 3), (2,)))
    assert got == IshCeilingDiagram((1, 3, 2), (0, 1, 0))
    with pytest.raises(ValueError):
        resolve_diamond_word((1, D, 2), ((1,), (2,), (3,)))
    with pytest.raises(ValueError):
        resolve_diamond_word((2, D, 1), ((1, 3), (2,)))


def test_resolved_rook_word_is_checked_without_decoding():
    """The resolution checks the rook word it fills in without decoding
    it, so it refuses a diamond left of the letter 1, the one incoherence
    its letters and arcs allow."""
    assert resolve_rook_word((1, D, 2), ((1, 3), (2,))) == (1, 3, 1)
    with pytest.raises(ValueError, match="diamond left of the letter 1"):
        resolve_rook_word((2, D, 1), ((1, 3), (2,)))
    with pytest.raises(ValueError, match="diamond count"):
        resolve_rook_word((1, D, 2), ((1,), (2,), (3,)))
    with pytest.raises(ValueError, match="inconsistent"):
        resolve_rook_word((1, D, 3), ((1, 3), (2,)))


# ---------------------------------------------------------------------------
# bijectivity and preserved statistics


@pytest.mark.parametrize("n", range(1, 5))
def test_basic_bijection_is_a_bijection(n):
    images = set()
    for d in ish_diagrams(n):
        image = basic_bijection(d)
        assert basic_bijection_inverse(image) == d
        images.add(image)
    assert images == set(shi_diagrams(n))


def test_basic_bijection_breaks_statistics():
    """The rightward-laser map is only a bijection; on the running example it
    moves both the ceiling partition and the degrees of freedom."""
    before = ish_statistics(EXAMPLE_DIAGRAM)
    after = shi_statistics(basic_bijection(EXAMPLE_DIAGRAM))
    assert before.ceiling_partition == ((1, 7), (2, 3, 5, 6), (4,), (8,))
    assert after.ceiling_partition == ((1, 4), (2, 5), (3, 6), (7,), (8,))
    assert before.dof == 3
    assert after.dof == 2


@pytest.mark.parametrize("n", range(1, 5))
def test_dominance_bijection_preserves_cp_and_dominance(n):
    for g in all_graphs(n) if n <= 3 else [Graph.complete(n)]:
        images = set()
        for d in ish_diagrams(n, g):
            image = dominance_bijection(d)
            assert dominance_bijection_inverse(image) == d
            s_in, s_out = ish_statistics(d), shi_statistics(image)
            assert s_in.ceiling_partition == s_out.ceiling_partition
            assert s_in.dominant == s_out.dominant
            images.add(image)
        assert images == set(shi_diagrams(n, g))


@pytest.mark.parametrize("n", range(1, 5))
def test_freedom_bijection_preserves_cp_and_dof(n):
    for g in all_graphs(n) if n <= 3 else [Graph.complete(n)]:
        images = set()
        for d in ish_diagrams(n, g):
            image = freedom_bijection(d)
            assert freedom_bijection_inverse(image) == d
            s_in, s_out = ish_statistics(d), shi_statistics(image)
            assert s_in.ceiling_partition == s_out.ceiling_partition
            assert s_in.dof == s_out.dof
            images.add(image)
        assert images == set(shi_diagrams(n, g))


@pytest.mark.parametrize("n", range(2, 5))
def test_bounded_bijection_on_relatively_bounded_regions(n):
    """On relatively bounded regions the prime-variant map is injective,
    preserves ceiling partitions, and lands on prime parking functions."""
    from shi_ish.parking import is_prime_parking_function
    from shi_ish.shi import shi_diagram_to_parking

    sources = [
        d for d in ish_diagrams(n) if ish_statistics(d).relatively_bounded
    ]
    assert len(sources) == (n - 1) ** (n - 1)
    images = set()
    for d in sources:
        image = bounded_bijection(d)
        assert bounded_bijection_inverse(image) == d
        assert (
            ish_statistics(d).ceiling_partition
            == shi_statistics(image).ceiling_partition
        )
        assert is_prime_parking_function(shi_diagram_to_parking(image))
        images.add(image)
    assert len(images) == len(sources)


def test_dominance_does_not_carry_bounded_to_bounded():
    """At n = 3 the Ish side has 3 dominant relatively bounded regions but
    the Shi side has only 2 (dominant regions decoding to prime parking
    functions), so no bijection preserves both statistics at once and the
    dominance map in particular does not carry bounded to bounded."""
    from shi_ish.parking import is_prime_parking_function
    from shi_ish.shi import shi_diagram_to_parking

    sources = [
        d
        for d in ish_diagrams(3)
        if ish_statistics(d).relatively_bounded and ish_statistics(d).dominant
    ]
    assert len(sources) == 3
    shi_side = [
        d
        for d in shi_diagrams(3)
        if shi_statistics(d).dominant
        and is_prime_parking_function(shi_diagram_to_parking(d))
    ]
    assert len(shi_side) == 2
    prime_images = [
        d
        for d in sources
        if is_prime_parking_function(
            shi_diagram_to_parking(dominance_bijection(d))
        )
    ]
    assert len(prime_images) == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_dyck_construction_roundtrip(n):
    for word in parking_functions(n):
        diagram = parking_to_ish_diagram(word)
        assert ish_diagram_to_parking(diagram) == word


def test_dominance_image_of_totally_free_regions_inverts_pi():
    """Regions with no dots map to the diagram of the inverse permutation
    with all-singleton blocks."""
    from shi_ish.core import identity_permutation
    from shi_ish.shi import shi_diagram_to_parking

    from reference import inverse_permutation

    n = 4
    singles = tuple((i,) for i in range(1, n + 1))
    for d in ish_diagrams(n):
        if d.eps != (0,) * n:
            continue
        image = dominance_bijection(d)
        assert image == ShiCeilingDiagram(d.pi, singles)
        assert shi_diagram_to_parking(image) == inverse_permutation(d.pi)
