"""Bijections between regions of the Shi and Ish arrangements.

All four bijections factor through parking functions and rook words:

* ``basic_bijection`` restricts the rook placement of an Ish region, reads a
  word off it with rightward lasers, and parks the result.  It is a bijection
  for the complete graph but preserves no statistics.
* ``dominance_bijection`` reads rook words with downward lasers and converts
  them to parking functions by the cycle lemma.  It preserves ceiling
  partitions and dominance, and so restricts to every subgraph.
* ``bounded_bijection`` is the prime variant of the dominance map.  It
  carries relatively bounded regions to relatively bounded regions and
  preserves ceiling partitions.
* ``freedom_bijection`` goes through labeled Dyck paths, cutting them into
  prime components.  It preserves ceiling partitions and degrees of freedom.

A Shi region is its parking word, so each bijection is implemented once in
the word domain: ``{name}_parking`` carries an Ish diagram to the parking word
of its Shi image and ``{name}_parking_inverse`` carries the word back.  The
diagram maps ``{name}_bijection`` and ``{name}_bijection_inverse`` are those
two read through :func:`parking_to_shi_diagram` and
:func:`shi_diagram_to_parking`.  The laser steps of ``basic``, ``dominance``
and ``bounded`` run on (pi, eps) through the board-free codec of
:mod:`shi_ish.ish`; the rook placements there are the documented
construction and the tests' reference.

The Dyck-path construction works with partially built words whose dotted
positions are marked by the :data:`DIAMOND` placeholder until the very last
step resolves them into dotted letters.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .core import SetPartition, Word, arcs, partition_from_pairs, position_partition
from .ish import (
    IshCeilingDiagram,
    _decode_rook_word,
    _degrees_of_freedom,
    _encode_rook_word,
    ish_ceiling_pairs,
    ish_diagram_to_laser_word,
    ish_statistics,
    laser_word_to_ish_diagram,
)
from .parking import (
    LabeledDyckPath,
    dyck_to_word,
    is_parking_function,
    is_prime_parking_function,
    prime_components,
    word_to_dyck,
)
from .rookwords import OrbitCertificate, orbit_certificate
from .shi import ShiCeilingDiagram, parking_to_shi_diagram, shi_diagram_to_parking


class Diamond:
    """Placeholder symbol for a dotted position in a partially built word.

    The class is a singleton; use the :data:`DIAMOND` constant.
    """

    _instance = None

    def __new__(cls) -> "Diamond":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<>"


DIAMOND = Diamond()

DiamondWord = tuple[Union[int, Diamond], ...]


# ---------------------------------------------------------------------------
# the four region bijections: the word maps, then their diagram views


def _certified_rook_orbit(word: Word, prime: bool = False) -> OrbitCertificate:
    """The orbit certificate of a region's rook word.  The certificate checks
    its (prime) rook member by substitution; that member must be ``word``
    itself, which certifies the encoded word with that one check."""
    cert = orbit_certificate(word, prime=prime)
    if cert.rook != word:
        raise AssertionError(f"{word} is not a {'prime ' if prime else ''}rook word")
    return cert


def basic_parking(diagram: IshCeilingDiagram) -> Word:
    """The parking word of the ``basic`` image: restrict the rook placement
    of an Ish region, read its rightward-laser word and park it.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> basic_parking(d)
    (4, 2, 3, 4, 2, 3, 1, 7)
    """
    return orbit_certificate(ish_diagram_to_laser_word(diagram)).parking


def basic_parking_inverse(word: Sequence[int]) -> IshCeilingDiagram:
    if not is_parking_function(word):
        raise ValueError(f"{word!r} is not a parking function")
    return laser_word_to_ish_diagram(word)


def dominance_parking(diagram: IshCeilingDiagram) -> Word:
    """The parking word of the ``dominance`` image: the downward-laser rook
    word of the region, parked by the cycle lemma.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> dominance_parking(d)
    (4, 1, 1, 3, 1, 1, 4, 7)
    """
    return _certified_rook_orbit(_encode_rook_word(diagram)).parking


def dominance_parking_inverse(word: Sequence[int]) -> IshCeilingDiagram:
    """The Ish region whose ``dominance`` image has this parking word.

    The orbit certificate checks its parking member by substitution; that
    member must be ``word`` itself, which certifies the input with that one
    check, as :func:`_certified_rook_orbit` does for rook words.

    >>> dominance_parking_inverse((4, 1, 1, 3, 1, 1, 4, 7))
    IshCeilingDiagram(pi=(4, 1, 7, 3, 8, 5, 6, 2), eps=(0, 0, 1, 2, 0, 3, 5, 0))
    >>> dominance_parking_inverse((1, 3, 3))
    Traceback (most recent call last):
    ...
    ValueError: (1, 3, 3) is not a parking function
    """
    try:
        cert = orbit_certificate(word)
    except ValueError:
        if is_parking_function(word):
            raise  # parking-shaped, but a letter is no integer: keep that message
        cert = None
    if cert is None or cert.parking != cert.word:
        raise ValueError(f"{word!r} is not a parking function")
    return _decode_rook_word(cert.rook)


def bounded_parking(diagram: IshCeilingDiagram) -> Word:
    """The prime parking word of the ``bounded`` image of a relatively
    bounded region: its rook word, parked by the prime cycle lemma.

    >>> bounded_parking(IshCeilingDiagram((1, 2, 3), (0, 0, 1)))
    (1, 2, 1)
    >>> bounded_parking(IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0)))
    Traceback (most recent call last):
    ...
    ValueError: input region is not relatively bounded
    """
    word = _encode_rook_word(diagram)  # ValueError unless the diagram is coherent
    if _degrees_of_freedom(diagram) != 1:
        raise ValueError("input region is not relatively bounded")
    return _certified_rook_orbit(word, prime=True).parking


def bounded_parking_inverse(word: Sequence[int]) -> IshCeilingDiagram:
    if not is_prime_parking_function(word):
        raise ValueError("input region is not relatively bounded")
    # a prime rook word is a rook word, and the certificate has checked it
    return _decode_rook_word(orbit_certificate(word, prime=True).rook)


def freedom_parking(diagram: IshCeilingDiagram) -> Word:
    """The parking word of the ``freedom`` image: the labeled Dyck path of
    the region, built from its prime components.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> freedom_parking(d)
    (2, 4, 4, 1, 4, 4, 2, 7)
    """
    return ish_diagram_to_parking(diagram)


def freedom_parking_inverse(word: Sequence[int]) -> IshCeilingDiagram:
    return parking_to_ish_diagram(word)


def basic_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Map an Ish region to a Shi region through rightward lasers.

    A bijection on regions of the complete-graph arrangements; ceiling
    partitions and degrees of freedom are generally not preserved.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> basic_bijection(d).pi
    (7, 2, 3, 1, 5, 6, 8, 4)
    """
    return parking_to_shi_diagram(basic_parking(diagram))


def basic_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return basic_parking_inverse(shi_diagram_to_parking(diagram))


def dominance_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Map an Ish region to a Shi region through downward lasers and the
    cycle lemma.  Preserves ceiling partitions and dominance, hence restricts
    to a bijection for every graph.

    >>> d = IshCeilingDiagram((4, 1, 7, 3, 8, 5, 6, 2), (0, 0, 1, 2, 0, 3, 5, 0))
    >>> dominance_bijection(d).pi
    (2, 3, 4, 1, 5, 7, 8, 6)
    """
    return parking_to_shi_diagram(dominance_parking(diagram))


def dominance_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return dominance_parking_inverse(shi_diagram_to_parking(diagram))


def bounded_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Variant of the dominance map for relatively bounded regions, using the
    prime cycle lemma.  Preserves ceiling partitions.

    >>> bounded_bijection(IshCeilingDiagram((1, 2, 3), (0, 0, 1))).partition
    ((1, 3), (2,))
    """
    return parking_to_shi_diagram(bounded_parking(diagram))


def bounded_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return bounded_parking_inverse(shi_diagram_to_parking(diagram))


def freedom_bijection(diagram: IshCeilingDiagram) -> ShiCeilingDiagram:
    """Map an Ish region to a Shi region through labeled Dyck paths.
    Preserves ceiling partitions and degrees of freedom, hence restricts to
    a bijection for every graph."""
    return parking_to_shi_diagram(freedom_parking(diagram))


def freedom_bijection_inverse(diagram: ShiCeilingDiagram) -> IshCeilingDiagram:
    return freedom_parking_inverse(shi_diagram_to_parking(diagram))


# ---------------------------------------------------------------------------
# parking functions <-> Ish diagrams through prime Dyck components


class DyckToIshStages(NamedTuple):
    """Intermediate words of the Dyck-path-to-diagram construction, kept for
    inspection and regression tests."""

    components: tuple[LabeledDyckPath, ...]
    stage_words: tuple[DiamondWord, ...]
    after_prefix_rotation: DiamondWord
    after_global_rotation: DiamondWord
    diagram: IshCeilingDiagram


class IshToDyckStages(NamedTuple):
    """Intermediate state of the diagram-to-Dyck-path construction."""

    diamond_word: DiamondWord
    cycle_index: int
    after_cycling: DiamondWord
    after_prefix_rotation: DiamondWord
    components: tuple[LabeledDyckPath, ...]
    linear_order: tuple[int, ...]
    word: Word


def resolve_diamond_word(
    word: Sequence[Union[int, Diamond]], partition: SetPartition
) -> IshCeilingDiagram:
    """Fill the diamonds of a partial diagram word.

    There is exactly one way to dot the diamond positions so that the
    resulting diagram is valid and has the prescribed ceiling partition: the
    available relations are the arcs of the partition, and sorting them by
    left endpoint is forced by the increasing-dots condition.

    Checks that the filled diagram is coherent (:func:`ish_ceiling_pairs`).
    Its ceiling pairs are then the arcs placed in the diamonds, so its
    ceiling partition is the one those arcs generate, and that must be
    ``partition``.  ValueError otherwise.
    """
    pairs = sorted(arcs(partition))
    positions = [i for i, s in enumerate(word) if isinstance(s, Diamond)]
    if len(pairs) != len(positions):
        raise ValueError("diamond count does not match the partition arcs")
    pi = list(word)
    eps = [0] * len(word)
    for pos, (low, high) in zip(positions, pairs):
        pi[pos] = high
        eps[pos] = low
    diagram = IshCeilingDiagram(pi=tuple(pi), eps=tuple(eps))
    if partition_from_pairs(diagram.n, ish_ceiling_pairs(diagram)) != partition:
        raise ValueError("word letters are inconsistent with the partition")
    return diagram


def parking_to_ish_diagram_stages(word: Sequence[int]) -> DyckToIshStages:
    """Build the Ish diagram of a parking function, keeping every stage.

    The prime components of the labeled Dyck path are listed cyclically from
    the one containing the label 1.  That component is read cyclically from
    the column of 1, skipping its final empty column, with a diamond appended;
    each later component is read left to right and spliced in just after
    position i-1.  The first d letters then rotate left once, the whole word
    rotates left until only labels of components left of 1 precede the 1, and
    the diamonds resolve against the position partition.
    """
    dyck = word_to_dyck(word)
    comps = prime_components(dyck)
    d = len(comps)
    one_in = next(i for i, c in enumerate(comps, start=1) if 1 in c.labels())
    ordered = comps[one_in - 1 :] + comps[: one_in - 1]

    first = ordered[0].columns
    if len(first) == 1:
        working: list[Union[int, Diamond]] = [1]
    else:
        size = len(first)
        start = next(t for t, col in enumerate(first) if col and col[0] == 1)
        read = [
            first[(start + t) % size]
            for t in range(size)
            if (start + t) % size != size - 1
        ]
        working = [col[0] if col else DIAMOND for col in read]
        working.append(DIAMOND)
    stage_words = [tuple(working)]

    for i in range(2, d + 1):
        piece: list[Union[int, Diamond]] = [
            col[0] if col else DIAMOND for col in ordered[i - 1].columns
        ]
        working = working[: i - 1] + piece + working[i - 1 :]
        stage_words.append(tuple(working))

    working = working[1:d] + [working[0]] + working[d:]
    after_prefix = tuple(working)

    shift = d - one_in
    working = working[shift:] + working[:shift]
    after_global = tuple(working)

    diagram = resolve_diamond_word(after_global, position_partition(word))
    return DyckToIshStages(
        components=tuple(c.columns for c in ordered),
        stage_words=tuple(stage_words),
        after_prefix_rotation=after_prefix,
        after_global_rotation=after_global,
        diagram=diagram,
    )


def parking_to_ish_diagram(word: Sequence[int]) -> IshCeilingDiagram:
    """The Ish ceiling diagram attached to a parking function by the prime
    Dyck component construction.

    >>> parking_to_ish_diagram((3, 7, 3, 8, 2, 2, 7, 1, 2)).pi
    (8, 1, 4, 3, 7, 6, 5, 9, 2)
    >>> parking_to_ish_diagram((3, 7, 3, 8, 2, 2, 7, 1, 2)).eps
    (0, 0, 0, 1, 2, 5, 0, 6, 0)
    """
    return parking_to_ish_diagram_stages(word).diagram


def ish_diagram_to_parking_stages(diagram: IshCeilingDiagram) -> IshToDyckStages:
    """Recover the parking function of an Ish region, keeping every stage.

    With d the degrees of freedom, the diamond word cycles right until 1 sits
    in position d (the cycle index counts the steps), the first d entries
    rotate right once, and the symbols expand to Dyck-path columns: a letter
    carries its ceiling-partition block, a diamond is an empty column.
    Components peel off left to right from positions d down to 2; the
    component of 1 is the unique cyclic rotation of what remains (after
    dropping the final diamond) that stays strictly above the diagonal.  The
    cycle index then fixes the left-to-right order: the component of 1 lands
    in linear position d minus the cycle index.
    """
    stats = ish_statistics(diagram)
    d = stats.dof
    n = diagram.n
    block_of = {block[0]: block for block in stats.ceiling_partition}

    working: list[Union[int, Diamond]] = [
        DIAMOND if e > 0 else p for p, e in zip(diagram.pi, diagram.eps)
    ]
    initial = tuple(working)

    cycle_index = (d - 1 - working.index(1)) % n
    if not 0 <= cycle_index < d:
        raise AssertionError(f"cycle index {cycle_index} outside [0, {d})")
    if cycle_index:
        moved = working[-cycle_index:]
        if any(isinstance(s, Diamond) for s in moved):
            raise AssertionError("cycling moved a diamond past the end")
        working = moved + working[:-cycle_index]
    after_cycling = tuple(working)
    if working[d - 1] != 1:
        raise AssertionError("cycling did not bring 1 to position d")

    working = [working[d - 1]] + working[: d - 1] + working[d:]
    after_prefix = tuple(working)

    cols: list[tuple[int, ...]] = [
        () if isinstance(s, Diamond) else block_of[s] for s in working
    ]

    components: dict[int, LabeledDyckPath] = {}
    for i in range(d, 1, -1):
        start = i - 1
        end = start
        surplus = len(cols[end]) - 1
        while surplus != 0:
            if surplus < 0:
                raise AssertionError("column surplus went negative")
            end += 1
            surplus += len(cols[end]) - 1
        components[i] = tuple(cols[start : end + 1])
        del cols[start : end + 1]

    if len(cols) == 1:
        if cols[0] != (1,):
            raise AssertionError(f"last column is {cols[0]}, not (1,)")
        components[1] = ((1,),)
    else:
        if not (cols[0] and cols[0][0] == 1 and cols[-1] == ()):
            raise AssertionError("component of 1 does not start at 1 and end empty")
        body = cols[:-1]
        good = [
            r
            for r in range(len(body))
            if all(
                sum(len(c) for c in (body[r:] + body[:r])[:s]) > s
                for s in range(1, len(body) + 1)
            )
        ]
        if len(good) != 1:
            raise AssertionError(f"{len(good)} rotations are Dyck paths, expected 1")
        rotated = body[good[0] :] + body[: good[0]]
        components[1] = tuple(rotated) + ((),)

    order = tuple((m + cycle_index) % d + 1 for m in range(1, d + 1))
    columns = [col for i in order for col in components[i]]
    word = dyck_to_word(columns)
    if position_partition(word) != stats.ceiling_partition:
        raise AssertionError("parking word does not keep the ceiling partition")
    return IshToDyckStages(
        diamond_word=initial,
        cycle_index=cycle_index,
        after_cycling=after_cycling,
        after_prefix_rotation=after_prefix,
        components=tuple(components[i] for i in range(1, d + 1)),
        linear_order=order,
        word=word,
    )


def ish_diagram_to_parking(diagram: IshCeilingDiagram) -> Word:
    """The parking function of an Ish region, by prime Dyck components.
    Inverse of :func:`parking_to_ish_diagram`.

    >>> d = IshCeilingDiagram(
    ...     (8, 1, 4, 3, 7, 6, 5, 9, 2), (0, 0, 0, 1, 2, 5, 0, 6, 0))
    >>> ish_diagram_to_parking(d)
    (3, 7, 3, 8, 2, 2, 7, 1, 2)
    """
    return ish_diagram_to_parking_stages(diagram).word
