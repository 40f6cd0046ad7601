"""The label-level construction of the ``freedom`` bijection, kept as the
tests' reference.

This is the construction as the paper states it: the labeled Dyck path of a
parking word, cut into prime components whose label columns are spliced and
rotated as diamond words, whose diamonds resolve against the position
partition, and back.  :mod:`shi_ish.bijections` runs the same
steps on column indices; its word maps and stage views must agree with
these functions on every word, exceptions included.
"""

from typing import Sequence, Union

from shi_ish.core import SetPartition, check_partition_of
from shi_ish.ish import IshCeilingDiagram, _decode_rook_word
from shi_ish.rookwords import _rook_dof

from reference import (
    DIAMOND,
    Diamond,
    DiamondWord,
    DyckToIshStages,
    IshToDyckStages,
    LabeledDyckPath,
    dyck_to_word,
    prime_components,
    word_to_dyck,
)


def position_partition(word: Sequence[int]) -> SetPartition:
    """The positions of ``word`` grouped by letter, each block increasing and
    the blocks ordered by their first position.  The reference groups its
    letters itself, so that it stays apart from the code it checks."""
    blocks: dict = {}
    for pos, letter in enumerate(word, start=1):
        blocks.setdefault(letter, []).append(pos)
    return tuple(map(tuple, blocks.values()))


def resolve_diamond_word(
    word: Sequence[Union[int, Diamond]], partition: SetPartition
) -> IshCeilingDiagram:
    """Fill the diamonds of a partial diagram word.

    There is exactly one way to dot the diamond positions so that the
    resulting diagram is valid and has the prescribed ceiling partition: the
    available relations are the arcs of the partition, and sorting them by
    left endpoint is forced by the increasing-dots condition.  The filled
    diagram is the decoded :func:`resolve_rook_word`; ValueError unless it
    is a coherent diagram with that ceiling partition.
    """
    check_partition_of(partition, len(word))
    return _decode_rook_word(resolve_rook_word(word, partition))


def resolve_rook_word(word: Sequence[Union[int, Diamond]], partition: SetPartition) -> tuple[int, ...]:
    """The rook word of :func:`resolve_diamond_word`, for a partition of
    [len(word)].

    The letters of ``word`` must be the block minima of ``partition``, one
    diamond per arc.  A block's minimum sits undotted at some position i,
    and each later element hangs from its predecessor in the block by a dot,
    so every element of the block reads i in the rook word.  The dotted
    positions are the letters the rook word misses, so it is a rook word
    exactly when every diamond lies right of the letter 1, which is the
    coherence of the filled diagram.
    """
    if sum(isinstance(s, Diamond) for s in word) != len(word) - len(partition):
        raise ValueError("diamond count does not match the partition arcs")
    at = {s: i for i, s in enumerate(word, start=1) if not isinstance(s, Diamond)}
    rook = [0] * len(word)
    for block in partition:
        position = at.get(block[0])
        if position is None:
            raise ValueError("word letters are inconsistent with the partition")
        for value in block:
            rook[value - 1] = position
    if _rook_dof(rook) is None:
        raise ValueError(f"{tuple(word)!r} has a diamond left of the letter 1")
    return tuple(rook)


def diamond_stages(
    word: Sequence[int],
) -> tuple[tuple[LabeledDyckPath, ...], tuple[DiamondWord, ...], DiamondWord, DiamondWord]:
    """The components, stage words and both rotations of
    ``parking_to_ish_diagram_stages``: everything before the diamonds
    resolve."""
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
    return tuple(c.columns for c in ordered), tuple(stage_words), after_prefix, tuple(working)


def parking_to_rook(word: Sequence[int]) -> tuple[int, ...]:
    """``freedom_parking_to_rook``: the diamonds of the globally rotated
    word resolved against the position partition."""
    *_, after_global = diamond_stages(word)
    return resolve_rook_word(after_global, position_partition(word))


def parking_to_ish_diagram_stages(word: Sequence[int]) -> DyckToIshStages:
    components, stage_words, after_prefix, after_global = diamond_stages(word)
    rook = resolve_rook_word(after_global, position_partition(word))
    return DyckToIshStages(
        components=components,
        stage_words=stage_words,
        after_prefix_rotation=after_prefix,
        after_global_rotation=after_global,
        diagram=_decode_rook_word(rook),
    )


def rook_word_to_parking_stages(word: Sequence[int]) -> IshToDyckStages:
    """The stages of ``ish_diagram_to_parking_stages``, read off the
    region's rook word.

    The diamond word puts the first occurrence of each letter a at position
    a; it cycles right until 1 sits in position d, the first d entries
    rotate right once, the symbols expand to label columns, components peel
    off from positions d down to 2, and the component of 1 is the one
    rotation of the rest that stays strictly above the diagonal, found by
    trying every rotation.
    """
    d = _rook_dof(word)
    if d is None:
        raise ValueError(f"{word!r} is not a rook word")
    n = len(word)
    partition = position_partition(word)
    block_of = {block[0]: block for block in partition}

    working: list[Union[int, Diamond]] = [DIAMOND] * n
    for first in block_of:
        working[word[first - 1] - 1] = first
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
    parking = dyck_to_word(columns)
    if position_partition(parking) != partition:
        raise AssertionError("parking word does not keep the ceiling partition")
    return IshToDyckStages(
        diamond_word=initial,
        cycle_index=cycle_index,
        after_cycling=after_cycling,
        after_prefix_rotation=after_prefix,
        components=tuple(components[i] for i in range(1, d + 1)),
        linear_order=order,
        word=parking,
    )


def rook_to_parking(word: Sequence[int]) -> tuple[int, ...]:
    """``freedom_rook_to_parking``."""
    return rook_word_to_parking_stages(word).word
