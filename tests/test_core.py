"""Words, permutations, set partitions, graphs."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shi_ish.core import (
    Graph,
    all_graphs,
    arcs,
    check_partition_of,
    check_permutation,
    check_word,
    cyclic_shift,
    identity_permutation,
    is_nonnesting,
    nonnesting_from_block_specs,
    partition_from_blocks,
    partition_from_pairs,
    partition_str,
    position_partition,
    set_partitions,
)

from reference import apply_permutation, connected_components, inverse_permutation, orbit

words = st.integers(1, 6).flatmap(
    lambda m: st.tuples(
        st.just(m), st.lists(st.integers(1, m), min_size=1, max_size=8)
    )
)
small_perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_check_word_rejects_out_of_range():
    with pytest.raises(ValueError):
        check_word((1, 5), 4)
    with pytest.raises(ValueError):
        check_word((0, 1), 3)
    assert check_word([2, 2, 1], 3) == (2, 2, 1)


def test_position_partition_groups_by_letter():
    assert position_partition((3, 1, 3, 2, 1)) == ((1, 3), (2, 5), (4,))
    with pytest.raises(ValueError):
        position_partition(())


@given(words)
def test_cyclic_shift_composes(mw):
    m, w = mw
    w = tuple(w)
    assert cyclic_shift(w, 0, m) == w
    assert cyclic_shift(cyclic_shift(w, 1, m), m - 1, m) == w
    for s, t in [(1, 2), (3, 4)]:
        assert cyclic_shift(cyclic_shift(w, s, m), t, m) == cyclic_shift(
            w, s + t, m
        )


@given(words)
def test_orbit_starts_at_identity_and_has_full_length(mw):
    m, w = mw
    shifts = orbit(w, m)
    assert len(shifts) == m
    assert shifts[0] == tuple(w)
    # shifting the whole orbit by one permutes it cyclically
    assert tuple(cyclic_shift(s, 1, m) for s in shifts) == shifts[1:] + shifts[:1]


@given(small_perms)
def test_inverse_permutation_is_an_involution(perm):
    perm = tuple(perm)
    inv = inverse_permutation(perm)
    assert inverse_permutation(inv) == perm
    n = len(perm)
    evens_odds = partition_from_blocks(
        b for b in ([x for x in range(1, n + 1) if x % 2],
                    [x for x in range(1, n + 1) if not x % 2]) if b
    )
    pushed = apply_permutation(perm, evens_odds)
    assert apply_permutation(inv, pushed) == evens_odds


def test_check_permutation():
    assert check_permutation((2, 1, 3)) == (2, 1, 3)
    assert check_permutation([3, 1, 2]) == (3, 1, 2)
    with pytest.raises(ValueError):
        check_permutation((1, 1, 3))
    with pytest.raises(ValueError):
        check_permutation((1, 3))
    assert identity_permutation(4) == (1, 2, 3, 4)


def test_partition_from_blocks_canonicalizes():
    assert partition_from_blocks([[3, 1], [2]]) == ((1, 3), (2,))
    with pytest.raises(ValueError):
        partition_from_blocks([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        partition_from_blocks([[]])


pair_lists = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=10),
    )
)


@given(pair_lists)
def test_partition_from_pairs_is_the_transitive_closure(case):
    n, pairs = case
    related = {(v, v) for v in range(1, n + 1)}
    related |= set(pairs) | {(j, i) for i, j in pairs}
    while True:
        closed = related | {(a, d) for a, b in related for c, d in related if b == c}
        if closed == related:
            break
        related = closed
    classes = {tuple(sorted(b for a, b in related if a == v)) for v in range(1, n + 1)}
    assert partition_from_pairs(n, pairs) == tuple(sorted(classes))


def test_partition_str():
    assert partition_str(((1, 4), (2, 3, 5))) == "1,4|2,3,5"
    assert partition_str(((1,),)) == "1"


def test_check_partition_of_wants_canonical_cover():
    check_partition_of(((1, 3), (2,)), 3)
    with pytest.raises(ValueError):
        check_partition_of(((2,), (1, 3)), 3)  # wrong block order
    with pytest.raises(ValueError):
        check_partition_of(((1, 3),), 3)  # misses 2


def test_arcs_and_nonnesting():
    assert arcs(((1, 2, 5), (3,), (4, 6))) == ((1, 2), (2, 5), (4, 6))
    assert is_nonnesting(((1, 2, 5), (3,), (4, 6)))
    assert not is_nonnesting(((1, 4), (2, 3)))
    # sharing an endpoint is fine
    assert is_nonnesting(((1, 3, 4), (2,)))


def test_connected_components_splits_at_gaps():
    parts = connected_components(((1, 3), (2,), (4,), (5, 6)))
    assert parts == (((1, 3), (2,)), ((4,),), ((5, 6),))
    assert connected_components(()) == ()
    assert len(connected_components(((1, 5), (2,), (3,), (4,)))) == 1


@given(st.integers(1, 6))
def test_set_partitions_hit_the_bell_numbers(n):
    bell = [1, 1, 2, 5, 15, 52, 203]
    seen = list(set_partitions(n))
    assert len(seen) == bell[n]
    assert len(set(seen)) == bell[n]
    for p in seen:
        check_partition_of(p, n)


@given(st.integers(1, 6))
def test_nonnesting_welding_agrees_with_filtering(n):
    """The FIFO construction yields exactly the nonnesting partitions."""
    welded = set()
    for p in set_partitions(n):
        if is_nonnesting(p):
            specs = [(block[0], len(block)) for block in p]
            welded.add(nonnesting_from_block_specs(specs, n))
    assert welded == {p for p in set_partitions(n) if is_nonnesting(p)}


def test_nonnesting_welding_fixture():
    got = nonnesting_from_block_specs([(1, 4), (3, 1), (4, 2), (7, 1)], 8)
    assert got == ((1, 2, 5, 8), (3,), (4, 6), (7,))
    with pytest.raises(ValueError):
        nonnesting_from_block_specs([(1, 2)], 3)
    with pytest.raises(ValueError):
        nonnesting_from_block_specs([(2, 3)], 3)  # position 1 unassignable


@pytest.mark.parametrize("n", range(1, 7))
def test_welded_partitions_are_canonical(n):
    """The welded blocks are returned as built, sorted by minimum; they
    must already be what ``partition_from_blocks`` makes of them."""
    for p in set_partitions(n):
        if is_nonnesting(p):
            specs = [(block[0], len(block)) for block in reversed(p)]
            welded = nonnesting_from_block_specs(specs, n)
            assert welded == partition_from_blocks(welded) == p
            assert check_partition_of(welded, n) == welded


def _min_rule_welding(specs, n):
    """The welding rule as first written: a position joins the open block
    whose last element is smallest, found by a linear scan."""
    size_at = dict(specs)
    open_blocks, done = [], []
    for p in range(1, n + 1):
        if p in size_at:
            block = [p]
        else:
            if not open_blocks:
                raise ValueError(f"unassignable position {p}")
            block = min(open_blocks, key=lambda b: b[-1])
            open_blocks.remove(block)
            block.append(p)
        if len(block) == size_at[block[0]]:
            done.append(tuple(block))
        else:
            open_blocks.append(block)
    return partition_from_blocks(done)


def _welding_outcome(function, specs, n):
    try:
        return function(specs, n)
    except ValueError as exc:
        return str(exc)


def test_fifo_welding_is_the_min_rule():
    """On the block specs of every parking function with n <= 6, and on
    every set of distinct minima in [n] with sizes summing to n <= 5 (the
    unassignable ones included), the queue picks the block the min-rule
    picks."""
    from shi_ish.parking import parking_functions

    checked = 0
    for n in range(1, 7):
        for word in parking_functions(n):
            specs = [(letter, word.count(letter)) for letter in dict.fromkeys(word)]
            assert nonnesting_from_block_specs(specs, n) == _min_rule_welding(specs, n), word
            checked += 1
    assert checked == sum((n + 1) ** (n - 1) for n in range(1, 7))
    refused = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for minima in itertools.combinations(range(1, n + 1), k):
                for sizes in itertools.product(range(1, n + 1), repeat=k):
                    if sum(sizes) != n:
                        continue
                    specs = list(zip(minima, sizes))
                    got = _welding_outcome(nonnesting_from_block_specs, specs, n)
                    assert got == _welding_outcome(_min_rule_welding, specs, n), specs
                    refused += isinstance(got, str)
    assert refused > 0


def test_apply_permutation_relabels_blocks():
    got = apply_permutation((2, 3, 1), ((1, 2), (3,)))
    assert got == ((1,), (2, 3))


def test_graph_constructors_and_edges():
    k4 = Graph.complete(4)
    assert len(k4.edges) == 6
    assert (2, 4) in k4.edges and (4, 2) not in k4.edges
    p4 = Graph.path(4)
    assert p4.sorted_edges() == ((1, 2), (2, 3), (3, 4))
    assert Graph.empty(3).edges == frozenset()
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))


def test_complete_graph_holds_every_pair_per_n():
    for n in range(1, 9):
        assert Graph.complete(n) == Graph(n, frozenset(itertools.combinations(range(1, n + 1), 2)))
    with pytest.raises(ValueError):
        Graph.complete(0)


def test_complete_graph_of_a_subclass_is_fresh():
    class Tagged(Graph):
        pass

    k = Tagged.complete(4)
    assert type(k) is Tagged and k is not Tagged.complete(4)
    assert k.edges == Graph.complete(4).edges


def test_graph_json_roundtrip():
    assert Graph.from_json({"n": 5, "edges": [[1, 3], [2, 5]]}) == Graph(5, frozenset({(1, 3), (2, 5)}))


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
def test_all_graphs_counts(n, count):
    graphs = list(all_graphs(n))
    assert len(graphs) == count
    assert len(set(graphs)) == count
    assert graphs[0] == Graph.empty(n)
    assert graphs[-1] == Graph.complete(n)


def test_all_graphs_are_ordered_by_edge_count():
    sizes = [len(g.edges) for g in all_graphs(4)]
    assert sizes == sorted(sizes)
    assert sizes == [
        len(c)
        for k in range(7)
        for c in itertools.combinations(range(6), k)
    ]


def _edges_one_by_one(n, edges):
    """The edge check as a loop over the edges, as ``Graph`` made it before
    its bound became a local: the first bad edge is named, and an edge that
    is no pair raises as unpacking it does."""
    for i, j in frozenset(edges):
        if not (1 <= i < j <= n):
            raise ValueError(f"bad edge ({i}, {j}) on [1, {n}]")


def _outcome(function, *args):
    try:
        function(*args)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "edges, raised",
    [
        ({(1, 2), (0, 3)}, (ValueError, "bad edge (0, 3) on [1, 4]")),  # a vertex 0
        ({(1, 2), (3, 3)}, (ValueError, "bad edge (3, 3) on [1, 4]")),  # i == j
        ({(1, 2), (4, 2)}, (ValueError, "bad edge (4, 2) on [1, 4]")),  # i > j
        ({(1, 2), (2, 5)}, (ValueError, "bad edge (2, 5) on [1, 4]")),  # j > n
        ({(1, 2), (1, 2, 3)}, (ValueError, "too many values to unpack (expected 2)")),
        ({(1, 2), (3,)}, (ValueError, "not enough values to unpack (expected 2, got 1)")),
        ({(1, 2, 3)}, (ValueError, "too many values to unpack (expected 2)")),
        ({(1, 2), 7}, (TypeError, "cannot unpack non-iterable int object")),
        ({(1, 2), (1, "3")}, (TypeError, "'<' not supported between instances of 'int' and 'str'")),
    ],
)
def test_a_bad_edge_raises_as_the_edge_loop_does(edges, raised):
    assert _outcome(Graph, 4, frozenset(edges)) == raised
    assert _outcome(_edges_one_by_one, 4, edges) == raised


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_every_edge_set_of_a_graph_passes_as_the_edge_loop_does(n):
    pairs = list(itertools.combinations(range(0, n + 2), 2)) + [(2, 1), (3, 3)]
    for k in range(40):
        edges = frozenset(pairs[k * 7919 % len(pairs) :: k + 1][: k % 9])
        assert _outcome(Graph, n, edges) == _outcome(_edges_one_by_one, n, edges), edges


def test_a_large_n_with_few_edges_builds_no_complete_graph():
    graph = Graph(10**9, frozenset({(1, 2), (5, 10**9)}))
    assert graph.sorted_edges() == ((1, 2), (5, 10**9))
    with pytest.raises(ValueError, match=r"bad edge \(5, 1000000001\)"):
        Graph(10**9, frozenset({(1, 2), (5, 10**9 + 1)}))
