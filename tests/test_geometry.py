"""Geometric region enumeration and the combinatorial cross-check."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shi_ish import exactlp, geometry
from shi_ish.core import Graph, all_graphs
from shi_ish.geometry import (
    _measure_regions,
    build_arrangement,
    check_region,
    cross_validate,
    enumerate_regions,
    enumerate_regions_sweep,
    oracle_pass,
    oracle_report,
    recession_dimension,
    recession_dimension_lp,
    region_ceiling_partition,
    region_ceilings,
    region_dominant,
    region_order,
)

KINDS = ("cox", "shi", "ish")


def test_build_arrangement_validation():
    with pytest.raises(ValueError):
        build_arrangement("semi", 3)
    with pytest.raises(ValueError):
        build_arrangement("shi", 0)
    with pytest.raises(ValueError):
        build_arrangement("shi", 3, Graph.complete(4))


def test_build_arrangement_hyperplanes():
    assert len(build_arrangement("cox", 4).hyperplanes) == 6
    assert len(build_arrangement("shi", 4).hyperplanes) == 12
    assert len(build_arrangement("ish", 4).hyperplanes) == 12
    arr = build_arrangement("ish", 3, Graph(3, frozenset({(1, 2)})))
    assert [h.tag for h in arr.hyperplanes] == [
        ("cox", 1, 2), ("cox", 1, 3), ("cox", 2, 3), ("ish", 1, 2),
    ]
    # the ish hyperplane x_1 - x_2 = 1 has the expected data
    assert arr.hyperplanes[-1].normal == (1, -1, 0)
    assert arr.hyperplanes[-1].offset == 1


@pytest.mark.parametrize("kind,count", [("cox", 6), ("shi", 16), ("ish", 16)])
def test_region_counts_n3(kind, count):
    arr = build_arrangement(kind, 3)
    regions = enumerate_regions(arr)
    assert len(regions) == count
    for r in regions:
        assert check_region(arr, r)


def test_region_counts_subgraph():
    arr = build_arrangement("ish", 3, Graph.path(3))
    assert len(enumerate_regions(arr)) == 13
    arr = build_arrangement("shi", 3, Graph.path(3))
    assert len(enumerate_regions(arr)) == 13


@pytest.mark.parametrize("kind", KINDS)
def test_incremental_agrees_with_sign_sweep(kind):
    """The incremental enumerator and the brute-force sweep over all sign
    vectors produce the same set of regions."""
    arr = build_arrangement(kind, 3)
    fast = {r.signs for r in enumerate_regions(arr)}
    slow = {r.signs for r in enumerate_regions_sweep(arr)}
    assert fast == slow


def test_incremental_agrees_with_sweep_on_subgraph():
    arr = build_arrangement("ish", 3, Graph(3, frozenset({(1, 3), (2, 3)})))
    assert {r.signs for r in enumerate_regions(arr)} == {
        r.signs for r in enumerate_regions_sweep(arr)
    }


@pytest.mark.parametrize("kind", ["shi", "ish"])
def test_insertion_order_does_not_matter(kind):
    arr = build_arrangement(kind, 3)
    base = {r.signs for r in enumerate_regions(arr)}
    rng = random.Random(0)
    for _ in range(5):
        order = list(range(len(arr.hyperplanes)))
        rng.shuffle(order)
        shuffled = enumerate_regions(arr, insertion_order=order)
        assert {r.signs for r in shuffled} == base
        assert all(check_region(arr, r) for r in shuffled)
    with pytest.raises(ValueError):
        enumerate_regions(arr, insertion_order=[0, 0, 1])


def test_region_order_and_dominance():
    arr = build_arrangement("cox", 2)
    assert [region_order(arr, r) for r in enumerate_regions(arr)] == [
        (1, 2), (2, 1),
    ]
    arr3 = build_arrangement("cox", 3)
    orders = {region_order(arr3, r) for r in enumerate_regions(arr3)}
    assert len(orders) == 6
    dominant = [r for r in enumerate_regions(arr3) if region_dominant(arr3, r)]
    assert len(dominant) == 1
    assert region_order(arr3, dominant[0]) == (1, 2, 3)


def test_dominant_far_chamber_has_no_ceilings():
    """The all-plus chamber (every signed form positive) is dominant and sits
    above every affine hyperplane, so nothing bounds it from the origin
    side."""
    arr = build_arrangement("shi", 3)
    all_plus = next(
        r for r in enumerate_regions(arr) if all(s == 1 for s in r.signs)
    )
    assert region_dominant(arr, all_plus)
    assert region_ceilings(arr, all_plus) == ()
    assert recession_dimension(arr, all_plus) == 3


def test_shi_region_with_one_ceiling():
    """Shi(3) has a region whose single ceiling is x_1 - x_3 = 1, with
    ceiling partition {{1,3},{2}}."""
    arr = build_arrangement("shi", 3)
    hits = [
        r
        for r in enumerate_regions(arr)
        if [h.tag for h in region_ceilings(arr, r)] == [("shi", 1, 3)]
    ]
    assert hits
    assert {region_ceiling_partition(arr, r) for r in hits} == {((1, 3), (2,))}


def test_ish_region_with_two_ceilings():
    """Ish(3) has a region with ceilings x_1 - x_2 = 1 and x_1 - x_3 = 2,
    whose ceiling partition is the single block {1,2,3}."""
    arr = build_arrangement("ish", 3)
    hits = [
        r
        for r in enumerate_regions(arr)
        if {h.tag for h in region_ceilings(arr, r)}
        == {("ish", 1, 2), ("ish", 2, 3)}
    ]
    assert hits
    for r in hits:
        assert region_ceiling_partition(arr, r) == ((1, 2, 3),)
        assert recession_dimension(arr, r) == 1


def graphs_for(kind):
    """Every graph at n <= 4, or the empty graph for Cox(n), n <= 4."""
    if kind == "cox":
        return [Graph.empty(n) for n in (1, 2, 3, 4)]
    return [g for n in (1, 2, 3, 4) for g in all_graphs(n)]


def seeded_graph_n5(seed):
    """A graph on [5] with 5 edges drawn by ``random.Random(seed)``."""
    return Graph(5, frozenset(random.Random(seed).sample(list(itertools.combinations(range(1, 6), 2)), 5)))


@functools.lru_cache(maxsize=None)
def lp_dofs(kind, graph):
    """:func:`recession_dimension_lp` of every region, in enumeration order."""
    arr = build_arrangement(kind, graph.n, graph)
    return tuple(recession_dimension_lp(arr, r) for r in enumerate_regions(arr))


@pytest.mark.parametrize("kind", KINDS)
def test_recession_dimension_against_lp_probe(kind):
    """The interval rule matches the slow one-probe-per-hyperplane version
    on every region of every graph at n <= 4 (Cox(n) has no graph)."""
    for graph in graphs_for(kind):
        arr = build_arrangement(kind, graph.n, graph)
        for r, slow in zip(enumerate_regions(arr), lp_dofs(kind, graph)):
            fast = recession_dimension(arr, r)
            assert fast == slow, (graph, r)
            assert 1 <= fast <= graph.n


@pytest.mark.parametrize(
    "kind, graphs",
    [(kind, graphs_for(kind)) for kind in KINDS]
    + [(kind, [seeded_graph_n5(0), seeded_graph_n5(1)]) for kind in ("shi", "ish")],
    ids=[*KINDS, "shi-n5", "ish-n5"],
)
def test_read_off_equals_the_solver_references(kind, graphs):
    """The oracle reads each region's ceilings off its neighbours' sign
    vectors and its dof off intervals of its order; on every region both
    equal the solver-backed references :func:`region_ceilings` and
    :func:`recession_dimension_lp`."""
    for graph in graphs:
        arr = build_arrangement(kind, graph.n, graph)
        measured = _measure_regions(arr)
        assert [entry.dof for entry in measured] == list(lp_dofs(kind, graph)), graph
        for entry in measured:
            assert entry.ceilings == region_ceilings(arr, entry.region), (graph, entry.region)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hyperplanes_are_pairwise_distinct(n):
    """The ceiling read-off flips one sign at a time, which is exact only
    when no two hyperplanes of an arrangement coincide."""
    for kind in KINDS:
        for graph in [Graph.empty(n)] if kind == "cox" else all_graphs(n):
            hyperplanes = build_arrangement(kind, n, graph).hyperplanes
            # a hyperplane is its (normal, offset) up to sign: fix the sign
            # of the normal's first nonzero entry
            planes = set()
            for h in hyperplanes:
                flip = 1 if next(a for a in h.normal if a) > 0 else -1
                planes.add((tuple(flip * a for a in h.normal), flip * h.offset))
            assert len(planes) == len(hyperplanes), (kind, graph)


def test_oracle_pass_solves_only_inside_the_enumeration(monkeypatch):
    """Once the regions are enumerated, the oracle measures them without a
    solver call: a pass makes exactly the solver calls of a bare
    ``enumerate_regions``."""
    calls = {}

    def counting(module, name):
        solve = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return solve(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("_arcs_feasible", "difference_feasible", "strict_feasible"):
        counting(geometry, name)
    counting(exactlp, "_arcs_feasible")
    for kind in KINDS:
        graph = Graph.empty(4) if kind == "cox" else Graph(4, frozenset({(1, 3), (2, 4), (3, 4)}))
        calls.clear()
        enumerate_regions(build_arrangement(kind, 4, graph))
        bare = dict(calls)
        calls.clear()
        oracle_pass(kind, 4, graph)
        assert calls == bare, kind
        assert bare["strict_feasible"] > 0
        # the split probes read the shortest-path matrices, not Bellman-Ford
        assert "_arcs_feasible" not in bare


def test_the_enumeration_builds_fractions_only_for_finished_witnesses(monkeypatch):
    """Witnesses stay integers over a denominator, from the simplex on, until
    the finished regions: one ``Fraction`` per witness coordinate."""
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(geometry, "Fraction", counted)
    monkeypatch.setattr(exactlp, "Fraction", counted)
    for kind in KINDS:
        graph = Graph.empty(4) if kind == "cox" else Graph(4, frozenset({(1, 3), (2, 4), (3, 4)}))
        built.clear()
        regions = enumerate_regions(build_arrangement(kind, 4, graph))
        assert len(built) == 4 * len(regions), kind


def recorded_probes(monkeypatch, arr):
    """``(signs, key, refuted)`` for every split probe of one enumeration."""
    probes = []
    probe = geometry._refuted

    def recording(signs, dist, pred, arcs, key):
        refuted = probe(signs, dist, pred, arcs, key)
        probes.append((dict(signs), key, refuted))
        return refuted

    monkeypatch.setattr(geometry, "_refuted", recording)
    enumerate_regions(arr)
    monkeypatch.undo()
    return probes


@pytest.mark.parametrize("kind", KINDS)
def test_every_split_probe_decides_as_the_difference_solver(monkeypatch, kind):
    """Each probe read off a region's shortest-path matrix refutes a side
    exactly when :func:`shi_ish.exactlp.difference_feasible` finds no point
    in it, on the same rows, for every arrangement at n <= 4."""
    refutations = 0
    for graph in graphs_for(kind):
        arr = build_arrangement(kind, graph.n, graph)
        for signs, (idx, side), refuted in recorded_probes(monkeypatch, arr):
            rows = [geometry._signed_row(arr.hyperplanes[k], sign) for k, sign in signs.items()]
            rows.append(geometry._signed_row(arr.hyperplanes[idx], side))
            assert refuted == (exactlp.difference_feasible(rows, graph.n) is None), (graph, signs, idx, side)
            refutations += refuted
    assert refutations > 0


#: arcs u -> v of weight value * 4 + epsilon-count on three coordinates:
#: x_1 - x_2 = 2 (0), x_1 - x_2 = 3 (1), x_0 - x_2 = 0 (2), x_0 - x_1 = 1 (3)
WALK_ARCS = {
    (0, 1): (1, 2, -9), (0, -1): (2, 1, 7),
    (1, 1): (1, 2, -13), (1, -1): (2, 1, 11),
    (2, 1): (0, 2, -1), (2, -1): (2, 0, -1),
    (3, 1): (0, 1, -5), (3, -1): (1, 0, 3),
}
#: 2 < x_1 - x_2 < 3 and x_0 - x_1 > 1, so x_0 > x_2 + 3
WALK_SIGNS = {0: 1, 1: -1, 3: 1}


@pytest.mark.parametrize(
    "last_arcs",
    [
        {2: (1, 1)},  # an arc the region does not have: x_1 - x_2 > 3
        {2: (3, 1)},  # a region arc that ends elsewhere
        {1: (1, -1)},  # region arcs that chain but never reach the source
    ],
    ids=["foreign", "unchained", "open"],
)
def test_the_refutation_walk_checks_every_arc(last_arcs):
    """The side x_0 < x_2 is empty, and the recorded path 0 -> 1 -> 2 of
    weight -14 closes a negative cycle with its arc; a path record that
    names a foreign arc, breaks the chain or never closes raises."""
    n = 3
    dist = [[0 if x == y else None for y in range(n)] for x in range(n)]
    pred = [[None] * n] * n
    for key in WALK_SIGNS.items():
        dist, pred = geometry._with_arc(dist, pred, WALK_ARCS, key)
    assert (dist[0][2], pred[0][2], pred[0][1]) == (-14, (0, 1), (3, 1))
    assert geometry._refuted(WALK_SIGNS, dist, pred, WALK_ARCS, (2, -1))
    assert not geometry._refuted(WALK_SIGNS, dist, pred, WALK_ARCS, (2, 1))
    pred = [list(row) for row in pred]
    for y, last in last_arcs.items():
        pred[0][y] = last
    with pytest.raises(ArithmeticError):
        geometry._refuted(WALK_SIGNS, dist, pred, WALK_ARCS, (2, -1))


def tampered_enumeration(monkeypatch, arr, call, tamper):
    """``enumerate_regions(arr)`` with ``tamper(dist, pred, arcs)`` applied
    to the matrices of the ``call``-th arc insertion, or the exception it
    raised."""
    insert = geometry._with_arc
    count = itertools.count()

    def tampering(dist, pred, arcs, key):
        dist, pred = insert(dist, pred, arcs, key)
        if next(count) == call:
            dist, pred = [list(row) for row in dist], [list(row) for row in pred]
            tamper(dist, pred, arcs)
        return dist, pred

    monkeypatch.setattr(geometry, "_with_arc", tampering)
    try:
        return enumerate_regions(arr)
    except (ArithmeticError, AssertionError) as error:
        return error
    finally:
        monkeypatch.undo()


def lower_distance(dist, pred, arcs):
    """Claim a path far shorter than any, on every finite entry."""
    for row in dist:
        for y, d in enumerate(row):
            if d:
                row[y] = d - 10**6


def drop_distance(dist, pred, arcs):
    """Claim that no path exists where one does."""
    for row in dist:
        for y, d in enumerate(row):
            if d:
                row[y] = None


def flip_predecessor(dist, pred, arcs):
    """Name the opposite side of each recorded last arc."""
    for row in pred:
        for y, last in enumerate(row):
            if last is not None:
                row[y] = (last[0], -last[1])


def lightest_predecessor(dist, pred, arcs, ends_at_target):
    """Name the lightest arc of the whole arrangement as the last arc of
    every path, among the arcs that end at the path's target or among those
    that do not, and claim the path is far shorter."""
    for row, lasts in zip(dist, pred):
        for y, last in enumerate(lasts):
            if last is not None:
                keys = [key for key, (_, t, _) in arcs.items() if (t == y) == ends_at_target]
                lasts[y] = min(keys, key=lambda key: arcs[key][2])
                row[y] -= 10**6


def foreign_predecessor(dist, pred, arcs):
    lightest_predecessor(dist, pred, arcs, True)


def unchained_predecessor(dist, pred, arcs):
    lightest_predecessor(dist, pred, arcs, False)


@pytest.mark.parametrize(
    "tamper",
    [lower_distance, drop_distance, flip_predecessor, foreign_predecessor, unchained_predecessor],
    ids=lambda tamper: tamper.__name__,
)
def test_a_tampered_matrix_raises_and_never_drops_or_keeps_a_side(monkeypatch, tamper):
    """Corrupting the matrices of one arc insertion either raises or leaves
    the enumeration exactly as it was; on these arrangements it raises at
    least once."""
    raised = 0
    for kind, graph in [("shi", Graph.complete(3)), ("ish", Graph.complete(3)), ("shi", Graph.path(4))]:
        arr = build_arrangement(kind, graph.n, graph)
        reference = enumerate_regions(arr)
        for call in range(0, 60, 3):
            result = tampered_enumeration(monkeypatch, arr, call, tamper)
            if isinstance(result, Exception):
                raised += 1
            else:
                assert result == reference, (kind, graph, call)
    assert raised > 0


@pytest.mark.parametrize(
    "kind, graph, order",
    [
        ("shi", Graph.complete(4), None),
        ("ish", Graph.complete(4), None),
        ("ish", Graph(5, frozenset({(1, 3), (2, 5)})), None),
        ("shi", Graph.complete(3), (5, 2, 0, 4, 1, 3)),
    ],
)
def test_only_the_insertions_before_the_last_build_matrices(monkeypatch, kind, graph, order):
    """No probe follows the last hyperplane, so no child of its insertion
    gets a matrix.  Each earlier split gives two children, each with its
    arc: 2 * (r - 1) calls of ``_with_arc``, where r counts the regions of
    the arrangement without the last hyperplane.  The regions are the sign
    sweep's, each with a witness that checks."""
    arr = build_arrangement(kind, graph.n, graph)
    last = len(arr.hyperplanes) - 1 if order is None else order[-1]
    insert = geometry._with_arc
    keys = []

    def counted(dist, pred, arcs, key):
        keys.append(key)
        return insert(dist, pred, arcs, key)

    monkeypatch.setattr(geometry, "_with_arc", counted)
    regions = enumerate_regions(arr, order)
    monkeypatch.undo()
    earlier = dataclasses.replace(arr, hyperplanes=arr.hyperplanes[:last] + arr.hyperplanes[last + 1 :])
    assert len(keys) == 2 * (len(enumerate_regions(earlier)) - 1)
    assert all(idx != last for idx, _ in keys)
    assert sorted(r.signs for r in regions) == sorted(r.signs for r in enumerate_regions_sweep(arr))
    assert all(check_region(arr, r) for r in regions)


def test_coxeter_regions_are_full_dimensional_cones():
    arr = build_arrangement("cox", 4)
    for r in enumerate_regions(arr):
        assert recession_dimension(arr, r) == 4
        assert region_ceilings(arr, r) == ()


@pytest.mark.parametrize("kind", KINDS)
def test_cross_validate_n3(kind):
    report = cross_validate(kind, 3)
    assert report["ok"], report["mismatches"]
    assert report["matched"] == report["region_count"] == report["formula_count"]


def test_cross_validate_subgraphs():
    report = cross_validate("ish", 3, Graph.path(3))
    assert report["ok"]
    assert report["region_count"] == 13
    report = cross_validate("shi", 4, Graph(4, frozenset({(1, 2), (3, 4)})))
    assert report["ok"]


@pytest.mark.parametrize("kind", ("shi", "ish"))
@given(
    st.sets(st.sampled_from(list(itertools.combinations(range(1, 6), 2))), min_size=2, max_size=6)
)
@settings(max_examples=3, deadline=None)
def test_cross_validate_random_graphs_n5(kind, edges):
    """Geometry and the diagram catalog agree beyond the exhaustive n <= 4."""
    report = cross_validate(kind, 5, Graph(5, frozenset(edges)))
    assert report["ok"], report["mismatches"][:3]


def test_oracle_pass_matches_separate_calls():
    graph = Graph(4, frozenset({(1, 3), (2, 4)}))
    for kind in KINDS:
        validation, report = oracle_pass(kind, 4, graph)
        assert validation == cross_validate(kind, 4, graph)
        assert report == oracle_report(kind, 4, graph)


def test_oracle_report_shape():
    report = oracle_report("ish", 3, Graph.path(3))
    summary = report["summary"]
    assert summary["region_count"] == 13
    assert sum(summary["by_dof"].values()) == 13
    assert (
        summary["by_dominance"]["dominant"]
        + summary["by_dominance"]["non_dominant"]
        == 13
    )
    assert sum(summary["by_ceiling_partition"].values()) == 13
    assert report["arrangement"] == {"kind": "ish", "n": 3, "edges": [[1, 2], [2, 3]]}
    for entry in report["regions"]:
        assert len(entry["signs"]) == 5
        # witnesses serialize as exact fraction strings
        assert all(Fraction(w) is not None for w in entry["witness"])
        assert isinstance(entry["dof"], int)
