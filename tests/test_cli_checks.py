"""The verify and map checks fail when they should, and bad input is refused.

Each failure-path test falsifies one statistic or one inverse inside the CLI
or verify module and checks the report the run gives.  The fake is swapped
in wherever either module holds the original: as a module global or as a
value of a module-level dict such as the bijection table.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shi_ish.cli as cli
import shi_ish.verify as verify
from shi_ish.cli import main
from shi_ish.core import Graph, all_graphs
from shi_ish.ish import IshCeilingDiagram, ish_statistics
from shi_ish.parking import parking_functions
from shi_ish.shi import ShiCeilingDiagram

from reference import (
    inverse_permutation,
    ish_diagram_to_parking,
    ish_diagram_to_rook_word,
    ish_diagrams,
    parking_to_ish_diagram,
)

SUITES = [
    "cycle-lemma",
    "thm-basic",
    "thm-dominance",
    "thm-bounded",
    "thm-freedom",
    "formulas",
    "negative-controls",
    "factorization-candidates",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rebind(monkeypatch, original, fake):
    for module in (cli, verify):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, fake)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        monkeypatch.setitem(value, key, fake)


def falsify_shi_statistic(monkeypatch, field, change):
    """The CLI reads a Shi image's statistics off its parking word, through
    the check that the word labels a region of Shi(G): ``map`` through
    ``region_word_statistics``, the theorem sweeps through its float-free
    core ``_word_statistics``."""
    for real in (cli.region_word_statistics, verify._word_statistics):

        def fake(word, graph_or_edges, real=real):
            stats = real(word, graph_or_edges)
            return stats and stats._replace(**{field: change(getattr(stats, field))})

        rebind(monkeypatch, real, fake)


def bump(value):
    return value + 1


def reverse(partition):
    return partition[::-1]


def negate(flag):
    return not flag


# ---------------------------------------------------------------------------
# failure paths


@pytest.mark.parametrize(
    "suite, field, change, label",
    [
        ("thm-dominance", "ceiling_partition", reverse, "ceiling partition broken: "),
        ("thm-dominance", "dominant", negate, "dominance broken: "),
        ("thm-bounded", "dof", bump, "image not relatively bounded: "),
        ("thm-bounded", "ceiling_partition", reverse, "ceiling partition broken: "),
        ("thm-freedom", "ceiling_partition", reverse, "ceiling partition broken: "),
        ("thm-freedom", "dof", bump, "dof broken: "),
    ],
)
def test_falsified_statistic_fails_the_sweep(suite, field, change, label, capsys, monkeypatch):
    falsify_shi_statistic(monkeypatch, field, change)
    code, out, err = run(capsys, "verify", "--n", "3", "--suite", suite)
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert "FAIL" in err
    failures = doc["report"]["failures"]
    assert failures
    for failure in failures:
        assert failure["ok"] is False
        assert failure["detail"].startswith(label + "IshCeilingDiagram(")


@pytest.mark.parametrize("suite", ["thm-dominance", "thm-freedom"])
def test_falsified_inverse_fails_the_sweep(suite, capsys, monkeypatch):
    """The sweep walks each graph's rook words in lexicographic order, so
    the first region checked on K_2 is the one of the word (1, 1)."""
    name = suite.removeprefix("thm-")
    rebind(monkeypatch, getattr(verify, f"{name}_parking_to_rook"), lambda word: None)
    code, out, _ = run(capsys, "verify", "--n", "2", "--suite", suite)
    doc = json.loads(out)
    assert code == 1
    assert doc["report"]["failures"] == [
        {"edges": [], "ok": False, "detail": "roundtrip broken: IshCeilingDiagram(pi=(1, 2), eps=(0, 0))"},
        {"edges": [[1, 2]], "ok": False, "detail": "roundtrip broken: IshCeilingDiagram(pi=(1, 2), eps=(0, 1))"},
    ]
    assert doc["report"]["regions_checked"] == 0


def test_falsified_inverse_fails_thm_basic(capsys, monkeypatch):
    """The first region checked is the one of the rook word (1, 1, 1)."""
    rebind(monkeypatch, verify.basic_parking_to_rook, lambda word: None)
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "thm-basic")
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert doc["report"] == {
        "n": 3,
        "regions": 0,
        "detail": "roundtrip broken at IshCeilingDiagram(pi=(1, 2, 3), eps=(0, 1, 2))",
    }


def parking_roundtrip_reference(n):
    """The parking round trip as ``thm-freedom`` once ran it after the
    sweep: every parking word of size n through the inverse and back."""
    return all(
        ish_diagram_to_parking(parking_to_ish_diagram(word)) == word for word in parking_functions(n)
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_parking_roundtrip_is_the_reference_loop(n, capsys):
    """The K_n run of the sweep certifies the round trip: the suite reports
    what the loop it replaced would have reported."""
    assert Graph.complete(n) in verify._sweep_graphs(n, False, "thm-freedom")
    code, out, _ = run(capsys, "verify", "--n", str(n), "--suite", "thm-freedom")
    doc = json.loads(out)
    reference = parking_roundtrip_reference(n)
    assert reference is True
    assert doc["report"]["parking_roundtrip"] is reference
    assert doc["passed"] is (not doc["report"]["failures"] and reference)
    assert code == 0


def _same_statistics_pair(n):
    """Two regions of Ish(K_n) with the same ceiling partition and degrees
    of freedom: exchanging them keeps every statistic and the image set."""
    seen = {}
    for diagram in ish_diagrams(n):
        key = ish_statistics(diagram)[:2]
        if key in seen:
            return seen[key], diagram
        seen[key] = diagram
    raise AssertionError(f"no two regions of Ish(K_{n}) share their statistics")


def _exchanged(function, a, b):
    """``function`` with its arguments a and b exchanged."""
    return lambda x: function(b if x == a else a if x == b else x)


@pytest.mark.parametrize("target", ["forward", "inverse", "module inverse"])
def test_broken_freedom_roundtrip_fails_the_suite(target, capsys, monkeypatch):
    """A forward map or an inverse that is off on two regions of the same
    statistics keeps the statistics and the image set; the round trip of
    the K_n run must still catch it."""
    n = 3
    first, second = map(ish_diagram_to_rook_word, _same_statistics_pair(n))
    if target == "forward":
        forward = verify._PARKING_MAPS["freedom"]
        monkeypatch.setitem(verify._PARKING_MAPS, "freedom", _exchanged(forward, first, second))
    else:
        inverse = verify.freedom_parking_to_rook
        words = [verify.freedom_rook_to_parking(w) for w in (first, second)]
        broken = _exchanged(inverse, *words)
        if target == "inverse":
            monkeypatch.setitem(verify._INVERSES, "freedom", broken)
        else:
            rebind(monkeypatch, inverse, broken)
            assert verify._INVERSES["freedom"] is broken
    code, out, _ = run(capsys, "verify", "--n", str(n), "--suite", "thm-freedom")
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert "parking_roundtrip" not in doc["report"]
    complete = [list(edge) for edge in Graph.complete(n).sorted_edges()]
    (failure,) = [f for f in doc["report"]["failures"] if f["edges"] == complete]
    assert failure["detail"].startswith("roundtrip broken: IshCeilingDiagram(")


def test_sweep_lists_every_failing_graph(capsys, monkeypatch):
    falsify_shi_statistic(monkeypatch, "dof", bump)
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "thm-freedom")
    report = json.loads(out)["report"]
    assert code == 1
    assert report["graphs"] == 8
    assert [f["edges"] for f in report["failures"]] == [
        list(map(list, g.sorted_edges())) for g in all_graphs(3)
    ]


@pytest.mark.parametrize(
    "word, prime, failing",
    [((1, 1, 2), False, "orbit uniqueness"), ((1, 2, 2), True, "prime orbit uniqueness")],
)
def test_failed_orbit_certificate_is_a_failed_check(word, prime, failing, capsys, monkeypatch):
    real = verify.orbit_certificate
    refused = (word, prime)
    message = f"orbit of {word!r} refused"

    def fake(w, prime=False):
        if (tuple(w), prime) == refused:
            raise ValueError(message)
        return real(w, prime=prime)

    rebind(monkeypatch, real, fake)
    code, out, err = run(capsys, "verify", "--n", "3", "--suite", "cycle-lemma")
    assert code == 1
    assert "FAIL" in err
    doc = json.loads(out)
    assert doc["passed"] is False
    checks = {check["name"]: check for check in doc["report"]["checks"]}
    assert checks.pop(failing)["detail"] == message
    assert all(check["ok"] and "detail" not in check for check in checks.values())


def test_falsified_position_partition_fails_both_beta_checks(capsys, monkeypatch):
    rebind(monkeypatch, verify._position_partition, lambda word: tuple(word))
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "cycle-lemma")
    assert code == 1
    assert [(c["name"], c["ok"]) for c in json.loads(out)["report"]["checks"]] == [
        ("orbit uniqueness", True),
        ("beta preserves position partitions", False),
        ("prime orbit uniqueness", True),
        ("beta-prime preserves position partitions", False),
    ]


@pytest.mark.parametrize(
    "bijection, diagram, field, change, line",
    [
        ("dominance", {"pi": [1, 3, 2], "eps": [0, 0, 1]}, "ceiling_partition", reverse,
         "FAIL: ceiling partition not preserved"),
        ("dominance", {"pi": [1, 3, 2], "eps": [0, 0, 1]}, "dominant", negate,
         "FAIL: dominance not preserved"),
        ("bounded", {"pi": [1, 3, 2], "eps": [0, 0, 1]}, "dof", bump,
         "FAIL: image is not relatively bounded"),
        ("freedom", {"pi": [1, 3, 2], "eps": [0, 0, 1]}, "dof", bump,
         "FAIL: degrees of freedom not preserved"),
    ],
)
def test_falsified_statistic_fails_map(
    bijection, diagram, field, change, line, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram))
    falsify_shi_statistic(monkeypatch, field, change)
    code, out, err = run(capsys, "map", "--n", "3", "--bijection", bijection, "--input", str(path))
    assert code == 1
    assert json.loads(out)["bijection"] == bijection
    assert err.splitlines() == [line]


INCOHERENT = ShiCeilingDiagram((3, 2, 1), ((1, 2), (3,)))  # pi decreases along a block
NOT_PARKING = (3, 3, 3)  # no letter at most 1: labels no Shi region


@pytest.mark.parametrize(
    "suite, label",
    [
        ("thm-dominance", "image invalid for G: "),
        ("thm-bounded", "image invalid for G: "),
        ("thm-freedom", "image invalid for G: "),
        ("thm-basic", "image invalid for G: "),
    ],
)
def test_incoherent_image_is_a_failed_check(suite, label, capsys, monkeypatch):
    monkeypatch.setitem(verify._PARKING_MAPS, suite.removeprefix("thm-"), lambda diagram: NOT_PARKING)
    code, out, err = run(capsys, "verify", "--n", "3", "--suite", suite)
    assert code == 1
    assert "FAIL" in err
    report = json.loads(out)["report"]
    details = [report["detail"]] if suite == "thm-basic" else [f["detail"] for f in report["failures"]]
    # every graph fails but the empty one in thm-bounded, which has no relatively bounded region
    assert len(details) == {"thm-basic": 1, "thm-bounded": 7}.get(suite, 8)
    assert all(detail.startswith(label + "IshCeilingDiagram(") for detail in details), details


def test_image_with_a_ceiling_outside_the_graph_fails_the_sweep(capsys, monkeypatch):
    image = (1, 1, 3)  # one ceiling, x_1 - x_2 = 1
    monkeypatch.setitem(verify._PARKING_MAPS, "freedom", lambda diagram: image)
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "thm-freedom")
    assert code == 1
    failures = json.loads(out)["report"]["failures"]
    assert len(failures) == 8
    for failure in failures:
        invalid = failure["detail"].startswith("image invalid for G: ")
        assert invalid == ([1, 2] not in failure["edges"]), failure


def test_wrong_free_region_word_fails_the_sweep(capsys, monkeypatch):
    """A forward map that labels each free region by pi instead of its
    inverse, with an inverse map that undoes it, keeps every statistic, the
    set of words and the round trip; only the word check sees it.  The free
    regions are the ones whose word is a permutation."""
    forward, backward = verify._PARKING_MAPS["dominance"], verify._INVERSES["dominance"]

    def relabel(word):
        return inverse_permutation(word) if sorted(word) == list(range(1, len(word) + 1)) else word

    monkeypatch.setitem(verify._PARKING_MAPS, "dominance", lambda diagram: relabel(forward(diagram)))
    monkeypatch.setitem(verify._INVERSES, "dominance", lambda word: backward(relabel(word)))
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "thm-dominance")
    assert code == 1
    failures = json.loads(out)["report"]["failures"]
    assert len(failures) == 8
    assert all(f["detail"].startswith("free-region word wrong: IshCeilingDiagram(") for f in failures)


@pytest.mark.parametrize("suite", ["thm-dominance", "thm-bounded", "thm-freedom", "thm-basic"])
def test_uncovered_target_fails_the_sweep(suite, capsys, monkeypatch):
    real = verify.parking_functions
    monkeypatch.setattr(verify, "parking_functions", lambda n, graph: [(1,) * (n + 1), *real(n, graph)])
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", suite)
    assert code == 1
    report = json.loads(out)["report"]
    details = [report["detail"]] if suite == "thm-basic" else [f["detail"] for f in report["failures"]]
    bounded = "bounded " if suite == "thm-bounded" else ""
    assert details and all(d == f"image set is not all {bounded}Shi diagrams" for d in details)


@pytest.mark.parametrize(
    "image, graph",
    [(INCOHERENT, "complete"), (ShiCeilingDiagram((1, 2, 3), ((1, 3), (2,))), "path")],
)
def test_invalid_image_fails_map(image, graph, tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"pi": [1, 2, 3], "eps": [0, 0, 0]}))
    monkeypatch.setitem(cli._BIJECTIONS, "freedom", lambda diagram: image)
    argv = ("map", "--n", "3", "--bijection", "freedom", "--input", str(path), "--graph", graph)
    code, out, err = run(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["output"] == image.to_json()
    assert "certificates" not in doc
    assert err.splitlines() == ["FAIL: image invalid for G"]


def test_bounded_sweep_counts_the_regions_where_freedom_agrees(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "thm-bounded")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["freedom_agrees_with_bounded"] == 14
    assert report["freedom_agrees_with_bounded"] + report["freedom_differs_from_bounded"] == report["regions_checked"]


# ---------------------------------------------------------------------------
# small sizes and relative boundedness


@pytest.mark.parametrize("n", ["1", "2"])
@pytest.mark.parametrize("suite", SUITES)
def test_verify_suites_pass_at_small_n(suite, n, capsys):
    code, out, err = run(capsys, "verify", "--n", n, "--suite", suite)
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_map_bounded_at_n1(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"pi": [1], "eps": [0]}))
    code, out, err = run(capsys, "map", "--n", "1", "--bijection", "bounded", "--input", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["output"] == {"pi": [1], "partition": [[1]]}
    assert doc["certificates"] == {"ceiling_partition": [[1]], "relatively_bounded": True}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relatively_bounded_means_one_degree_of_freedom(n):
    for graph in all_graphs(n):
        for diagram in ish_diagrams(n, graph):
            stats = ish_statistics(diagram)
            assert stats.relatively_bounded == (stats.dof == 1), diagram


# ---------------------------------------------------------------------------
# JSON input is read strictly


@pytest.mark.parametrize(
    "data",
    [
        {"pi": [1.5, 2], "eps": [0, 0]},
        {"pi": [1.0, 2], "eps": [0, 0]},
        {"pi": ["1", 2], "eps": [0, 0]},
        {"pi": [1, 2], "eps": [0, True]},
    ],
)
def test_map_refuses_non_integer_letters(data, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "map", "--n", "2", "--bijection", "freedom", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "cannot read Ish diagram" in err


@pytest.mark.parametrize(
    "data",
    [
        {"n": "2", "edges": [[1.7, 2]]},
        {"n": "2", "edges": [[1, 2]]},
        {"n": 2, "edges": [[1.7, 2]]},
        {"n": 2, "edges": [[True, 2]]},
        {"n": 2.0, "edges": []},
    ],
)
def test_graph_file_refuses_non_integers(data, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "count", "--n", "2", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "malformed graph file" in err


@pytest.mark.parametrize(
    "edges, detail",
    [
        ([[1, 2], [2, True]], "expected an integer, got True"),
        ([[1, 2.0]], "expected an integer, got 2.0"),
        ([["1", 2]], "expected an integer, got '1'"),
        ([[1, 2, 3]], "too many values to unpack (expected 2)"),
        ([[1, 4]], "bad edge (1, 4) on [1, 3]"),
        ([[0, 2]], "bad edge (0, 2) on [1, 3]"),
        # the first bad edge in file order is the one named
        ([[1, "x"], [1, 2, 3]], "expected an integer, got 'x'"),
        ([[1, 2, 3], [1, "x"]], "too many values to unpack (expected 2)"),
    ],
)
def test_graph_file_errors_name_the_bad_edge(edges, detail, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": edges}))
    code, out, err = run(capsys, "count", "--n", "3", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: malformed graph file {str(path)!r}: {detail}"]


@pytest.mark.parametrize(
    "data, unknown",
    [
        ({"n": 3, "edges": [], "edgse": [[1, 2]]}, "'edgse'"),
        ({"n": 3, "edges": [[1, 2]], "directed": False}, "'directed'"),
        ({"n": 3, "edges": [], "N": 3, "Edges": []}, "'Edges', 'N'"),
    ],
)
def test_graph_file_refuses_unknown_keys(data, unknown, tmp_path, capsys):
    """A misspelled key would otherwise be dropped and the graph read
    without it: the first case would be counted as the empty graph."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "count", "--n", "3", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: malformed graph file {str(path)!r}: unknown key(s) {unknown}; expected n and edges"
    ]


@pytest.mark.parametrize(
    "data, unknown",
    [
        ({"pi": [1, 3, 2], "eps": [0, 0, 0], "esp": [0, 0, 1]}, "'esp'"),
        ({"pi": [1, 3, 2], "eps": [0, 0, 1], "partition": [[1], [2], [3]]}, "'partition'"),
    ],
)
def test_diagram_file_refuses_unknown_keys(data, unknown, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "map", "--n", "3", "--bijection", "freedom", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: cannot read Ish diagram from {str(path)!r}: unknown key(s) {unknown}; expected pi and eps"
    ]


def reader_runs(path):
    """``count --graph``, ``oracle --graph`` and ``map --input`` reading the
    file at ``path``, and ``map --input -`` reading stdin."""
    return [
        ("count", "--n", "3", "--graph", str(path)),
        ("oracle", "--n", "3", "--graph", str(path)),
        ("map", "--n", "3", "--bijection", "freedom", "--input", str(path)),
        ("map", "--n", "3", "--bijection", "freedom", "--input", "-"),
    ]


def refusals(tmp_path, capsys, monkeypatch, text):
    """The stderr lines of :func:`reader_runs` reading ``text``; each must
    exit 2 and print nothing on stdout."""
    path = tmp_path / "input.json"
    path.write_text(text)
    lines = []
    for argv in reader_runs(path):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        lines += err.splitlines()
    return lines, str(path)


def expected_refusals(path, detail):
    return [
        f"error: malformed graph file {path!r}: {detail}",
        f"error: malformed graph file {path!r}: {detail}",
        f"error: cannot read Ish diagram from {path!r}: {detail}",
        f"error: cannot read Ish diagram from '-': {detail}",
    ]


def test_deeply_nested_json_is_refused_without_a_traceback(tmp_path, capsys, monkeypatch):
    """The decoder's RecursionError becomes one error line and exit 2."""
    lines, path = refusals(tmp_path, capsys, monkeypatch, "[" * 1001 + "]" * 1001)
    assert lines == expected_refusals(path, "JSON nested too deeply")


@pytest.mark.parametrize(
    "text, repeated",
    [
        ('{"n": 3, "n": 4, "edges": []}', "'n'"),
        ('{"pi": [1, 2, 3], "eps": [0, 0, 0], "eps": [0, 0, 1], "pi": [3, 2, 1]}', "'eps', 'pi'"),
    ],
)
def test_duplicate_keys_are_refused(text, repeated, tmp_path, capsys, monkeypatch):
    """A repeated key would otherwise be read as its last value: the first
    case would be counted as a graph on 4 vertices."""
    lines, path = refusals(tmp_path, capsys, monkeypatch, text)
    assert lines == expected_refusals(path, f"duplicate key(s) {repeated}")


@pytest.mark.parametrize("text", ["null", "[]", "[[1, 2]]", "3", '"n"'])
def test_a_top_level_value_that_is_not_an_object_is_refused(text, tmp_path, capsys, monkeypatch):
    lines, path = refusals(tmp_path, capsys, monkeypatch, text)
    assert lines == expected_refusals(path, "expected a JSON object at the top level")


#: JSON-like values with the keys the readers know, and some they do not
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "edges", "pi", "eps", "x"]), inner, max_size=3),
    ),
    max_leaves=12,
)
#: input texts: any value, near-valid graphs and diagrams, deep nesting,
#: and a repeated key
input_texts = st.one_of(
    json_values.map(json.dumps),
    st.fixed_dictionaries({"n": st.integers(2, 4), "edges": st.lists(st.lists(st.integers(0, 4), max_size=3))}).map(
        json.dumps
    ),
    st.fixed_dictionaries(
        {"pi": st.permutations([1, 2, 3]), "eps": st.lists(st.integers(-1, 3), min_size=2, max_size=4)}
    ).map(json.dumps),
    st.tuples(st.integers(0, 1200), json_values).map(lambda t: "[" * t[0] + json.dumps(t[1]) + "]" * t[0]),
    json_values.map(lambda value: '{"n": 3, "edges": [], "n": %s}' % json.dumps(value)),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(input_texts.map(str.encode), st.binary(max_size=24)))
def test_every_input_exits_0_or_2_with_one_error_line(data, tmp_path, capsys, monkeypatch):
    """Whatever a graph file or an Ish diagram holds, ``count`` and
    ``oracle`` with ``--graph`` and ``map --input`` (a file and stdin)
    exit 0 or 2, and exit 2 prints exactly one ``error:`` line."""
    path = tmp_path / "input.json"
    path.write_bytes(data)
    for argv in reader_runs(path):
        monkeypatch.setattr("sys.stdin", io.StringIO(data.decode("utf-8", errors="replace")))
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), argv
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_files_with_the_known_keys_are_still_read(tmp_path, capsys):
    graph, diagram = tmp_path / "g.json", tmp_path / "d.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2]]}))
    diagram.write_text(json.dumps({"pi": [1, 3, 2], "eps": [0, 0, 1]}))
    argv = ("map", "--n", "3", "--bijection", "freedom", "--input", str(diagram), "--graph", str(graph))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["input"] == {"pi": [1, 3, 2], "eps": [0, 0, 1]}


def test_diagram_json_readers_take_integers_only():
    assert IshCeilingDiagram.from_json({"pi": [2, 1], "eps": [0, 0]}).pi == (2, 1)
    assert Graph.from_json({"n": 2, "edges": [[1, 2]]}) == Graph.complete(2)
    with pytest.raises(ValueError):
        ShiCeilingDiagram.from_json({"pi": [1, 2.0], "partition": [[1], [2]]})
    with pytest.raises(ValueError):
        ShiCeilingDiagram.from_json({"pi": [1, 2], "partition": [[1], [2.0]]})


# ---------------------------------------------------------------------------
# verify takes no graph


@pytest.mark.parametrize("graph", ["/nonexistent.json", "path", "empty"])
def test_verify_refuses_a_graph(graph, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_graph", None)  # never reached
    code, out, err = run(capsys, "verify", "--n", "2", "--suite", "thm-freedom", "--graph", graph)
    assert code == 2
    assert out == ""
    assert f"verify does not take --graph (got {graph!r})" in err


def test_verify_takes_the_default_graph_by_name(capsys):
    default = run(capsys, "verify", "--n", "2", "--suite", "thm-freedom")
    named = run(capsys, "verify", "--n", "2", "--suite", "thm-freedom", "--graph", "complete")
    assert default[0] == named[0] == 0
    assert default[1] == named[1]


# ---------------------------------------------------------------------------
# map reads the diagram before the graph


def test_map_checks_the_diagram_size_before_building_the_graph(capsys, monkeypatch):
    def refuse(spec, n):
        raise AssertionError(f"load_graph({spec!r}, {n}) called")

    monkeypatch.setattr(cli, "load_graph", refuse)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"pi": [1, 2], "eps": [0, 1]})))
    code, out, err = run(capsys, "map", "--n", "3000", "--bijection", "freedom")
    assert code == 2
    assert out == ""
    assert "error: diagram has 2 letters, --n is 3000" in err


@pytest.mark.parametrize("bijection", ["basic", "dominance", "bounded", "freedom"])
def test_map_scans_the_diagram_twice(bijection, capsys, monkeypatch):
    """``map`` reads its input once, as a rook word, and the bijection's
    diagram view encodes it once more: two coherence scans per call."""
    import shi_ish.ish as ish

    real = ish.ish_ceiling_pairs
    calls = []
    monkeypatch.setattr(ish, "ish_ceiling_pairs", lambda diagram: calls.append(diagram) or real(diagram))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"pi": [1, 3, 2], "eps": [0, 0, 1]})))
    code, out, err = run(capsys, "map", "--n", "3", "--bijection", bijection)
    assert code == 0, err
    assert len(calls) == 2


def test_map_basic_takes_every_graph_with_all_edges(tmp_path, capsys):
    diagram = tmp_path / "d.json"
    diagram.write_text(json.dumps({"pi": [3, 1, 2], "eps": [0, 0, 1]}))
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"n": 3, "edges": [[2, 3], [1, 2], [1, 3]]}))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3]]}))
    argv = ("map", "--n", "3", "--bijection", "basic", "--input", str(diagram))
    preset = run(capsys, *argv)
    on_file = run(capsys, *argv, "--graph", str(full))
    assert preset[0] == on_file[0] == 0
    assert json.loads(preset[1])["output"] == json.loads(on_file[1])["output"]
    code, out, err = run(capsys, *argv, "--graph", str(missing))
    assert code == 2
    assert out == ""
    assert "the basic bijection is defined on the complete graph only" in err


# ---------------------------------------------------------------------------
# flags a command never reads


@pytest.mark.parametrize(
    "argv, name",
    [
        (("count", "--n", "2", "--jobs", "7"), "count"),
        (("enumerate", "--n", "2", "--jobs", "2"), "enumerate"),
        (("map", "--n", "2", "--bijection", "freedom", "--jobs", "2"), "map"),
        (("oracle", "--n", "2", "--jobs", "2"), "oracle"),
    ]
    + [
        (("verify", "--n", "2", "--suite", suite, "--jobs", "2"), suite) for suite in verify.SUITES
    ],
)
def test_jobs_is_refused_where_nothing_reads_it(argv, name, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {name} does not read --jobs (got {argv[-1]})" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3"),
        ("enumerate", "--n", "3", "--arrangement", "ish"),
        ("oracle", "--n", "2"),
        ("verify", "--n", "2", "--suite", "cycle-lemma"),
        ("verify", "--n", "2", "--suite", "thm-basic"),
        ("map", "--n", "2", "--bijection", "freedom"),
    ]
    + [
        ("verify", "--n", "3", "--suite", suite)
        for suite in ("thm-dominance", "thm-bounded", "thm-freedom", "formulas")
    ],
)
def test_an_explicit_single_job_is_accepted_everywhere(argv, capsys, monkeypatch):
    reports = []
    for extra in ((), ("--jobs", "1")):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"pi": [1, 2], "eps": [0, 1]})))
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flags", [("--format", "tsv"), ("--allow-large",)])
def test_map_refuses_flags_it_never_reads(flags, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"pi": [1, 2], "eps": [0, 1]})))
    code, out, err = run(capsys, "map", "--n", "2", "--bijection", "freedom", *flags)
    assert code == 2
    assert out == ""
    assert "error: map prints JSON and has no size limit: it takes neither --format tsv nor --allow-large" in err


def test_negative_controls_refuses_allow_large(capsys):
    code, out, err = run(capsys, "verify", "--n", "5", "--suite", "negative-controls", "--allow-large")
    assert code == 2
    assert out == ""
    assert "error: negative-controls checks fixed sizes (n = 3, 4" in err
    assert "it takes no --allow-large" in err


def test_negative_controls_echoes_n_and_checks_the_same_sizes(capsys):
    reports = {}
    for n in ("3", "5"):
        code, out, _ = run(capsys, "verify", "--n", n, "--suite", "negative-controls")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["n"] == int(n)
        reports[n] = doc["report"]
    assert reports["3"] == reports["5"]


@pytest.mark.parametrize("n", ["6", "500"])
def test_negative_controls_holds_n_to_the_suites_limit(n, capsys):
    """Above n = 5 the suite refuses with exit code 3, and names no
    --allow-large, which it refuses too."""
    code, out, err = run(capsys, "verify", "--n", n, "--suite", "negative-controls")
    assert code == 3
    assert out == ""
    assert f"negative-controls is limited to n <= 5, got n = {n}" in err
    assert "--allow-large" not in err
