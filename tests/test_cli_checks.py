"""The verify and map checks fail when they should, and bad input is refused.

Each failure-path test falsifies one statistic or one inverse inside the CLI
module and checks the report the run gives.  The fake is swapped in wherever
the module holds the original: as a module global or as a value of a
module-level dict such as the bijection table.
"""

import io
import json

import pytest

import shi_ish.cli as cli
from shi_ish.cli import main
from shi_ish.core import Graph, all_graphs
from shi_ish.ish import Board, IshCeilingDiagram, ish_diagrams, ish_statistics
from shi_ish.shi import ShiCeilingDiagram

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
    for attr, value in list(vars(cli).items()):
        if value is original:
            monkeypatch.setattr(cli, attr, fake)
        elif isinstance(value, dict):
            for key, entry in list(value.items()):
                if entry is original:
                    monkeypatch.setitem(value, key, fake)


def falsify_shi_statistic(monkeypatch, field, change):
    real = cli.shi_statistics

    def fake(diagram):
        stats = real(diagram)
        return stats._replace(**{field: change(getattr(stats, field))})

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
    name = suite.removeprefix("thm-")
    rebind(monkeypatch, getattr(cli, f"{name}_bijection_inverse"), lambda image: None)
    code, out, _ = run(capsys, "verify", "--n", "2", "--suite", suite)
    doc = json.loads(out)
    assert code == 1
    assert doc["report"]["failures"] == [
        {"edges": [], "ok": False, "detail": "roundtrip broken: IshCeilingDiagram(pi=(1, 2), eps=(0, 0))"},
        {"edges": [[1, 2]], "ok": False, "detail": "roundtrip broken: IshCeilingDiagram(pi=(1, 2), eps=(0, 0))"},
    ]
    assert doc["report"]["regions_checked"] == 0


def test_falsified_inverse_fails_thm_basic(capsys, monkeypatch):
    rebind(monkeypatch, cli.basic_bijection_inverse, lambda image: None)
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "thm-basic")
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert doc["report"] == {
        "n": 3,
        "regions": 0,
        "detail": "roundtrip broken at IshCeilingDiagram(pi=(1, 2, 3), eps=(0, 0, 0))",
    }


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
    real = cli.orbit_certificate
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
    rebind(monkeypatch, cli.position_partition, lambda word: tuple(word))
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


def test_theorem_sweep_fans_out_across_processes(capsys):
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "thm-bounded", "--jobs", jobs)
        assert code == 0
        reports.append(json.loads(out)["report"])
    assert reports[0] == reports[1]
    assert reports[0]["freedom_agrees_with_bounded"] == 14


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


def test_diagram_json_readers_take_integers_only():
    assert IshCeilingDiagram.from_json({"pi": [2, 1], "eps": [0, 0]}).pi == (2, 1)
    assert Graph.from_json({"n": 2, "edges": [[1, 2]]}) == Graph.complete(2)
    with pytest.raises(ValueError):
        ShiCeilingDiagram.from_json({"pi": [1, 2.0], "partition": [[1], [2]]})
    with pytest.raises(ValueError):
        ShiCeilingDiagram.from_json({"pi": [1, 2], "partition": [[1], [2.0]]})


def test_board_json_reader_takes_a_boolean_hatted_only():
    graph = {"n": 2, "edges": []}
    assert Board.from_json({"n": 2, "hatted": False, "graph": graph}).hatted is False
    assert Board.from_json({"n": 2, "hatted": True, "graph": graph}).hatted is True
    for hatted in ("false", 0):
        with pytest.raises(ValueError):
            Board.from_json({"n": 2, "hatted": hatted, "graph": graph})


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
        (("verify", "--n", "2", "--suite", suite, "--jobs", "2"), suite)
        for suite in ("cycle-lemma", "thm-basic", "negative-controls", "factorization-candidates")
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
