"""Command-line interface, run in-process through main()."""

import json

import pytest

import shi_ish.cli as cli
from shi_ish.cli import config_hash, load_graph, main
from shi_ish.core import Graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# plumbing


def test_config_hash_is_order_insensitive_and_short():
    a = config_hash({"n": 4, "graph": "complete"})
    b = config_hash({"graph": "complete", "n": 4})
    assert a == b
    assert len(a) == 12
    assert a != config_hash({"n": 5, "graph": "complete"})


def test_load_graph_presets():
    assert load_graph("complete", 4) == Graph.complete(4)
    assert load_graph("empty", 3) == Graph.empty(3)
    assert load_graph("path", 5) == Graph.path(5)


def test_load_graph_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 3]]}))
    assert load_graph(str(path), 3) == Graph(3, frozenset({(1, 3)}))


def test_load_graph_file_under_a_paths_directory(tmp_path, capsys, monkeypatch):
    """A file path starting with "path" is read, not taken for the preset."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "paths").mkdir()
    (tmp_path / "paths" / "g.json").write_text(json.dumps({"n": 4, "edges": [[1, 4]]}))
    assert load_graph("paths/g.json", 4) == Graph(4, frozenset({(1, 4)}))
    code, doc, _ = run_json(
        capsys, "count", "--n", "4", "--arrangement", "shi", "--graph", "paths/g.json"
    )
    assert code == 0
    assert doc["results"]["shi"]["total"] == doc["results"]["shi"]["formula"] == 36
    code, _, err = run(capsys, "count", "--n", "4", "--graph", "paths/missing.json")
    assert code == 2
    assert "paths/missing.json" in err


def test_reports_carry_config_and_hash(capsys):
    code, doc, _ = run_json(capsys, "count", "--n", "3")
    assert code == 0
    assert doc["config"]["n"] == 3
    assert doc["config_hash"] == config_hash(doc["config"])


# ---------------------------------------------------------------------------
# count


def test_count_complete_n4(capsys):
    code, doc, _ = run_json(capsys, "count", "--n", "4")
    assert code == 0
    results = doc["results"]
    assert results["shi"]["total"] == 125
    assert results["ish"]["total"] == 125
    assert results["shi"]["formula"] == 125


def test_count_empty_graph(capsys):
    code, doc, _ = run_json(capsys, "count", "--n", "3", "--graph", "empty")
    assert code == 0
    for entry in doc["results"].values():
        assert entry["total"] == entry["formula"] == 6


def test_count_breakdown_by_dof(capsys):
    code, doc, _ = run_json(
        capsys, "count", "--n", "3", "--arrangement", "shi", "--by", "dof"
    )
    assert code == 0
    assert doc["results"]["shi"]["by_dof"] == {"1": 4, "2": 6, "3": 6}


def test_count_breakdowns_match_across_arrangements(capsys):
    code, doc, _ = run_json(
        capsys, "count", "--n", "4", "--by", "ceiling-partition"
    )
    assert code == 0
    assert (
        doc["results"]["shi"]["by_ceiling_partition"]
        == doc["results"]["ish"]["by_ceiling_partition"]
    )


@pytest.mark.parametrize("graph", ["complete", "path", "empty"])
@pytest.mark.parametrize("n", range(1, 6))
def test_count_total_is_the_same_with_and_without_a_breakdown(capsys, n, graph):
    """Every region is checked and counted once, whether or not --by asks
    for a histogram, and each histogram sums to that total."""
    argv = ("count", "--n", str(n), "--graph", graph)
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    totals = {kind: entry["total"] for kind, entry in doc["results"].items()}
    assert totals == {kind: entry["formula"] for kind, entry in doc["results"].items()}
    for by in ("dof", "dominance", "ceiling-partition"):
        code, doc, _ = run_json(capsys, *argv, "--by", by)
        assert code == 0
        for kind, entry in doc["results"].items():
            assert entry["total"] == totals[kind] == sum(entry[f"by_{by.replace('-', '_')}"].values())


@pytest.mark.parametrize(
    "argv, graphs",
    [
        (("--graph", "path"), [Graph.path(4)]),
        (("--graph", "path", "--by", "dof"), [Graph.path(4)]),
        (("--arrangement", "shi"), [Graph.complete(4)]),
        (("--arrangement", "ish", "--by", "ceiling-partition"), [Graph.complete(4)]),
        (("--arrangement", "cox"), []),
    ],
)
def test_count_computes_the_region_formula_once(argv, graphs, capsys, monkeypatch):
    """Shi(G) and Ish(G) have the same region count, so one ``count`` walks
    the set partitions of [n] for it once, whatever it reports."""
    real = cli.ish_region_count
    called = []

    def counted(graph):
        called.append(graph)
        return real(graph)

    monkeypatch.setattr(cli, "ish_region_count", counted)
    code, doc, _ = run_json(capsys, "count", "--n", "4", *argv)
    assert code == 0
    assert called == graphs
    for entry in doc["results"].values():
        assert entry["formula"] == entry["total"]


def test_count_tsv(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--format", "tsv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].split("\t") == ["arrangement", "key", "count"]
    rows = {tuple(l.split("\t")) for l in lines[1:]}
    assert ("shi", "total", "16") in rows
    assert ("ish", "formula", "16") in rows


def test_count_size_limit(capsys):
    code, _, err = run(capsys, "count", "--n", "7")
    assert code == 3
    assert "allow-large" in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_shi_n3(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "--n", "3", "--arrangement", "shi"
    )
    assert code == 0
    regions = doc["regions"]
    assert len(regions) == 16
    assert all("pi" in r and "ceiling_partition" in r for r in regions)
    assert sum(r["dominant"] for r in regions) == 5


def test_enumerate_ish_has_eps_and_boundedness(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "--n", "3", "--arrangement", "ish"
    )
    assert code == 0
    regions = doc["regions"]
    assert len(regions) == 16
    assert sum(r["relatively_bounded"] for r in regions) == 4
    assert all("eps" in r for r in regions)


def test_enumerate_tsv_row_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--n", "3", "--arrangement", "cox", "--format", "tsv"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 + 6  # header + one row per region


# ---------------------------------------------------------------------------
# map


EXAMPLE_JSON = json.dumps(
    {"pi": [4, 1, 7, 3, 8, 5, 6, 2], "eps": [0, 0, 1, 2, 0, 3, 5, 0]}
)


def test_map_dominance_worked_example(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(EXAMPLE_JSON)
    code, doc, _ = run_json(
        capsys,
        "map", "--n", "8", "--bijection", "dominance", "--input", str(path),
    )
    assert code == 0
    assert doc["output"]["pi"] == [2, 3, 4, 1, 5, 7, 8, 6]
    assert doc["certificates"]["ceiling_partition"] == [
        [1, 7], [2, 3, 5, 6], [4], [8],
    ]
    assert doc["certificates"]["dominant"] is False


def test_map_freedom_preserves_dof(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(EXAMPLE_JSON)
    code, doc, _ = run_json(
        capsys,
        "map", "--n", "8", "--bijection", "freedom", "--input", str(path),
    )
    assert code == 0
    assert doc["certificates"]["dof"] == 3
    assert doc["certificates"]["ceiling_partition"] == [
        [1, 7], [2, 3, 5, 6], [4], [8],
    ]


def test_map_basic_has_no_certificates(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(EXAMPLE_JSON)
    code, doc, _ = run_json(
        capsys,
        "map", "--n", "8", "--bijection", "basic", "--input", str(path),
    )
    assert code == 0
    assert doc["output"]["pi"] == [7, 2, 3, 1, 5, 6, 8, 4]
    assert "certificates" not in doc


def test_map_identity_region(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"pi": [1, 2, 3], "eps": [0, 0, 0]}))
    code, doc, _ = run_json(
        capsys,
        "map", "--n", "3", "--bijection", "dominance", "--input", str(path),
    )
    assert code == 0
    assert doc["output"]["pi"] == [1, 2, 3]
    assert doc["output"]["partition"] == [[1], [2], [3]]


def test_map_bounded_rejects_unbounded_input(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"pi": [2, 1, 3], "eps": [0, 0, 1]}))
    code, _, err = run(
        capsys,
        "map", "--n", "3", "--bijection", "bounded", "--input", str(path),
    )
    assert code == 2
    assert "bounded" in err


@pytest.mark.parametrize(
    "bijection, diagram, graph, line",
    [
        # incoherent: a dotted position left of the letter 1
        ("dominance", {"pi": [2, 1, 3], "eps": [1, 0, 0]}, "complete",
         "input is not a valid Ish ceiling diagram for the graph"),
        # coherent, but its ceiling x_1 - x_3 = 1 is no hyperplane of the path
        ("freedom", {"pi": [1, 2, 3], "eps": [0, 0, 1]}, "path",
         "input is not a valid Ish ceiling diagram for the graph"),
        ("bounded", {"pi": [2, 1, 3], "eps": [0, 0, 1]}, "complete",
         "the bounded bijection needs a relatively bounded input"),
        ("basic", {"pi": [1, 2, 3], "eps": [0, 0, 0]}, "path",
         "the basic bijection is defined on the complete graph only"),
    ],
    ids=["incoherent", "ceiling-off-graph", "unbounded", "basic-off-complete"],
)
def test_map_rejects_invalid_diagram(bijection, diagram, graph, line, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram))
    code, out, err = run(
        capsys,
        "map", "--n", "3", "--bijection", bijection, "--input", str(path), "--graph", graph,
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {line}"]


def test_map_missing_input_file(capsys):
    code, _, err = run(
        capsys,
        "map", "--n", "3", "--bijection", "dominance", "--input", "/nonexistent.json",
    )
    assert code == 2


def test_map_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"pi": [1, 2], "eps": [0, 1]}))
    )
    code, doc, _ = run_json(
        capsys, "map", "--n", "2", "--bijection", "freedom", "--input", "-"
    )
    assert code == 0
    assert doc["certificates"]["dof"] == 1


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize(
    "suite",
    [
        "cycle-lemma",
        "thm-basic",
        "thm-dominance",
        "thm-bounded",
        "thm-freedom",
        "formulas",
        "negative-controls",
        "factorization-candidates",
    ],
)
def test_verify_suites_pass_at_n3(suite, capsys):
    code, doc, err = run_json(capsys, "verify", "--n", "3", "--suite", suite)
    assert code == 0, err
    assert doc["passed"] is True
    assert "PASS" in err


def test_verify_reports_bounded_freedom_agreement(capsys):
    code, doc, _ = run_json(capsys, "verify", "--n", "3", "--suite", "thm-bounded")
    assert code == 0
    report = doc["report"]
    assert report["freedom_agrees_with_bounded"] == 14
    assert report["freedom_differs_from_bounded"] == 0


def test_verify_cycle_lemma_counts(capsys):
    code, doc, _ = run_json(capsys, "verify", "--n", "4", "--suite", "cycle-lemma")
    assert code == 0
    orbit_check = doc["report"]["checks"][0]
    assert orbit_check["words"] == 5 ** 4
    assert orbit_check["orbits"] == 5 ** 3
    assert orbit_check["parking_functions"] == 125
    assert orbit_check["rook_words"] == 125


def test_verify_size_limits(capsys):
    code, _, err = run(capsys, "verify", "--n", "6", "--suite", "thm-dominance")
    assert code == 3
    code, _, err = run(capsys, "verify", "--n", "9", "--suite", "cycle-lemma")
    assert code == 3


# ---------------------------------------------------------------------------
# oracle


def test_oracle_n2(capsys):
    code, doc, err = run_json(capsys, "oracle", "--n", "2", "--arrangement", "shi")
    assert code == 0
    assert doc["ok"] is True
    assert doc["region_count"] == doc["matched"] == 3
    assert doc["report"]["summary"]["region_count"] == 3


def test_oracle_path_graph(capsys):
    code, doc, _ = run_json(
        capsys, "oracle", "--n", "3", "--arrangement", "ish", "--graph", "path"
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["region_count"] == 13


def test_oracle_tsv(capsys):
    code, out, _ = run(
        capsys, "oracle", "--n", "2", "--arrangement", "ish", "--format", "tsv"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 + 3


def test_oracle_size_limit_without_allow_large(capsys):
    code, _, err = run(capsys, "oracle", "--n", "6", "--arrangement", "shi")
    assert code == 3
    assert "allow-large" in err


def test_oracle_runs_n5_by_default_and_refuses_n7(capsys):
    code, doc, _ = run_json(capsys, "oracle", "--n", "5", "--graph", "path", "--arrangement", "ish")
    assert code == 0 and doc["ok"] is True
    code, _, err = run(capsys, "oracle", "--n", "7", "--allow-large")
    assert code == 3
    assert "oracle is limited to n <= 6, got n = 7" in err


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_graph_file(capsys):
    code, _, err = run(capsys, "count", "--n", "3", "--graph", "/no/such/file.json")
    assert code == 2


def test_graph_order_mismatch(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 4, "edges": []}))
    code, _, err = run(capsys, "count", "--n", "3", "--graph", str(path))
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_nonpositive_jobs(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--suite", "formulas", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


def test_nonpositive_n():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "0"])
    assert exc.value.code == 2
