"""Tests for the benchmark's own helpers.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import inspect
import json
import random
import sys

import pytest

import run
import workloads
from tracer import Tracer, self_time


def test_tail_needs_eleven_samples():
    assert run.tail_latency([1.0] * 40, 10) is None
    assert run.tail_latency([], 20) is None
    value, percentile = run.tail_latency([float(x) for x in range(11)], 11)
    assert value == 0.0
    assert percentile == pytest.approx(100 / 11)


def test_tail_leaves_ten_samples_beyond_in_the_base():
    samples = [float(x) for x in range(100, 0, -1)]
    value, percentile = run.tail_latency(samples, 100)
    assert sum(1 for x in samples if x > value) == 10
    assert percentile == 90.0
    # three times the base: the same percentile, thirty samples beyond
    value, percentile = run.tail_latency(samples * 3, 100)
    assert sum(1 for x in samples * 3 if x > value) == 30
    assert percentile == 90.0


def test_self_time_with_nested_and_overlapping_children():
    assert self_time(0.0, 10.0, []) == 10.0
    # (2, 3) nests in (1, 5), which overlaps (4, 6); (9, 12) runs past the end
    children = [(4.0, 6.0), (1.0, 5.0), (2.0, 3.0), (9.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time(0.0, 10.0, [(-5.0, 20.0)]) == 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.build(workload, 7)
    assert workloads.build(workload, 7) == first
    commands, files = first
    assert len({c.key for c in commands}) == len(commands)
    assert all(path.startswith(workloads.INPUT_DIR + "/") for path in files)
    _, other_files = workloads.build(workload, 8)
    assert other_files.keys() == files.keys()  # paths echo into reports: seed-free
    if workload != "sweep":
        assert other_files != files


def test_random_diagrams_are_valid_and_bounded_when_asked():
    from shi_ish import Graph, IshCeilingDiagram, is_valid_ish, ish_statistics

    rng = random.Random(3)
    for n in (2, 5, 16, 64):
        edges = workloads.random_edges(rng, n, 0.5)
        for graph_edges in (None, frozenset(edges)):
            graph = Graph.complete(n) if graph_edges is None else Graph(n, graph_edges)
            for bounded in (False, True):
                if bounded and not graph.edges:
                    continue
                data = workloads.random_ish_diagram(rng, n, graph_edges, bounded)
                diagram = IshCeilingDiagram.from_json(data)
                assert is_valid_ish(diagram, graph)
                if bounded:
                    assert ish_statistics(diagram).relatively_bounded


def _bindings():
    """Every shi_ish module attribute and module-level dict entry, by identity."""
    seen = {}
    for name, module in sys.modules.items():
        if name == "shi_ish" or name.startswith("shi_ish."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = id(value)
                if isinstance(value, dict):
                    for key, entry in value.items():
                        seen[(name, attr, key)] = id(entry)
    return seen


def test_tracer_restores_every_patched_binding():
    program = run.load_program()
    graph = program["core"].Graph
    before = _bindings()
    complete = vars(graph)["complete"]
    originals = {
        "geometry.strict_feasible": program["geometry"].strict_feasible,
        "cli.cross_validate": program["cli"].cross_validate,
        "ish.orbit_certificate": program["ish"].orbit_certificate,
        "cli._BIJECTIONS.freedom": program["cli"]._BIJECTIONS["freedom"],
    }
    tracer = Tracer()
    tracer.install(program)
    try:
        assert program["geometry"].strict_feasible is not originals["geometry.strict_feasible"]
        assert program["cli"].cross_validate is not originals["cli.cross_validate"]
        assert program["ish"].orbit_certificate is not originals["ish.orbit_certificate"]
        assert program["cli"]._BIJECTIONS["freedom"] is not originals["cli._BIJECTIONS.freedom"]
        assert vars(graph)["complete"] is not complete
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert vars(graph)["complete"] is complete
    assert all(not inspect.isfunction(v) or not hasattr(v, "__wrapped__")
               for m in program.values() for v in vars(m).values())


def test_traced_pass_gives_the_same_stdout():
    program = run.load_program()
    inputs = workloads._Inputs("test", 0)
    inputs.add("count", "--n", "4", "--by", "dof")
    inputs.add("enumerate", "--n", "3", "--arrangement", "ish")
    inputs.add("verify", "--n", "3", "--suite", "thm-freedom")
    inputs.add("oracle", "--n", "3", "--arrangement", "shi")
    rng = random.Random(1)
    for bijection in workloads.BIJECTIONS:
        diagram = workloads.random_ish_diagram(rng, 8, None, bijection == "bounded")
        inputs.add("map", "--n", "8", "--bijection", bijection, stdin=json.dumps(diagram))
    tracer = Tracer()
    bench = run.Bench(program, inputs.commands, {}, tracer)
    untraced = bench.run_pass()
    tracer.install(program)
    try:
        traced = bench.run_pass(traced=True, reference=untraced["digests"])
    finally:
        tracer.uninstall()
    assert bench.failures == []
    assert traced["digests"] == untraced["digests"]
    assert traced["regions"] == untraced["regions"] > 0
    spans = tracer.by_name()
    for name in ("cli.main", "cli.cmd_oracle", "exactlp.strict_feasible", "bijections.freedom_bijection",
                 "rookwords.orbit_certificate", "parking.parking_functions"):
        assert spans[name][0] > 0, name
    assert tracer.counts["core.graph_complete"] > 0
    assert {s[4] for s in tracer.spans} == set(range(len(inputs.commands)))
