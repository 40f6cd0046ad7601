"""Benchmark for the ``shi-ish`` CLI.

    python3 perfbench/run.py --workload census --seed 1 --seconds 26 --trace 0

Runs ``shi_ish.cli.main`` in-process on the seeded commands of one workload
(see ``workloads.py``), checks every output, and prints a report whose last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, taken
from a traced run (see ``tracer.py``).  Run it from the root of a checkout.

A *pass* is one run of every command of the workload.  After one warm-up
pass, passes repeat until the next one would end after ``--seconds``; each
timing metric is a median over passes or commands, in seconds at the
reference speed of ``speed_kernel``.  ``python3 perfbench/run.py
--record-digests`` rewrites ``digests.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 9
# The tail percentile is fixed by the first whole passes holding this many
# commands.  60 keeps it off the boundary between two commands' latency
# clusters for passes of 9 and 11 commands, where it would read the extreme
# of a cluster.
TAIL_BASE = 60
TRACE_UNTRACED_SHARE = 0.4  # part of a traced run spent on untraced passes
REFERENCE_KERNEL_S = 0.002  # speed_kernel() on the reference machine, in its fast state
DIGESTS = HERE / "digests.json"
WORK = ROOT / "perfbench" / "work"
NOISE = (
    "on the 2-vCPU KVM machine this benchmark was built on, medians of 25-s windows of a fixed "
    "kernel spread 38% (interquartile range / median), so timings are scaled to the reference "
    "speed of speed_kernel(); see perfbench/NOTES.md"
)


# ---------------------------------------------------------------------------
# statistics


def tail_latency(samples: list[float], base: int) -> tuple[float, float] | None:
    """The tail of ``samples`` at the highest percentile that leaves ten
    samples beyond it in a sample of ``base``: (value, percentile).

    The percentile depends on ``base`` only, so runs with different numbers
    of passes, and different commits, read the same percentile.  None when
    ``base`` is below 11, where no percentile has ten samples beyond it.

    >>> tail_latency([float(x) for x in range(1, 21)], 20)
    (10.0, 50.0)
    >>> tail_latency([float(x) for x in range(1, 41)], 20)
    (20.0, 50.0)
    >>> tail_latency([1.0] * 10, 10) is None
    True
    """
    if base < 11 or not samples:
        return None
    ordered = sorted(samples)
    rank = -(-len(ordered) * (base - 10) // base) - 1
    return ordered[rank], 100.0 * (base - 10) / base


def speed_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop shaped like the package's
    word loops (product, sort, tuple, set).

    The machine this benchmark was built on loses up to ~45% of its speed for
    seconds to minutes at a time, and the package's code slows with it.
    Every timing is therefore scaled by ``REFERENCE_KERNEL_S`` over this
    kernel's time, measured right before and after the timed work: timings
    are seconds at the reference speed (see NOTES.md).
    """
    start = time.perf_counter()
    seen = set()
    for word in itertools.product(range(1, 5), repeat=5):
        ordered = sorted(word)
        if all(a <= i for i, a in enumerate(ordered, 1)):
            seen.add(tuple(word.index(v) for v in ordered))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference speed by the kernel times
    measured around it.  The faster of the two is used, because a kernel
    run that was preempted reads far too slow.

    >>> at_reference_speed(3.0, 0.004, 0.009)
    1.5
    """
    return seconds * REFERENCE_KERNEL_S / min(before, after)


# ---------------------------------------------------------------------------
# the program under test


def load_program() -> dict:
    """Import ``shi_ish`` afresh from the checkout's ``src``; layer -> module."""
    for name in [m for m in sys.modules if m == "shi_ish" or m.startswith("shi_ish.")]:
        del sys.modules[name]
    importlib.import_module("shi_ish.cli")
    return {layer: sys.modules[f"shi_ish.{layer}"] for layer in LAYERS}


def run_command(program: dict, command: workloads.Command) -> tuple[object, float, str, str]:
    """One ``cli.main`` call: exit code (None if it raised), seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(command.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = program["cli"].main(list(command.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed command, not a failed benchmark
                code = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, seconds, out.getvalue(), err.getvalue()


class Bench:
    """Runs and checks passes of one workload; accumulates failures."""

    def __init__(self, program, commands, digests: dict[str, str], tracer: Tracer | None = None):
        self.program = program
        self.commands = commands
        self.digests = digests
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool = False, reference: list[str] | None = None) -> dict:
        results = []
        kernel = [speed_kernel()]
        for k, command in enumerate(self.commands):
            if traced:
                self.tracer.command_id = k
                self.tracer.enabled = True
            try:
                results.append(run_command(self.program, command))
            finally:
                if traced:
                    self.tracer.enabled = False
            kernel.append(speed_kernel())
        raw = [r[1] for r in results]
        latencies = [at_reference_speed(x, a, b) for x, a, b in zip(raw, kernel, kernel[1:])]
        regions = 0
        digests = []
        for k, (command, (code, _, stdout, stderr)) in enumerate(zip(self.commands, results)):
            digest = hashlib.sha256(stdout.encode()).hexdigest()[:16]
            digests.append(digest)
            try:
                problems, found = workloads.check_output(self.program, command, code, stdout)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                problems, found = [f"unexpected report shape: {exc!r}"], 0
            regions += found
            expected = self.digests.get(command.key)
            if expected is not None and expected != digest:
                problems.append(f"stdout digest {digest} != recorded {expected}")
            if reference is not None and reference[k] != digest:
                problems.append("traced stdout differs from untraced stdout")
            self.attempted += 1
            if problems:
                tail = stderr.strip().splitlines()[-1:] or [""]
                self.failures.append(f"{' '.join(command.argv)}: {'; '.join(problems)} {tail[0]}")
        return {
            "wall": sum(latencies),
            "raw_wall": sum(raw),
            "latencies": latencies,
            "regions": regions,
            "stdout_bytes": sum(len(r[2].encode()) for r in results),
            "digests": digests,
        }

    def measure(self, seconds: float, traced: bool = False, reference=None) -> list[dict]:
        """Passes until the next one would end after ``seconds`` (at least one)."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(traced, reference))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_samples: list[float], passes: list[dict]) -> dict[str, float]:
    walls = [p["wall"] for p in passes]
    latencies = [x for p in passes for x in p["latencies"]]
    per_pass = len(passes[0]["latencies"])
    base = per_pass * -(-TAIL_BASE // per_pass)
    tail = tail_latency(latencies, base)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "regions_per_s": statistics.median(p["regions"] / p["wall"] for p in passes),
        "cmd_p50_ms": 1000 * statistics.median(latencies),
        "cmd_tail_ms": 1000 * (tail[0] if tail else max(latencies)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "_tail_percentile": tail[1] if tail else 100.0,
        "_tail_base": base,
        "_latency_samples": len(latencies),
        "_passes": len(passes),
        "_raw_wall_s": statistics.median(p["raw_wall"] for p in passes),
    }


def per_layer(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics; counts are per traced pass, times per call."""
    spans = tracer.by_name()
    counts = tracer.counts
    passes = len(traced)
    regions = sum(p["regions"] for p in traced) or 1
    commands = sum(len(p["latencies"]) for p in traced)

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[0] / passes

    def per_call(name: str, scale: float, own: bool = False, base: float | None = None) -> float:
        n, total, own_s = spans.get(name, (0, 0.0, 0.0))
        base = n if base is None else base
        return scale * (own_s if own else total) / base if base else 0.0

    m: dict[str, float] = {}
    words = counts["parking.parking_functions.yields"]
    m["parking.parking_functions.us_per_word"] = per_call("parking.parking_functions", 1e6, base=words)
    m["parking.parking_functions.words"] = words / passes
    ish_regions = counts["ish.ish_diagrams.yields"]
    m["ish.ish_diagrams.us_per_region"] = per_call("ish.ish_diagrams", 1e6, base=ish_regions)
    m["ish.ish_diagrams.regions"] = ish_regions / passes
    for name in (
        "parking.prime_components", "rookwords.orbit_certificate",
        "shi.parking_to_shi_diagram", "shi.shi_diagram_to_parking", "shi.shi_statistics",
        "shi.is_valid_shi", "ish.ish_statistics", "ish.ish_diagram_to_placement",
        "ish.placement_to_ish_diagram", "exactlp.strict_feasible",
    ) + tuple(
        f"bijections.{b}_bijection{suffix}" for b in workloads.BIJECTIONS for suffix in ("", "_inverse")
    ):
        short = name.replace("_bijection", "") if name.startswith("bijections.") else name
        m[f"{short}.us"] = per_call(name, 1e6)
        m[f"{short}.self_us"] = per_call(name, 1e6, own=True)
        m[f"{short}.calls"] = calls(name)
    m["ish.ish_region_count.ms"] = per_call("ish.ish_region_count", 1e3)
    m["ish.ish_region_count.calls"] = calls("ish.ish_region_count")
    m["core.regions"] = regions / passes
    m["core.partition_from_blocks.per_region"] = counts["core.partition_from_blocks"] / regions
    m["core.graph_complete.per_region"] = counts["core.graph_complete"] / regions
    probes = spans.get("exactlp.strict_feasible", (0,))[0]
    m["exactlp.feasible_ratio"] = counts["exactlp.strict_feasible.witnesses"] / probes if probes else 0.0
    m["exactlp.integer_rank.calls"] = calls("exactlp.integer_rank")
    m["geometry.enumerate_regions.self_s"] = per_call("geometry.enumerate_regions", 1.0, own=True)
    m["geometry.enumerate_regions.calls"] = calls("geometry.enumerate_regions")
    for name in ("region_ceilings", "recession_dimension"):
        m[f"geometry.{name}.us_per_region"] = per_call(f"geometry.{name}", 1e6)
        m[f"geometry.{name}.calls"] = calls(f"geometry.{name}")
    m["geometry.max_witness_den_bits"] = counts["geometry.max_witness_den_bits"]
    for command in ("count", "enumerate", "map", "verify", "oracle"):
        m[f"cli.cmd_{command}.self_ms"] = per_call(f"cli.cmd_{command}", 1e3, own=True)
        m[f"cli.cmd_{command}.calls"] = calls(f"cli.cmd_{command}")
    m["cli.commands"] = commands / passes
    m["cli.stdout_bytes"] = sum(p["stdout_bytes"] for p in traced) / commands
    m["cli.load_graph.ms"] = per_call("cli.load_graph", 1e3)
    m["cli.load_graph.calls"] = calls("cli.load_graph")
    m["trace.overhead_ratio"] = (
        statistics.median(p["wall"] for p in traced) / statistics.median(p["wall"] for p in untraced)
    )
    m["trace.passes"] = passes
    return m


# ---------------------------------------------------------------------------
# report


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "src_lines": lines,
    }


def setup(workload: str, seed: int) -> tuple[list[float], dict, list[workloads.Command]]:
    """Import the package and write the seeded inputs, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed_kernel()
        start = time.perf_counter()
        program = load_program()
        commands, files = workloads.build(workload, seed)
        workloads.write_inputs(files, commands, workload)
        samples.append(at_reference_speed(time.perf_counter() - start, before, speed_kernel()))
    return samples, program, commands


def record_digests() -> None:
    digests = {}
    for workload in workloads.WORKLOADS:
        _, program, commands = setup(workload, DEFAULT_SEED)
        bench = Bench(program, commands, {})
        result = bench.run_pass()
        if bench.failures:
            raise SystemExit("refusing to record digests of failing commands:\n" + "\n".join(bench.failures))
        digests.update({c.key: d for c, d in zip(commands, result["digests"])})
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} stdout digests in {DIGESTS.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "shi_ish").is_dir():
        print(f"error: no shi_ish package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))

    setup_samples, program, commands = setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    bench = Bench(program, commands, digests, tracer)
    warm = bench.run_pass()
    if args.trace:
        untraced = bench.measure(seconds * TRACE_UNTRACED_SHARE)
        tracer.install(program)
        try:
            traced = bench.measure(seconds * (1 - TRACE_UNTRACED_SHARE), True, warm["digests"])
        finally:
            tracer.uninstall()
        values = per_layer(tracer, traced, untraced)
        WORK.mkdir(parents=True, exist_ok=True)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        detail = f"traced passes {len(traced)}, untraced {len(untraced)}; spans in {trace_file.relative_to(ROOT)}"
    else:
        passes = bench.measure(seconds)
        values = end_to_end(setup_samples, passes)
        detail = (
            f"passes {values['_passes']} of {len(commands)} commands; cmd_tail_ms is the "
            f"p{values['_tail_percentile']:.1f} of {values['_latency_samples']} latencies "
            f"(ten beyond it in {values['_tail_base']}); timings at reference speed, "
            f"unscaled wall_s {values['_raw_wall_s']:.6g} s"
        )

    facts = machine_facts()
    print(f"# workload {args.workload}, seed {args.seed}: {why[args.workload]}")
    print("# machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"# noise: {NOISE}")
    print(f"# {detail}")
    failure_ratio = len(bench.failures) / bench.attempted
    for failure in bench.failures[:20]:
        print(f"# FAILED {failure}")
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<44} {value:>14.6g} {metric['unit']}")
    print(f"{'failure_ratio':<44} {failure_ratio:>14.6g} ratio ({len(bench.failures)}/{bench.attempted})")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
