"""Span tracer that wraps the public functions of the ``shi_ish`` modules.

``Tracer.install`` replaces every public module-level function of the traced
modules with a timing wrapper and rebinds the name wherever the package holds
the original: in the defining module, in every module that imported it, and in
module-level dicts such as the CLI's bijection table.  ``Tracer.uninstall``
puts every original back.  Nothing under ``src/`` is edited.

A span has a name (``layer.function``), a start, an end, a parent and the id
of the command it ran under.  The CLI entry and command spans (depth 0 and 1)
are kept whole; deeper spans, called up to ~10^5 times a pass, are folded into
per-(name, parent) totals of calls, inclusive time and self time.  Generator
functions get one span per ``next()``.  Functions of ``core`` are only
counted: they run ~10^5-10^6 times a pass and a span each would swamp the
rest.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Iterator

LAYERS = ("parking", "rookwords", "shi", "ish", "core", "bijections", "exactlp", "geometry", "cli")
COUNT_ONLY_LAYERS = ("core",)
KEPT_DEPTH = 1  # spans at this depth or shallower are kept whole


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration of [start, end] not covered by any child interval.

    Children may nest or overlap; each is clipped to the parent first.
    """
    covered = 0.0
    reach = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def _witness_den_bits(witness) -> int:
    return max((x.denominator.bit_length() for x in witness), default=0)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.command_id: int | None = None
        self.spans: list[tuple[str, float, float, str | None, int | None, float]] = []
        self.totals: dict[tuple[str, str | None], list[float]] = {}
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._observers: dict[str, Callable[[object], None]] = {
            "exactlp.strict_feasible": self._observe_probe,
            "geometry.enumerate_regions": self._observe_regions,
        }

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), []])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        own = self_time(start, end, children)
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2].append((start, end))
        if len(self._stack) <= KEPT_DEPTH:
            self.spans.append((name, start, end, parent, self.command_id, own))
        total = self.totals.get((name, parent))
        if total is None:
            total = self.totals[(name, parent)] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += end - start
        total[2] += own

    def _observe_probe(self, witness) -> None:
        if witness is not None:
            self.counts["exactlp.strict_feasible.witnesses"] += 1

    def _observe_regions(self, regions) -> None:
        bits = max((_witness_den_bits(r.witness) for r in regions), default=0)
        self.counts["geometry.max_witness_den_bits"] = max(
            self.counts["geometry.max_witness_den_bits"], bits
        )

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _generator_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            return self._timed_next(name, items) if self.enabled else items

        return traced

    def _timed_next(self, name: str, items: Iterator) -> Iterator:
        while True:
            self._enter(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._exit()
            self.counts[f"{name}.yields"] += 1
            yield item

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ------------------------------------------------

    def _set(self, holder, key: str, value, is_dict: bool) -> None:
        if is_dict:
            holder[key] = value
        else:
            setattr(holder, key, value)

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)
        and rebind every reference the loaded ``shi_ish`` package holds."""
        replacements: dict[int, Callable] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer in COUNT_ONLY_LAYERS:
                    replacements[id(value)] = self._count_wrapper(name, value)
                elif inspect.isgeneratorfunction(value):
                    replacements[id(value)] = self._generator_wrapper(name, value)
                else:
                    replacements[id(value)] = self._span_wrapper(name, value)
        package = [m for n, m in sys.modules.items() if n == "shi_ish" or n.startswith("shi_ish.")]
        for module in package:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in replacements:
                    self._patches.append((module, attr, value, False))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in replacements:
                            self._patches.append((value, key, entry, True))
        graph = modules["core"].Graph
        complete = vars(graph)["complete"]
        counted = self._count_wrapper("core.graph_complete", complete.__func__)
        self._patches.append((graph, "complete", complete, False))
        for holder, key, original, is_dict in self._patches:
            if holder is graph:
                self._set(graph, key, classmethod(counted), False)
            else:
                self._set(holder, key, replacements[id(original)], is_dict)

    def uninstall(self) -> None:
        for holder, key, original, is_dict in reversed(self._patches):
            self._set(holder, key, original, is_dict)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Calls, inclusive seconds and self seconds per span name, summed
        over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, own) in self.totals.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return {k: tuple(v) for k, v in out.items()}

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "command": c, "self": o}
                for n, s, e, p, c, o in self.spans
            ],
            "totals": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": o}
                for (n, p), (c, t, o) in sorted(self.totals.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "counts": dict(sorted(self.counts.items())),
        }
