"""Spans recorded from outside the program, for the traced run only.

:meth:`Tracer.install` rebinds each public function named in ``TRACED`` in
every ``qfilter.*`` module namespace that holds it (aliases included), so
calls between the program's own modules are recorded too.  No source file
is edited, and the end-to-end runs never call :meth:`Tracer.install`.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 at top level) and ``op`` is the timed operation it
belongs to (-1 for the verification pass).  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: Traced public function -> the layer (module) it belongs to.
TRACED = {
    "overlaps": "states",
    "parallel_component_norm2": "states",
    "solve": "filter_core",
    "design": "designer",
    "complete_unitary": "designer",
    "decompose": "multiport",
    "recompose": "multiport",
    "sample": "simulator",
    "von_neumann_baseline": "simulator",
    "three_state_Q": "oracle",
    "brute_force_filter": "oracle",
    "compare": "oracle",
}
#: Spans the benchmark opens around its own calls.
OWN_SPANS = {"op": "unattributed", "Ensemble": "states", "cli.process": "cli"}
LAYERS = ("states", "filter_core", "designer", "multiport", "simulator", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def install(self) -> list[str]:
        """Wrap the traced functions; returns the names found in the program."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qfilter" or name.startswith("qfilter."))
        ]
        wrappers = {}
        for mod in modules:
            for name in TRACED:
                fn = vars(mod).get(name)
                if callable(fn) and getattr(fn, "__module__", "") == mod.__name__:
                    wrappers[id(fn)] = self._wrap(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
                    self._restore.append((mod, attr, val))
        return sorted({w.__name__ for w in wrappers.values()})

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


class SpanStats:
    """Counts, inclusive and self times per span name, split by timed ops."""

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
            if parent >= 0:
                child[parent] += end - start
        self.count: dict[tuple[str, bool], int] = {}
        self.incl: dict[tuple[str, bool], float] = {}
        self.self_time: dict[tuple[str, bool], float] = {}
        #: (name, ancestor name) -> timed calls of ``name`` made inside ``ancestor``.
        self.nested: dict[tuple[str, str], int] = {}
        for i, (name, start, end, parent, op) in enumerate(spans):
            key = (name, op >= 0)
            self.count[key] = self.count.get(key, 0) + 1
            self.incl[key] = self.incl.get(key, 0.0) + (end - start)
            self.self_time[key] = self.self_time.get(key, 0.0) + (end - start - child[i])
            seen = set()
            while op >= 0 and parent >= 0:
                anc = spans[parent][0]
                if anc not in seen:
                    seen.add(anc)
                    self.nested[(name, anc)] = self.nested.get((name, anc), 0) + 1
                parent = spans[parent][3]

    def calls(self, name: str, timed: bool = True) -> int:
        return self.count.get((name, timed), 0)

    def mean_ms(self, name: str, timed: bool = True) -> float:
        n = self.calls(name, timed)
        return 1e3 * self.incl.get((name, timed), 0.0) / n if n else 0.0

    def self_s(self, name: str) -> float:
        return self.self_time.get((name, True), 0.0)

    def layer_self_s(self, layer: str) -> float:
        layer_of = {**TRACED, **OWN_SPANS}
        return sum(
            t for (name, timed), t in self.self_time.items()
            if timed and layer_of.get(name) == layer
        )
