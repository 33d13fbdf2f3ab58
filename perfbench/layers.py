"""Layer spans recorded from outside the program, for the traced run.

:func:`install` replaces public functions and methods of each layer with
wrappers that time every call.  Spans are grouped by *request*: each check
opens one record, and a record maps a layer name to ``[calls, total_s,
self_s]``, where self time is the span minus the time of the layer spans it
encloses.  Records stay in memory until :meth:`Tracer.dump`.

A layer that re-enters itself (a propagate calling propagate) is timed at
its outermost call only, so ``calls`` counts outermost calls.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Dict, List

#: (layer name, module, class or None for a module function, attribute).
LAYERS = (
    ("hdl.compile", "repro.hdl", None, "compile_verilog"),
    ("properties.compile", "repro.properties.convert", "PropertyCompiler", "compile"),
    ("api.resolve", "repro.api", None, "resolve_design"),
    ("checker.init", "repro.checker.engine", "AssertionChecker", "__init__"),
    ("checker.acquire", "repro.checker.incremental", "UnrolledModelCache", "acquire"),
    ("atpg.extend", "repro.atpg.timeframe", "UnrolledModel", "extend_to"),
    ("checker.check", "repro.checker.engine", "AssertionChecker", "check"),
    ("implication.propagate", "repro.implication.compiled", "CompiledEngine", "propagate"),
    ("atpg.search", "repro.atpg.justify", "Justifier", "run"),
    ("modsolver.solve", "repro.modsolver.extract", "ArithmeticProblem", "solve"),
    # The checker validates a trace by stepping the simulator cycle by cycle.
    ("simulation.validate", "repro.simulation.simulator", "Simulator", "step"),
    ("kb.attach", "repro.kb.store", "KnowledgeBase", "attach"),
    ("kb.flush", "repro.kb.store", "KnowledgeBase", "flush_model"),
)


class Tracer:
    """Per-request span totals of the wrapped layers."""

    def __init__(self):
        #: one ``{layer: [calls, total_s, self_s]}`` per request, in order.
        self.records: List[Dict[str, list]] = []
        self._current: Dict[str, list] = {}  # spans outside any request
        self._open: List[list] = []  # child-time accumulators of open spans
        self._active = set()

    @contextlib.contextmanager
    def requesting(self):
        """Attribute the spans of the enclosed code to a new request record."""
        record: Dict[str, list] = {}
        self.records.append(record)
        previous, self._current = self._current, record
        try:
            yield
        finally:
            self._current = previous

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a timed wrapper named ``name``."""
        original = getattr(owner, attribute)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name in tracer._active:
                return original(*args, **kwargs)
            tracer._active.add(name)
            children = [0.0]
            tracer._open.append(children)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._open.pop()
                tracer._active.discard(name)
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                entry = tracer._current.get(name)
                if entry is None:
                    entry = tracer._current[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]

        setattr(owner, attribute, traced)

    def wrap_request(self, owner, attribute: str) -> None:
        """Make every call of ``owner.attribute`` one request record."""
        original = getattr(owner, attribute)
        tracer = self

        def request(*args, **kwargs):
            with tracer.requesting():
                return original(*args, **kwargs)

        setattr(owner, attribute, request)

    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump({"records": self.records}, stream)


def install(tracer: Tracer) -> None:
    """Wrap every layer of :data:`LAYERS`."""
    for name, module_name, class_name, attribute in LAYERS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attribute, name)


def load_records(path: str) -> List[Dict[str, list]]:
    with open(path) as stream:
        return json.load(stream)["records"]
