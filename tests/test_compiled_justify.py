"""A/B bit-identity suite for the compiled check kernel.

The compiled slot-indexed implication kernel
(:mod:`repro.implication.compiled`) must be *observationally identical* to
the interpreted engine it lowers: same verdicts, same counterexample traces,
same per-bound fixpoints, same learning behaviour, and -- because the rule
memos are keyed bijectively -- the same cache hit/miss statistics.  This
suite pins that contract three ways:

* the full property zoo (p1-p15) plus fuzzed random netlists, compared
  end-to-end at the check level and per bound;
* slot-level mechanics: savepoint/rollback restores the ternary lanes
  exactly, and the incremental dirty-set frontier always matches a full
  unjustified-nodes scan;
* warm-start reuse: a knowledge base written by one mode replays
  bit-identically in the other (the learned facts carry no mode).

The product always runs compiled; the interpreted oracle is reached by
handing the checker an ``UnrolledModelCache(compiled=False)``.
"""

import asyncio
import contextlib
import os
import random
import threading
import time

import pytest

from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache
from repro.checker.report import counterexample_to_dict, statistics_to_dict
from repro.circuits import all_case_ids, build_case
from repro.netlist import Circuit
from repro.properties import Assertion, Signal, Witness

#: wall-clock / environment-dependent keys excluded from stat comparison.
TIME_KEYS = {"compile_time_ms", "peak_memory_mb", "wall_seconds"}
#: counts compile passes, so it legitimately differs between the modes.
MODE_KEYS = {"compiled_models"}


def _comparable(statistics) -> dict:
    return {
        key: value
        for key, value in statistics_to_dict(statistics).items()
        if key not in TIME_KEYS | MODE_KEYS
    }


def _run_case(case, compiled, bound=None, **option_overrides):
    """One full check on a private model cache; returns (result, estg stats)."""
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=case.max_frames, **option_overrides),
        model_cache=UnrolledModelCache(compiled=compiled),
    )
    result = checker.check(case.prop, max_frames=bound)
    estg_stats = None
    if checker._incremental_model is not None:
        estg_stats = checker._incremental_model.estg.stats()
    return result, estg_stats


def _trace_dict(result):
    if result.counterexample is None:
        return None
    return counterexample_to_dict(result.counterexample)


def _assert_bit_identical(case_factory, bound=None, **option_overrides):
    """Run both modes on freshly built cases and compare everything pinned.

    ``case_factory`` must build a *new* case per call: property compilation
    appends monitor gates to the circuit, so the two runs may not share one.
    """
    interp, interp_estg = _run_case(
        case_factory(), compiled=False, bound=bound, **option_overrides
    )
    compiled, compiled_estg = _run_case(
        case_factory(), compiled=True, bound=bound, **option_overrides
    )
    assert interp.status == compiled.status
    assert interp.frames_explored == compiled.frames_explored
    assert _comparable(interp.statistics) == _comparable(compiled.statistics)
    assert interp_estg == compiled_estg
    assert _trace_dict(interp) == _trace_dict(compiled)
    assert compiled.statistics.compiled_models >= 1
    assert interp.statistics.compiled_models == 0
    return interp, compiled


# ----------------------------------------------------------------------
# The property zoo, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", all_case_ids() + ["p15"])
def test_zoo_bit_identical(case_id):
    _assert_bit_identical(lambda: build_case(case_id))


@pytest.mark.parametrize("case_id", ["p2", "p5"])
def test_zoo_bit_identical_at_every_bound(case_id):
    """The per-bound fixpoints agree, not just the final aggregate."""
    max_frames = build_case(case_id).max_frames
    for bound in range(1, max_frames + 1):
        _assert_bit_identical(lambda: build_case(case_id), bound=bound)


# ----------------------------------------------------------------------
# Fuzzed netlists
# ----------------------------------------------------------------------
def build_fuzzed_case(seed: int):
    """A random sequential design mixing every implication rule family."""
    rng = random.Random(seed)
    circuit = Circuit("fuzz_%d" % seed)
    a = circuit.input("a", 3)
    b = circuit.input("b", 3)
    state = circuit.state("state", 3)
    terms = [a, b, state]
    for _ in range(rng.randint(3, 6)):
        kind = rng.choice(["add", "sub", "and", "or", "xor", "mul", "mux"])
        x, y = rng.choice(terms), rng.choice(terms)
        if kind == "add":
            terms.append(circuit.add(x, y))
        elif kind == "sub":
            terms.append(circuit.sub(x, y))
        elif kind == "and":
            terms.append(circuit.and_(x, y))
        elif kind == "or":
            terms.append(circuit.or_(x, y))
        elif kind == "xor":
            terms.append(circuit.xor(x, y))
        elif kind == "mul":
            terms.append(circuit.mul(x, y, out_width=3))
        else:
            terms.append(circuit.mux(circuit.lt(x, rng.randint(1, 6)), x, y))
    circuit.dff_into(state, terms[-1], init_value=rng.randint(0, 7))
    circuit.output(state)
    return circuit


class _FuzzCase:
    """Just enough of a PreparedCase for :func:`_run_case`."""

    def __init__(self, circuit, prop, max_frames):
        self.circuit = circuit
        self.prop = prop
        self.environment = None
        self.initial_state = None
        self.max_frames = max_frames


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["assertion", "witness"])
def test_fuzzed_netlists_bit_identical(seed, kind):
    target = random.Random(seed * 31 + 7).randint(0, 7)
    if kind == "assertion":
        prop = Assertion("never_%d" % target, Signal("state") != target)
    else:
        prop = Witness("reach_%d" % target, Signal("state") == target)

    def factory():
        return _FuzzCase(build_fuzzed_case(seed), prop, max_frames=6)

    _assert_bit_identical(factory)


# ----------------------------------------------------------------------
# Slot-level mechanics
# ----------------------------------------------------------------------
def _paired_models():
    """One circuit shape, one interpreted + one compiled unrolled model."""
    from repro.atpg.timeframe import UnrolledModel

    models = []
    for compiled in (False, True):
        circuit = build_fuzzed_case(3)
        models.append(UnrolledModel(circuit, 3, compiled=compiled))
    return models


def _named_snapshot(model):
    """The engine snapshot keyed by (net name, frame), so snapshots of two
    models built from distinct circuit instances compare meaningfully."""
    return {
        (net.name, frame): str(cube)
        for (net, frame), cube in model.engine.assignment.snapshot().items()
    }


def test_savepoint_rollback_restores_slot_lanes_exactly():
    from repro.bitvector import BV3

    interp, compiled = _paired_models()
    assignment = compiled.engine.assignment
    baseline = (list(assignment._known), list(assignment._value),
                dict(assignment._live))
    interp_baseline = _named_snapshot(interp)
    assert _named_snapshot(compiled) == interp_baseline

    for model in (interp, compiled):
        savepoint = model.engine.savepoint()
        engine = model.engine
        engine.assign(model.key(model.circuit.net("a"), 0), BV3.from_int(3, 5))
        engine.assign(model.key(model.circuit.net("b"), 1), BV3.from_int(3, 2))
        engine.rollback_to(savepoint)

    # The interpreted snapshots agree after the round trip...
    assert _named_snapshot(interp) == interp_baseline
    assert _named_snapshot(compiled) == interp_baseline
    # ...and the compiled lanes (including the live-slot insertion order,
    # which feeds ``known_keys`` / trace extraction) are restored verbatim.
    assert list(assignment._known) == baseline[0]
    assert list(assignment._value) == baseline[1]
    assert dict(assignment._live) == baseline[2]


def test_dirty_set_frontier_matches_full_scan():
    from repro.bitvector import BV3

    for model in _paired_models():
        engine = model.engine
        order = model.node_order()
        state_key = model.key(model.circuit.net("state"), 2)
        savepoint = engine.savepoint()
        engine.assign(state_key, BV3.from_int(3, 6))
        incremental = engine.unjustified_frontier(order)
        full = engine.unjustified_nodes(model.active_nodes())
        assert [node.name for node in incremental] == [
            node.name for node in full
        ], "mode compiled=%s" % (model.compiled,)
        # Rolling back dirties the restored slots; the frontier must follow.
        engine.rollback_to(savepoint)
        assert engine.unjustified_frontier(order) == engine.unjustified_nodes(
            model.active_nodes()
        )


# ----------------------------------------------------------------------
# Warm knowledge-base round trips across modes
# ----------------------------------------------------------------------
def test_warm_kb_replays_bit_identically_across_modes(tmp_path):
    """Facts learned by one mode warm-start the other bit-identically.

    p15 is the datapath-certificate sweep: the cold run turns solver
    infeasibility certificates into datapath cubes alongside FAIL memos;
    both warm runs must replay them without a single solver call.
    """
    kb_path = os.fspath(tmp_path / "kb.sqlite")
    cold, _ = _run_case(build_case("p15"), compiled=True, kb_path=kb_path)
    assert cold.statistics.datapath_cubes_learned > 0

    warm_interp, interp_estg = _run_case(
        build_case("p15"), compiled=False, kb_path=kb_path
    )
    warm_compiled, compiled_estg = _run_case(
        build_case("p15"), compiled=True, kb_path=kb_path
    )
    assert warm_interp.status == warm_compiled.status == cold.status
    assert _comparable(warm_interp.statistics) == _comparable(
        warm_compiled.statistics
    )
    assert interp_estg == compiled_estg
    # Warm runs re-solve nothing and replay knowledge-base facts.
    assert warm_compiled.statistics.arithmetic_calls == 0
    assert warm_compiled.statistics.kb_hits > 0


def test_warm_kb_daemon_round_trip_across_modes(tmp_path):
    """A real daemon's warm worker answers like the interpreted oracle.

    The service worker holds resident compiled models and one open
    knowledge-base handle across jobs.  After a cold submit primes the
    store, a warm submit must replay the persisted facts and answer with
    the same verdict, trace and search statistics as an in-process check
    on the interpreted engine warmed from the same store.
    """
    from repro import api
    from repro.service.client import (
        ServiceClient,
        check_via_service,
        service_available,
    )
    from repro.service.supervisor import ServiceOptions, serve

    kb_path = os.fspath(tmp_path / "kb.sqlite")
    socket_path = os.fspath(tmp_path / "repro-service.sock")
    request = api.CheckRequest(circuit=api.CircuitRef.case("p15"), kb_path=kb_path)

    thread = threading.Thread(
        target=lambda: asyncio.run(serve(ServiceOptions(socket_path=socket_path))),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if os.path.exists(socket_path) and service_available(socket_path):
            break
        time.sleep(0.05)
    else:
        raise RuntimeError("daemon did not come up")
    try:
        cold = check_via_service(request, socket_path=socket_path, fallback=False)
        warm = check_via_service(request, socket_path=socket_path, fallback=False)
    finally:
        with contextlib.suppress(Exception):
            with ServiceClient(
                socket_path, connect_timeout=2.0, read_timeout=5.0
            ) as client:
                client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "daemon thread failed to shut down"

    assert cold.source == warm.source == "daemon"
    # Same daemon worker answered both (keyed by circuit fingerprint).
    assert warm.service["worker"]["jobs_done"] >= 2
    oracle, _ = _run_case(build_case("p15"), compiled=False, kb_path=kb_path)

    [cold_r] = cold.results
    [warm_r] = warm.results
    assert cold_r.status == warm_r.status == oracle.status.value
    assert warm_r.trace == cold_r.trace == _trace_dict(oracle)

    # Residency gauges measure cache warmth, not the engine: the daemon
    # job reuses the resident model (facts still in its ESTG from the cold
    # run), the oracle builds fresh and loads from the store.
    warmth_keys = {
        "models_reused",
        "frames_built",
        "kb_cubes_loaded",
        "kb_hits",
    }

    def comparable(stats):
        return {
            key: value
            for key, value in stats.items()
            if key not in TIME_KEYS | MODE_KEYS | warmth_keys
        }

    assert comparable(warm_r.stats) == comparable(
        statistics_to_dict(oracle.statistics)
    )
    # Both warm runs replay the store's cores/cubes/memos: no solver calls.
    assert warm_r.stats["arithmetic_calls"] == 0
    assert oracle.statistics.arithmetic_calls == 0
    assert oracle.statistics.kb_hits > 0
