"""The public records behave as the dataclasses they were declared as.

Every public record is a plain :class:`repro.records.Record` class.  Each
one is compared here with a reference ``@dataclass`` declaring the same
fields, in the same order, with the same defaults: ``repr``, equality,
hash, pickling, ``__match_args__``, frozenness and the ``dataclasses``
functions (``replace``, ``fields``, ``asdict``, ``is_dataclass``) must
agree.
"""

import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest

from repro import api
from repro.atpg.estg import LearnedCube
from repro.atpg.timeframe import JustifierLimits
from repro.bitvector.intervals import ValueRange
from repro.checker.engine import CheckerOptions
from repro.checker.result import CheckResult, CheckStatus, Counterexample
from repro.checker.stats import CheckStatistics
from repro.properties.spec import Assertion, Property, Signal, Witness


class Reference:
    """The reference dataclasses, one per public record."""

    @dataclass(frozen=True)
    class CircuitRef:
        kind: str
        path: Optional[str] = None
        top: Optional[str] = None
        text: Optional[str] = None
        case_id: Optional[str] = None
        circuit: Optional[object] = None

    @dataclass(frozen=True)
    class PropertySpec:
        kind: str
        name: str
        expr: str
        max_frames: Optional[int] = None
        seed: Optional[int] = None

    @dataclass(frozen=True)
    class CheckRequest:
        circuit: object
        properties: Tuple = ()
        pinned: Tuple = ()
        one_hot: Tuple = ()
        assumptions: Tuple = ()
        initial_state: Optional[Tuple] = None
        init_vectors: Tuple = ()
        engines: Tuple[str, ...] = ("atpg",)
        max_frames: Optional[int] = None
        time_budget: Optional[float] = None
        sim_width: Optional[int] = None
        seed: Optional[int] = None
        random_runs: Optional[int] = None
        random_cycles: Optional[int] = None
        bdd_iterations: Optional[int] = None
        bdd_node_limit: Optional[int] = None
        learning: bool = True
        kb_path: Optional[str] = None
        fsm_guidance: bool = False
        jobs: int = 1
        compare: bool = False

    @dataclass(frozen=True)
    class PropertyVerdict:
        name: str
        kind: str
        status: str
        conclusive: bool
        winner: Optional[str] = None
        frames_explored: Optional[int] = None
        wall_seconds: float = 0.0
        trace: Optional[Dict] = None
        stats: Dict = field(default_factory=dict)
        engines: Tuple = ()
        seed: Optional[int] = None
        disagreement: Tuple[str, ...] = ()

    @dataclass(frozen=True)
    class CheckReport:
        results: Tuple
        engines: Tuple[str, ...] = ("atpg",)
        wall_seconds: float = 0.0
        source: str = "in-process"
        service: Optional[Dict] = None

    @dataclass
    class CheckResult:
        prop: object
        status: object
        frames_explored: int
        counterexample: Optional[object] = None
        statistics: object = field(default_factory=CheckStatistics)

        __repr__ = CheckResult.__repr__  # the record spells itself too

    @dataclass
    class Counterexample:
        initial_state: Dict
        inputs: List
        trace: List
        target_frame: int
        monitor_name: str
        validated: bool = False

    @dataclass
    class CheckStatistics:
        wall_seconds: float = 0.0
        peak_memory_mb: float = 0.0
        decisions: int = 0
        backtracks: int = 0
        conflicts: int = 0
        implications: int = 0
        arithmetic_calls: int = 0
        frames_explored: int = 0
        justify_runs: int = 0
        models_reused: int = 0
        frames_built: int = 0
        rule_cache_hits: int = 0
        rule_cache_misses: int = 0
        justified_cache_hits: int = 0
        justified_cache_misses: int = 0
        solver_cores: int = 0
        unproven_leaves: int = 0
        compiled_models: int = 0
        compile_time_ms: float = 0.0
        cubes_learned: int = 0
        cubes_lifted: int = 0
        cube_hits: int = 0
        datapath_cubes_learned: int = 0
        datapath_cube_hits: int = 0
        targets_skipped: int = 0
        kb_cubes_loaded: int = 0
        kb_hits: int = 0
        frontier_peak: int = 0

    @dataclass
    class CheckerOptions:
        max_frames: int = 8
        learning: bool = True
        kb_path: Optional[str] = None
        use_bias: bool = True
        use_local_fsm_guidance: bool = False
        limits: object = field(default_factory=JustifierLimits)

    @dataclass
    class Property:
        name: str
        expr: object
        description: str = ""

    @dataclass
    class Assertion(Property):
        pass

    @dataclass
    class Witness(Property):
        pass

    @dataclass(frozen=True)
    class ValueRange:
        width: int
        lo: int
        hi: int

    @dataclass
    class LearnedCube:
        literals: Tuple
        shiftable: bool
        min_position: int
        max_position: int
        prop_fp: Optional[object] = None
        source: str = "resolution"
        hits: int = 0
        fingerprint: Optional[int] = None
        from_kb: bool = False


EXPR = Signal("count") <= 9

#: (record class, required fields, more fields, a change for ``replace``).
RECORDS = [
    (api.CircuitRef, {"kind": "case"}, {"case_id": "p1", "top": "t"}, {"case_id": "p2"}),
    (api.PropertySpec, {"kind": "assert", "name": "ok", "expr": "count <= 9"},
     {"max_frames": 4, "seed": 3}, {"max_frames": 5}),
    (api.CheckRequest, {"circuit": api.CircuitRef.case("p1")},
     {"engines": ("atpg", "sat"), "max_frames": 4, "one_hot": (("a", "b"),), "jobs": 2,
      "properties": (api.PropertySpec("assert", "ok", "x == 1"),)},
     {"kb_path": "kb.sqlite", "learning": False}),
    (api.PropertyVerdict, {"name": "ok", "kind": "assertion", "status": "holds",
                           "conclusive": True},
     {"stats": {"decisions": 3}, "disagreement": ("sat",)}, {"winner": "atpg"}),
    (api.CheckReport, {"results": ()}, {"wall_seconds": 0.5, "source": "daemon"},
     {"service": {"worker": 1}}),
    (CheckResult, {"prop": Assertion("ok", EXPR), "status": CheckStatus.HOLDS,
                   "frames_explored": 8},
     {"statistics": CheckStatistics(decisions=4)}, {"frames_explored": 3}),
    (Counterexample, {"initial_state": {"count": 0}, "inputs": [{"en": 1}],
                      "trace": [{"count": 0, "en": 1}], "target_frame": 0,
                      "monitor_name": "m"},
     {"validated": True}, {"target_frame": 1}),
    (CheckStatistics, {}, {"decisions": 7, "compile_time_ms": 1.5, "frontier_peak": 2},
     {"kb_hits": 1}),
    (CheckerOptions, {}, {"max_frames": 3, "limits": JustifierLimits(max_depth=9)},
     {"use_bias": False}),
    (Property, {"name": "p", "expr": EXPR}, {"description": "d"}, {"name": "q"}),
    (Assertion, {"name": "p", "expr": EXPR}, {"description": "d"}, {"name": "q"}),
    (Witness, {"name": "p", "expr": EXPR}, {"description": "d"}, {"name": "q"}),
    (ValueRange, {"width": 4, "lo": 2, "hi": 9}, {}, {"hi": 12}),
    (LearnedCube, {"literals": (("count", 0, "4'b1001"),), "shiftable": True,
                   "min_position": -1, "max_position": 0},
     {"prop_fp": (1, 1), "source": "datapath", "from_kb": True}, {"hits": 2}),
]

IDS = [record.__name__ for record, *_ in RECORDS]


def test_every_public_record_has_a_reference():
    assert sorted(IDS) == sorted(
        name for name in vars(Reference) if not name.startswith("_")
    )


def _pair(record, values):
    return record(**values), getattr(Reference, record.__name__)(**values)


def _spelled(obj) -> str:
    """``repr``, naming a reference dataclass without its ``Reference.``."""
    return repr(obj).replace(type(obj).__qualname__ + "(", type(obj).__name__ + "(", 1)


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("record,required,more,change", RECORDS, ids=IDS)
def test_record_matches_its_reference_dataclass(record, required, more, change):
    reference = getattr(Reference, record.__name__)
    for values in (required, {**required, **more}):
        ours, theirs = _pair(record, values)
        assert _spelled(ours) == _spelled(theirs)
        assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)
        assert _hash_or_error(ours) == _hash_or_error(theirs)
        again, _ = _pair(record, values)
        assert ours == again
        assert not ours != again
        changed = dataclasses.replace(ours, **change)
        assert type(changed) is record
        assert _spelled(changed) == _spelled(dataclasses.replace(theirs, **change))
        assert changed != ours
        copied = pickle.loads(pickle.dumps(ours))
        assert type(copied) is record
        assert _spelled(copied) == _spelled(ours)
        if record is not CheckResult:  # its Property's expression has no value equality
            assert copied == ours

    assert record.__match_args__ == reference.__match_args__
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(ours)

    def described(cls):
        return [(f.name, f.default, f.default_factory, f.init, f.repr, f.compare)
                for f in dataclasses.fields(cls)]

    assert described(record) == described(reference)
    assert described(ours) == described(reference)


@pytest.mark.parametrize("record,required,more,change", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(record, required, more, change):
    ours, theirs = _pair(record, required)
    name, value = next(iter(change.items()))
    for obj in (ours, theirs):
        frozen = type(obj).__dataclass_params__.frozen
        if frozen:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        else:
            setattr(obj, name, value)
            assert getattr(obj, name) == value
    assert ours.__dataclass_params__.frozen == theirs.__dataclass_params__.frozen
    assert _spelled(ours) == _spelled(theirs)


def test_records_of_different_classes_are_never_equal():
    assertion, witness = Assertion("p", EXPR), Witness("p", EXPR)
    assert assertion != witness
    assert Property("p", EXPR) != assertion
    assert ValueRange(4, 1, 2) != (4, 1, 2)


def test_default_factories_build_a_value_per_instance():
    first, second = api.PropertyVerdict("a", "assertion", "holds", True), \
        api.PropertyVerdict("b", "assertion", "holds", True)
    assert first.stats == {} and first.stats is not second.stats
    assert CheckerOptions().limits is not CheckerOptions().limits
    assert CheckResult(Assertion("p", EXPR), CheckStatus.HOLDS, 1).statistics == CheckStatistics()
    assert "stats" not in vars(api.PropertyVerdict)


def test_slotted_records_compare_by_value_but_are_no_dataclasses():
    assert JustifierLimits(max_depth=3) == JustifierLimits(max_depth=3)
    assert JustifierLimits() != JustifierLimits(max_depth=3)
    assert repr(JustifierLimits(arithmetic_budget=7)) == (
        "JustifierLimits(max_decisions=200000, max_backtracks=50000, max_depth=5000, "
        "arithmetic_budget=7)"
    )
    assert not dataclasses.is_dataclass(JustifierLimits)
    with pytest.raises(TypeError):
        hash(JustifierLimits())
