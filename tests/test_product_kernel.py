"""No product entry point builds the interpreted implication engine.

The interpreted :class:`~repro.implication.engine.ImplicationEngine` is the
oracle the compiled kernel is lowered from; tests and benchmarks build it
on purpose (``compiled=False``).  A check, an FSM extraction or a portfolio
run must build only :class:`~repro.implication.compiled.CompiledEngine`.
"""

import pytest

from repro import api
from repro.analysis import extract_local_fsms
from repro.checker.incremental import shared_model_cache
from repro.circuits import build_case
from repro.implication.engine import ImplicationEngine
from repro.portfolio import PortfolioChecker, PortfolioOptions
from repro.portfolio import checker as portfolio_checker


@pytest.fixture
def interpreted_engines(monkeypatch):
    """Every engine built whose type is exactly the interpreted one."""
    api.clear_design_cache()
    shared_model_cache().clear()
    built = []
    original = ImplicationEngine.__init__

    def counting_init(self, *args, **kwargs):
        if type(self) is ImplicationEngine:
            built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ImplicationEngine, "__init__", counting_init)
    yield built
    api.clear_design_cache()
    shared_model_cache().clear()


def test_fsm_guided_check(interpreted_engines):
    request = api.CheckRequest(circuit=api.CircuitRef.case("p1"), fsm_guidance=True)
    assert api.check(request).results[0].status == "witness_found"
    assert interpreted_engines == []


def test_fsm_extraction(interpreted_engines):
    assert len(extract_local_fsms(build_case("p1").circuit)) == 8
    assert interpreted_engines == []


def test_sequential_portfolio(interpreted_engines, monkeypatch):
    monkeypatch.setattr(portfolio_checker, "can_spawn_engines", lambda: False)
    case = build_case("p5")
    checker = PortfolioChecker(
        case.circuit, engines=("atpg", "bdd"), environment=case.environment,
        options=PortfolioOptions(run_all=True),
    )
    result = checker.check(case.prop)
    assert [r.verdict for r in result.engine_results] == ["unreachable"] * 2
    assert interpreted_engines == []
