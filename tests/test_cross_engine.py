"""Differential testing: independent engines must agree on small designs.

The word-level ATPG checker (bounded) and the BDD symbolic reachability
checker (exact over the reachable state space) are run on the same randomly
generated small sequential circuits and the same properties.  With the
unrolling bound set beyond the state-space diameter the verdicts must
coincide; any disagreement indicates a soundness bug in one of the engines,
which is exactly what this suite is designed to surface.  The SAT bounded
model checker joins the comparison on the violation cases (where its DPLL
search is cheap); its exhaustive UNSAT proofs over deep unrollings are
exercised separately in ``test_baselines.py``.

The environment cases run all four engines, and ATPG once more under FSM
guidance, under seeded environmental setups (an input assumption, a one-hot
group, pins, an init vector) on designs small enough for SAT to prove every
bound.  Every conclusive verdict must match the exact BDD answer, and every
reported trace must validate under the shared
:func:`~repro.simulation.replay_trace` from the environment's initial state.
"""

import random

import pytest

from repro import api
from repro.baselines import (
    BddSymbolicChecker,
    RandomSimulationChecker,
    RandomSimulationOptions,
    SATBoundedChecker,
)
from repro.checker import AssertionChecker, CheckerOptions, CheckStatus
from repro.hdl import compile_verilog
from repro.netlist import Circuit
from repro.properties import (
    Assertion,
    Environment,
    OneHot,
    PropertyCompiler,
    Signal,
    Witness,
    parse_expression,
)
from repro.simulation import Simulator, replay_trace


def build_random_circuit(seed: int) -> Circuit:
    """A small random sequential design with one 3-bit state register.

    The next-state logic mixes arithmetic, bit-wise and comparator/mux
    primitives so every implication rule family participates.
    """
    rng = random.Random(seed)
    circuit = Circuit("random_%d" % seed)
    a = circuit.input("a", 3)
    b = circuit.input("b", 3)
    state = circuit.state("state", 3)

    terms = [a, b, state]
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["add", "sub", "and", "or", "xor", "mux"])
        x = rng.choice(terms)
        y = rng.choice(terms)
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
        else:
            select = circuit.lt(x, rng.randint(1, 6))
            terms.append(circuit.mux(select, x, y))

    next_state = terms[-1]
    circuit.dff_into(state, next_state, init_value=rng.randint(0, 7))
    circuit.output(state)
    return circuit


def _normalise(status: CheckStatus) -> str:
    """Collapse the verdict to 'reachable' / 'unreachable' for comparison."""
    if status in (CheckStatus.FAILS, CheckStatus.WITNESS_FOUND):
        return "reachable"
    if status in (CheckStatus.HOLDS, CheckStatus.WITNESS_NOT_FOUND):
        return "unreachable"
    return "aborted"


#: Enough frames to cover the full diameter of a 3-bit state space.
BOUND = 9


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("target", [0, 3, 7])
def test_engines_agree_on_state_reachability(seed, target):
    prop = Assertion("never_%d" % target, Signal("state") != target)

    word = AssertionChecker(
        build_random_circuit(seed), options=CheckerOptions(max_frames=BOUND)
    ).check(prop)
    bdd = BddSymbolicChecker(build_random_circuit(seed)).check(prop)

    verdicts = {
        "word": _normalise(word.status),
        "bdd": _normalise(bdd.status),
    }
    assert "aborted" not in verdicts.values(), verdicts
    assert len(set(verdicts.values())) == 1, "engines disagree: %s (seed %d, target %d)" % (
        verdicts,
        seed,
        target,
    )

    if verdicts["word"] == "reachable":
        # The word-level engine's trace must really reach the value
        # (independent replay through the simulator).
        trace = word.counterexample
        assert trace is not None and trace.validated
        simulator = Simulator(build_random_circuit(seed), initial_state=trace.initial_state)
        values = [simulator.step(vector) for vector in trace.inputs]
        assert values[trace.target_frame]["state"] == target
        # The SAT bounded checker must also find the violation (SAT answers
        # on satisfiable instances are cheap even for the naive DPLL).
        sat = SATBoundedChecker(build_random_circuit(seed), max_frames=BOUND).check(prop)
        assert _normalise(sat.status) == "reachable"
        assert sat.trace_inputs is not None


@pytest.mark.parametrize("seed", range(6))
def test_witness_searches_agree(seed):
    prop = Witness("reach_five", Signal("state") == 5)
    word = AssertionChecker(
        build_random_circuit(seed), options=CheckerOptions(max_frames=BOUND)
    ).check(prop)
    bdd = BddSymbolicChecker(build_random_circuit(seed)).check(prop)
    assert _normalise(word.status) == _normalise(bdd.status)


# ----------------------------------------------------------------------
# Environmental setups: every engine honours pins, one-hot groups,
# assumptions and initialization sequences
# ----------------------------------------------------------------------
#: The README's decade counter (the design the docs-checked commands use).
COUNTER_VERILOG = """\
module counter(clk, rst, en, count);
  input clk, rst, en;
  output [3:0] count;
  reg [3:0] count;
  always @(posedge clk) begin
    if (rst) count <= 4'd0;
    else if (en) begin
      if (count == 4'd9) count <= 4'd0;
      else count <= count + 4'd1;
    end
  end
endmodule
"""

#: Assumptions over the inputs the seeded environments draw from.
ASSUMPTIONS = (
    Signal("a") != Signal("b"),
    Signal("a") < 2,
    (Signal("a") + Signal("b")) != 1,
    Signal("b") == 3,
    OneHot(Signal("r0"), Signal("r1")),
    OneHot(Signal("r0"), Signal("r2")),
)
#: Covers the diameter of the 2-bit environment designs (4 states), and
#: keeps the SAT baseline's exhaustive UNSAT proofs cheap.
ENV_BOUND = 4


def build_load_register():
    """A register loaded from ``a`` while ``ld`` is high, else held."""
    circuit = Circuit("load")
    a = circuit.input("a", 3)
    ld = circuit.input("ld", 1)
    r = circuit.state("r", 3)
    circuit.dff_into(r, a, enable=ld, init_value=0)
    circuit.output(r)
    return circuit


def build_env_circuit(seed: int) -> Circuit:
    """A 2-bit state machine steered by a select group, with a load port.

    ``r0``/``r1``/``r2`` pick the next-state function; with none of them
    high the state jumps to a constant, a move a one-hot environment rules
    out.  ``ld`` loads ``a``, so an init vector can set any start state.
    """
    rng = random.Random(seed)
    circuit = Circuit("env_%d" % seed)
    a = circuit.input("a", 2)
    b = circuit.input("b", 2)
    ld = circuit.input("ld", 1)
    r0, r1, r2 = (circuit.input(name, 1) for name in ("r0", "r1", "r2"))
    state = circuit.state("state", 2)
    ops = [
        lambda: circuit.add(state, 1),
        lambda: circuit.xor(state, b),
        lambda: circuit.sub(state, b),
        lambda: circuit.or_(state, b),
        lambda: circuit.and_(state, b),
        lambda: circuit.and_(a, b),
        lambda: state,
    ]
    t0, t1, t2 = (rng.choice(ops)() for _ in range(3))
    forbidden = circuit.const(rng.randint(0, 3), 2)
    step = circuit.mux(r0, circuit.mux(r1, circuit.mux(r2, forbidden, t2), t1), t0)
    circuit.dff_into(state, circuit.mux(ld, step, a), init_value=rng.randint(0, 3))
    circuit.output(state)
    return circuit


def build_environment(seed: int):
    """A seeded environment: assumption, one-hot group, pins, init vector."""
    rng = random.Random(1000 + seed)
    environment = Environment()
    environment.assume(rng.choice(ASSUMPTIONS))
    if rng.random() < 0.6:
        environment.one_hot(["r0", "r1", "r2"])
    if rng.random() < 0.7:
        environment.pin("ld", 0)
    if rng.random() < 0.3:
        environment.pin("b", rng.randint(0, 3))
    if rng.random() < 0.5:
        environment.initialize_with([{"a": rng.randint(0, 3), "ld": 1}])
    return environment


def run_every_engine(circuit, prop, environment, bound=BOUND):
    """Verdicts of all four engines, plus ATPG under FSM guidance, and the
    traces they report."""
    word = AssertionChecker(
        circuit, environment=environment, options=CheckerOptions(max_frames=bound)
    ).check(prop)
    guided = AssertionChecker(
        circuit, environment=environment,
        options=CheckerOptions(max_frames=bound, use_local_fsm_guidance=True),
    ).check(prop)
    bdd = BddSymbolicChecker(circuit, environment=environment).check(prop)
    sat = SATBoundedChecker(circuit, environment=environment, max_frames=bound).check(prop)
    rand = RandomSimulationChecker(
        circuit, environment=environment,
        options=RandomSimulationOptions(num_runs=64, cycles_per_run=bound, seed=3),
    ).check(prop)
    verdicts = {
        "atpg": _normalise(word.status),
        "atpg_fsm": _normalise(guided.status),
        "bdd": _normalise(bdd.status),
        "sat": _normalise(sat.status),
        "random": _normalise(rand.status),
    }
    traces = {
        "atpg": word.counterexample,
        "atpg_fsm": guided.counterexample,
        "sat": sat.counterexample,
        "random": rand.counterexample,
    }
    return verdicts, traces


def assert_engines_agree(circuit, prop, environment, bound=BOUND):
    verdicts, traces = run_every_engine(circuit, prop, environment, bound)
    exact = verdicts["bdd"]
    assert exact != "aborted", verdicts
    for engine in ("atpg", "atpg_fsm", "sat"):
        assert verdicts[engine] == exact, verdicts
    # Random simulation proves nothing: on unreachable goals it may only
    # report "not found"; on reachable ones it may find the goal or miss.
    if exact == "unreachable":
        assert verdicts["random"] == "unreachable", verdicts
    compiled = PropertyCompiler(circuit).compile(prop)
    lowered = PropertyCompiler(circuit).compile_environment(environment)
    for engine, trace in traces.items():
        if trace is None:
            continue
        assert verdicts[engine] == "reachable", (engine, verdicts)
        replayed = replay_trace(
            circuit, trace.initial_state, trace.inputs, trace.target_frame,
            compiled.monitor.name, compiled.goal_value, lowered,
        )
        assert replayed.validated, engine
        for name, value in (lowered.initial_state or {}).items():
            assert trace.initial_state[name] == value, (engine, name)
    return verdicts


@pytest.mark.parametrize("seed", range(8))
def test_engines_agree_under_seeded_environments(seed):
    circuit = build_env_circuit(seed)
    environment = build_environment(seed)
    for target in range(4):
        prop = Assertion("never_%d" % target, Signal("state") != target)
        assert_engines_agree(circuit, prop, environment, ENV_BOUND)


def test_every_engine_honours_assumptions_on_the_readme_counter():
    circuit = compile_verilog(COUNTER_VERILOG)
    environment = Environment().assume(parse_expression("en == 0"))
    prop = Assertion("never_five", parse_expression("count != 5"))
    verdicts = assert_engines_agree(circuit, prop, environment)
    assert set(verdicts.values()) == {"unreachable"}


def test_every_engine_starts_from_the_init_vector_state():
    circuit = build_load_register()
    environment = Environment().pin("ld", 0).initialize_with([{"a": 7, "ld": 1}])
    verdicts = assert_engines_agree(
        circuit, Assertion("loaded", Signal("r") != 0), environment
    )
    assert set(verdicts.values()) == {"unreachable"}
    verdicts = assert_engines_agree(
        circuit, Witness("holds_seven", Signal("r") == 7), environment
    )
    assert verdicts["bdd"] == verdicts["random"] == "reachable"


@pytest.mark.parametrize("case_id", ["p7", "p13"])
def test_warm_requests_do_not_grow_the_circuit(case_id):
    request = api.CheckRequest(circuit=api.CircuitRef.case(case_id))
    counts = []
    for _ in range(3):
        api.check(request)
        counts.append(len(api.resolve_design(request.circuit).circuit.nets))
    assert len(set(counts)) == 1, counts


def test_warm_replay_of_seeded_environments_matches_cold():
    """Re-check every seeded environment in sequence on one shared circuit:
    each warm ATPG verdict and trace must equal the cold one.  The one-hot
    assumptions alias under ``repr``, which must not make their checks
    share a cached model."""
    def request(circuit, seed, target):
        return api.build_request(
            circuit, Assertion("never_%d" % target, Signal("state") != target),
            environment=build_environment(seed), max_frames=ENV_BOUND,
        )

    plan = [(seed, target) for seed in range(8) for target in range(4)]
    # Every cold run gets a circuit of its own, so it shares no model.
    cold = [api.check(request(build_env_circuit(0), *job)).results[0] for job in plan]
    shared = build_env_circuit(0)
    warm = [api.check(request(shared, *job)).results[0] for job in plan]
    def trace(verdict):
        # Monitor names are generated per circuit, the rest must match.
        return None if verdict.trace is None else dict(verdict.trace, monitor=None)

    for job, cold_verdict, warm_verdict in zip(plan, cold, warm):
        assert warm_verdict.status == cold_verdict.status, job
        assert trace(warm_verdict) == trace(cold_verdict), job
