"""Cross-checks of the bit-parallel compiled kernel against the oracle.

The contract of :mod:`repro.sim` is *exact* lane-for-lane agreement with the
interpreted :class:`~repro.simulation.simulator.Simulator` on every net, for
every circuit the netlist layer can express -- including tri-state buses
(with contention and no-driver cycles), word-level arithmetic (multipliers,
variable shifts, carry chains) and registers with unknown power-on values.
The tests drive both simulators with identical random stimulus and compare
every computed net every cycle.
"""

import random

import pytest
from interpreted_random import interpreted_check

from repro.baselines import RandomSimulationChecker, RandomSimulationOptions
from repro.checker import CheckStatus
from repro.circuits import all_case_ids, build_case
from repro.netlist import Circuit
from repro.properties import Assertion, Environment, Signal
from repro.sim import (
    BitParallelSim,
    RandomLaneSampler,
    compile_circuit,
    pack_words,
    unpack_words,
)
from repro.simulation.simulator import Simulator


# ----------------------------------------------------------------------
# Shared cross-check driver
# ----------------------------------------------------------------------
def assert_lane_exact(circuit, environment=None, initial_state=None,
                      lanes=16, cycles=4, seed=0):
    """Simulate both backends with identical stimulus; compare every net."""
    plan = compile_circuit(circuit)
    sampler = RandomLaneSampler(circuit, environment)
    rng = random.Random(seed)
    parallel = BitParallelSim(plan, lanes=lanes, initial_state=initial_state)
    scalars = [
        Simulator(circuit, initial_state=initial_state) for _ in range(lanes)
    ]
    for cycle in range(cycles):
        stimulus = sampler.sample(rng, lanes)
        parallel.step(stimulus)
        for lane in range(lanes):
            values = scalars[lane].step(sampler.scalar_vector(stimulus, lane))
            for name, expected in values.items():
                got = parallel.sample(name, lane)
                assert got == expected, (
                    "lane mismatch: %s cycle=%d lane=%d net=%s kernel=%d oracle=%d"
                    % (circuit.name, cycle, lane, name, got, expected)
                )


# ----------------------------------------------------------------------
# Lane packing
# ----------------------------------------------------------------------
def test_pack_unpack_roundtrip():
    rng = random.Random(3)
    for width in (1, 3, 8, 17):
        words = [rng.getrandbits(width) for _ in range(29)]
        lanes = pack_words(words, width)
        assert len(lanes) == width
        assert unpack_words(lanes, len(words)) == words


def test_sample_matches_unpack():
    circuit = Circuit("tiny")
    a = circuit.input("a", 4)
    circuit.output(circuit.not_(a), name="na")
    sim = BitParallelSim(circuit, lanes=8)
    words = [1, 2, 3, 4, 5, 6, 7, 8]
    sim.step({"a": pack_words(words, 4)})
    assert unpack_words(sim.peek("na"), 8) == [(~w) & 0xF for w in words]
    assert sim.sample("na", 3) == (~4) & 0xF


# ----------------------------------------------------------------------
# The whole benchmark zoo, lane-exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", all_case_ids())
def test_zoo_lane_exactness(case_id):
    case = build_case(case_id)
    assert_lane_exact(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        lanes=8,
        cycles=4,
        seed=17,
    )


# ----------------------------------------------------------------------
# Every primitive in one circuit (arith, tristate, X power-on, wide mux)
# ----------------------------------------------------------------------
def build_gate_soup():
    circuit = Circuit("gate_soup")
    a = circuit.input("a", 8)
    b = circuit.input("b", 8)
    sel = circuit.input("sel", 2)
    en0 = circuit.input("en0", 1)
    en1 = circuit.input("en1", 1)
    cin = circuit.input("cin", 1)
    amt = circuit.input("amt", 4)

    circuit.output(circuit.and_(a, b), name="o_and")
    circuit.output(circuit.nand(a, b, circuit.xor(a, b)), name="o_nand3")
    circuit.output(circuit.xnor(a, b), name="o_xnor")
    circuit.output(circuit.nor(a, b), name="o_nor")
    total, carry = circuit.add(a, b, carry_in=cin, with_carry_out=True)
    circuit.output(total, name="o_sum")
    circuit.output(carry, name="o_carry")
    circuit.output(circuit.sub(a, b), name="o_sub")
    circuit.output(circuit.mul(a, b), name="o_mul")
    circuit.output(circuit.mul(a, b, out_width=4), name="o_mul_narrow")
    circuit.output(circuit.shl(a, 3), name="o_shl_const")
    circuit.output(circuit.shr(a, 11), name="o_shr_big")
    circuit.output(circuit.shl(a, amt), name="o_shl_var")
    circuit.output(circuit.shr(a, amt), name="o_shr_var")
    for op_name, build in (("eq", circuit.eq), ("ne", circuit.ne),
                           ("lt", circuit.lt), ("le", circuit.le),
                           ("gt", circuit.gt), ("ge", circuit.ge)):
        circuit.output(build(a, b), name="o_%s" % op_name)
    circuit.output(circuit.mux(sel, a, b, circuit.not_(a)), name="o_mux3")
    circuit.output(circuit.reduce_and(a), name="o_redand")
    circuit.output(circuit.reduce_or(a), name="o_redor")
    circuit.output(circuit.reduce_xor(a), name="o_redxor")
    circuit.output(circuit.concat(circuit.slice(a, 5, 2), circuit.bit(b, 7)),
                   name="o_concat")
    circuit.output(circuit.zext(circuit.slice(a, 3, 0), 8), name="o_zext")

    # Tri-state bus with potential contention and no-driver cycles.
    t0 = circuit.tribuf(a, en0)
    t1 = circuit.tribuf(b, en1)
    circuit.output(circuit.bus([(t0, en0), (t1, en1)]), name="o_bus")

    # Registers: plain, enabled, reset, set, and unknown power-on.
    circuit.output(circuit.dff(a, name="q_plain"))
    circuit.output(circuit.dff(a, enable=en0, name="q_enable"))
    circuit.output(circuit.dff(a, reset=en1, reset_value=0xA5, name="q_reset"))
    circuit.output(circuit.dff(a, set_=en0, name="q_set"))
    circuit.output(circuit.dff(a, init_value=None, name="q_unknown"))
    return circuit


def test_gate_soup_lane_exactness():
    assert_lane_exact(build_gate_soup(), lanes=32, cycles=5, seed=5)


def test_gate_soup_with_initial_state():
    circuit = build_gate_soup()
    assert_lane_exact(
        circuit, initial_state={"q_plain": 0x3C, "q_unknown": 0x81},
        lanes=8, cycles=3, seed=9,
    )


# ----------------------------------------------------------------------
# Randomized netlist fuzzing
# ----------------------------------------------------------------------
def build_random_circuit(seed, num_gates=40):
    """A random DAG over the full primitive set (seeded, reproducible)."""
    rng = random.Random(seed)
    circuit = Circuit("fuzz_%d" % seed)
    nets = []
    for index in range(rng.randint(2, 4)):
        nets.append(circuit.input("in%d" % index, rng.choice([1, 1, 2, 4, 8, 12])))
    states = []
    for index in range(rng.randint(1, 3)):
        q = circuit.state("st%d" % index, rng.choice([1, 2, 4, 8]))
        states.append(q)
        nets.append(q)

    def pick(width=None):
        net = rng.choice(nets)
        if width is None or net.width == width:
            return net
        if net.width > width:
            lsb = rng.randrange(net.width - width + 1)
            return circuit.slice(net, lsb + width - 1, lsb)
        return circuit.zext(net, width)

    def pick_bit():
        return pick(1)

    for _ in range(num_gates):
        kind = rng.randrange(12)
        if kind == 0:
            width = rng.choice([1, 2, 4, 8])
            build = rng.choice([circuit.and_, circuit.or_, circuit.xor,
                                circuit.nand, circuit.nor, circuit.xnor])
            operands = [pick(width) for _ in range(rng.randint(2, 3))]
            nets.append(build(*operands))
        elif kind == 1:
            nets.append(circuit.not_(pick()))
        elif kind == 2:
            width = rng.choice([2, 4, 8])
            if rng.random() < 0.5:
                total, carry = circuit.add(
                    pick(width), pick(width),
                    carry_in=pick_bit() if rng.random() < 0.5 else None,
                    with_carry_out=True,
                )
                nets.extend([total, carry])
            else:
                nets.append(circuit.sub(pick(width), pick(width)))
        elif kind == 3:
            width = rng.choice([2, 4])
            out_width = rng.choice([width, 2 * width])
            nets.append(circuit.mul(pick(width), pick(width), out_width=out_width))
        elif kind == 4:
            build = rng.choice([circuit.shl, circuit.shr])
            source = pick(rng.choice([4, 8]))
            if rng.random() < 0.5:
                nets.append(build(source, rng.randrange(10)))
            else:
                nets.append(build(source, pick(rng.choice([2, 4]))))
        elif kind == 5:
            width = rng.choice([1, 4, 8])
            build = rng.choice([circuit.eq, circuit.ne, circuit.lt,
                                circuit.le, circuit.gt, circuit.ge])
            nets.append(build(pick(width), pick(width)))
        elif kind == 6:
            width = rng.choice([1, 4])
            count = rng.randint(2, 4)
            select = pick(max(1, (count - 1).bit_length()))
            nets.append(circuit.mux(select, *[pick(width) for _ in range(count)]))
        elif kind == 7:
            nets.append(circuit.concat(pick(), pick()))
        elif kind == 8:
            build = rng.choice([circuit.reduce_and, circuit.reduce_or,
                                circuit.reduce_xor])
            nets.append(build(pick()))
        elif kind == 9:
            width = rng.choice([1, 4])
            drivers = []
            for _ in range(rng.randint(1, 3)):
                enable = pick_bit()
                drivers.append((circuit.tribuf(pick(width), enable), enable))
            nets.append(circuit.bus(drivers))
        elif kind == 10:
            nets.append(circuit.const(rng.getrandbits(4), rng.choice([2, 4, 8])))
        else:
            nets.append(circuit.dff(
                pick(rng.choice([1, 4])),
                enable=pick_bit() if rng.random() < 0.3 else None,
                reset=pick_bit() if rng.random() < 0.3 else None,
                init_value=None if rng.random() < 0.3 else rng.getrandbits(3),
            ))

    for q in states:
        circuit.dff_into(
            q, pick(q.width),
            enable=pick_bit() if rng.random() < 0.5 else None,
            reset=pick_bit() if rng.random() < 0.5 else None,
            reset_value=rng.getrandbits(q.width),
            init_value=None if rng.random() < 0.3 else rng.getrandbits(q.width),
        )
    for _ in range(3):
        circuit.output(rng.choice(nets))
    circuit.validate()
    return circuit


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_circuits_lane_exactness(seed):
    circuit = build_random_circuit(seed)
    assert_lane_exact(circuit, lanes=16, cycles=4, seed=100 + seed)


# ----------------------------------------------------------------------
# The rewired random-simulation checker
# ----------------------------------------------------------------------
def build_counter(limit=5, width=3):
    circuit = Circuit("counter")
    en = circuit.input("en", 1)
    cnt = circuit.state("cnt", width)
    at_max = circuit.eq(cnt, limit)
    nxt = circuit.mux(at_max, circuit.add(cnt, 1), circuit.const(0, width))
    circuit.dff_into(cnt, circuit.mux(en, cnt, nxt), init_value=0)
    circuit.output(cnt)
    return circuit


def test_backends_find_the_same_easy_bug():
    prop = Assertion("never_two", Signal("cnt") != 2)
    options = RandomSimulationOptions(num_runs=16, cycles_per_run=16, seed=7)
    kernel = RandomSimulationChecker(build_counter(), options=options).check(prop)
    oracle = interpreted_check(build_counter(), prop, options=options)
    for result in (kernel, oracle):
        assert result.status is CheckStatus.FAILS
        assert result.counterexample is not None
        assert result.counterexample.validated
        frame = result.counterexample.target_frame
        assert result.counterexample.trace[frame]["cnt"] == 2


def test_bitparallel_checker_counts_vectors_and_is_deterministic():
    options = RandomSimulationOptions(
        num_runs=10, cycles_per_run=8, seed=42, sim_width=4
    )
    prop = Assertion("never_seven", Signal("cnt") != 7)
    first = RandomSimulationChecker(build_counter(), options=options)
    result_a = first.check(prop)
    # 10 runs in lane batches of 4+4+2, 8 cycles each.
    assert first.vectors_simulated == 10 * 8
    assert result_a.status is CheckStatus.HOLDS
    second = RandomSimulationChecker(build_counter(), options=options)
    result_b = second.check(prop)
    assert result_b.status == result_a.status
    assert second.vectors_simulated == first.vectors_simulated


def test_bitparallel_checker_respects_environment():
    circuit = Circuit("pair")
    r0 = circuit.input("r0", 1)
    r1 = circuit.input("r1", 1)
    circuit.output(circuit.and_(r0, r1), name="both")
    environment = Environment().one_hot(["r0", "r1"])
    checker = RandomSimulationChecker(
        circuit,
        environment=environment,
        options=RandomSimulationOptions(num_runs=64, cycles_per_run=4, seed=5),
    )
    result = checker.check(Assertion("never_both", Signal("both") == 0))
    assert result.status is CheckStatus.HOLDS  # one-hot forbids r0 & r1


def test_oracle_refuted_hit_is_demoted_to_aborted(monkeypatch):
    """A kernel hit the interpreted replay cannot reproduce must never be
    reported as a conclusive verdict (mirrors the ATPG/SAT demotion)."""
    from repro.checker.result import Counterexample

    def fake_replay(self, sampler, inputs_per_cycle, lane, target_frame,
                    monitor_name, goal_value):
        return Counterexample(
            initial_state={}, inputs=[{}], trace=[{monitor_name: 1 - goal_value}],
            target_frame=0, monitor_name=monitor_name, validated=False,
        )

    monkeypatch.setattr(RandomSimulationChecker, "_replay_lane", fake_replay)
    checker = RandomSimulationChecker(
        build_counter(),
        options=RandomSimulationOptions(num_runs=16, cycles_per_run=16, seed=7),
    )
    result = checker.check(Assertion("never_two", Signal("cnt") != 2))
    assert result.status is CheckStatus.ABORTED
    assert result.counterexample is None

