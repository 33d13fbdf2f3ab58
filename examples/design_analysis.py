"""Structural analysis guiding verification: FSMs and counters.

The paper's discussion section suggests mining high-level structure from the
RTL -- local finite state machines, counters, shift registers -- and using it
to steer the ATPG away from states the design can never occupy.  This example
runs that flow on a small serial-protocol controller:

1. report the control/datapath structure and the recognised modules,
2. extract the local FSMs and show which state encodings are unreachable,
3. check the same assertion with and without FSM guidance and compare the
   search statistics.

Run:  python examples/design_analysis.py
"""

from repro import Assertion, AssertionChecker, CheckerOptions, Circuit, Signal
from repro.analysis import analyze_structure, extract_local_fsms, recognize_modules


def build_protocol_controller() -> Circuit:
    """A transmit controller: IDLE -> START -> 8 data bits -> STOP -> IDLE.

    The phase register is one-hot-ish (values 0-3 used, 4-7 unreachable) and
    the bit counter only counts 0..7, so both registers carry unreachable
    encodings that the analysis should discover.
    """
    circuit = Circuit("tx_controller")
    start = circuit.input("start", 1)
    data_in = circuit.input("data_in", 8)

    phase = circuit.state("phase", 3)       # 0 idle, 1 start, 2 data, 3 stop
    bit_count = circuit.state("bit_count", 3)
    shifter = circuit.state("shifter", 8)

    is_idle = circuit.eq(phase, 0, name="is_idle")
    is_start = circuit.eq(phase, 1, name="is_start")
    is_data = circuit.eq(phase, 2, name="is_data")
    is_stop = circuit.eq(phase, 3, name="is_stop")
    last_bit = circuit.eq(bit_count, 7, name="last_bit")

    # Phase transitions.
    from_idle = circuit.mux(start, circuit.const(0, 3), circuit.const(1, 3))
    from_data = circuit.mux(last_bit, circuit.const(2, 3), circuit.const(3, 3))
    next_phase = circuit.mux(
        phase,
        from_idle,               # idle: wait for start
        circuit.const(2, 3),     # start: always move to data
        from_data,               # data: loop until the last bit
        circuit.const(0, 3),     # stop: back to idle
        name="next_phase",
    )
    circuit.dff_into(phase, next_phase, init_value=0)

    # Bit counter: counts only during the data phase, clears otherwise.
    counting = circuit.mux(last_bit, circuit.add(bit_count, 1), circuit.const(0, 3))
    next_count = circuit.mux(is_data, circuit.const(0, 3), counting, name="next_count")
    circuit.dff_into(bit_count, next_count, init_value=0)

    # Shift register: loaded in the start phase, shifted during data.
    shifted = circuit.concat(circuit.slice(shifter, 6, 0), circuit.const(0, 1))
    hold_or_shift = circuit.mux(is_data, shifter, shifted)
    next_shifter = circuit.mux(is_start, hold_or_shift, data_in, name="next_shifter")
    circuit.dff_into(shifter, next_shifter, init_value=0)

    circuit.output(circuit.bit(shifter, 7), name="tx")
    circuit.output(is_idle, name="ready")
    return circuit


def main() -> None:
    circuit = build_protocol_controller()

    print("=== structure report ===")
    print(analyze_structure(circuit).format())
    print()

    print("=== recognised modules ===")
    print(recognize_modules(circuit).format())
    print()

    print("=== local FSM extraction ===")
    for fsm in extract_local_fsms(circuit, max_width=3):
        print(fsm.format())
        print()

    print("=== FSM guidance ablation ===")
    target = Assertion("phase_never_5", Signal("phase") != 5)
    for label, options in (
        ("without guidance", CheckerOptions(max_frames=10)),
        ("with FSM guidance", CheckerOptions(max_frames=10, use_local_fsm_guidance=True)),
    ):
        result = AssertionChecker(circuit, options=options).check(target)
        print(
            "  %-18s verdict=%s decisions=%d backtracks=%d wall=%.3fs"
            % (
                label,
                result.status.value,
                result.statistics.decisions,
                result.statistics.backtracks,
                result.statistics.wall_seconds,
            )
        )


if __name__ == "__main__":
    main()
