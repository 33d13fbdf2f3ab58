"""Quickstart: build a small sequential design and check properties on it.

The example constructs a bounded up-counter with the netlist builder API,
then uses the combined word-level ATPG + modular arithmetic checker to

1. prove a safety assertion (the counter never exceeds its limit),
2. find a counterexample for a false assertion (the counter *does* reach 5),
3. generate a witness input sequence that drives the counter to a target.

Run:  python examples/quickstart.py
"""

from repro import (
    Assertion,
    AssertionChecker,
    CheckerOptions,
    Circuit,
    Signal,
    Witness,
)


def build_counter(limit: int = 9) -> Circuit:
    """A 4-bit counter that increments while ``en`` is high and wraps at ``limit``."""
    circuit = Circuit("counter")
    enable = circuit.input("en", 1)
    count = circuit.state("cnt", 4)

    at_limit = circuit.eq(count, limit, name="at_limit")
    incremented = circuit.add(count, 1, name="incremented")
    next_when_counting = circuit.mux(at_limit, incremented, circuit.const(0, 4))
    next_count = circuit.mux(enable, count, next_when_counting, name="next_count")

    circuit.dff_into(count, next_count, init_value=0)
    circuit.output(count)
    return circuit


def main() -> None:
    circuit = build_counter()
    checker = AssertionChecker(circuit, options=CheckerOptions(max_frames=8))

    # 1. A true safety assertion: the counter never exceeds 9.
    bounded = checker.check(Assertion("bounded", Signal("cnt") <= 9))
    print("assertion 'cnt <= 9':", bounded.status.value,
          "(explored %d frames, %.3fs)" % (bounded.frames_explored,
                                           bounded.statistics.wall_seconds))

    # 2. A false assertion: the checker produces a validated counterexample.
    never_five = checker.check(Assertion("never_five", Signal("cnt") != 5))
    print("assertion 'cnt != 5':", never_five.status.value)
    if never_five.counterexample:
        print(never_five.counterexample.summary())

    # 3. A witness: an input sequence reaching cnt == 7.
    reach_seven = checker.check(Witness("reach_seven", Signal("cnt") == 7))
    print("witness 'cnt == 7':", reach_seven.status.value,
          "in %d cycles" % reach_seven.counterexample.length)


if __name__ == "__main__":
    main()
