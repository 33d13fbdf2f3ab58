"""Verifying the alarm-clock design (paper properties p7, p8, p9).

This example mirrors Section 5 of the paper on the alarm_clock benchmark:

* p7 -- a transition property checked from *any valid* display state: once
  the clock passes 11:59 it must show 12:00 (uses Delayed() and environment
  assumptions to constrain the arbitrary initial state to valid displays);
* p8 -- a generated witness sequence that brings the hour display to 2 after
  power-on (the checker returns the button presses);
* p9 -- the hour display can never show an invalid value such as 13 (the
  hardest proof of the paper's Table 2).

Run:  python examples/alarm_clock_verification.py
"""

from repro import (
    And,
    Assertion,
    AssertionChecker,
    CheckerOptions,
    Delayed,
    Environment,
    Implies,
    Signal,
    Witness,
)
from repro.circuits import build_alarm_clock


def check_rollover_property() -> None:
    """p7: after 11:59 the clock resets to 12:00 (inductive, any valid state)."""
    ports = build_alarm_clock(free_initial_state=True)
    environment = Environment()
    environment.assume(And(Signal("hour") >= 1, Signal("hour") <= 12))
    environment.assume(Signal("minute") <= 59)

    passed_1159 = And(
        Signal("hour") == 11,
        Signal("minute") == 59,
        Signal("tick") == 1,
        Signal("set_time") == 0,
    )
    prop = Assertion(
        "p7_rollover",
        Implies(Delayed(passed_1159), And(Signal("hour") == 12, Signal("minute") == 0)),
    )
    checker = AssertionChecker(
        ports.circuit, environment=environment, options=CheckerOptions(max_frames=3)
    )
    result = checker.check(prop)
    print("p7  11:59 -> 12:00 rollover:", result.status.value)


def generate_witness_for_hour_two() -> None:
    """p8: find button presses that bring the hour display to 2."""
    ports = build_alarm_clock()
    checker = AssertionChecker(ports.circuit, options=CheckerOptions(max_frames=5))
    result = checker.check(Witness("p8_reach_two", Signal("hour") == 2))
    print("p8  witness for hour == 2:  ", result.status.value)
    if result.counterexample:
        for frame, vector in enumerate(result.counterexample.inputs):
            pressed = [name for name, value in sorted(vector.items()) if value]
            print("      cycle %d: press %s" % (frame, pressed or ["nothing"]))


def prove_hour_never_thirteen() -> None:
    """p9: the hour display never leaves the valid 1..12 range."""
    ports = build_alarm_clock()
    checker = AssertionChecker(ports.circuit, options=CheckerOptions(max_frames=5))
    result = checker.check(
        Assertion("p9_valid_hour", And(Signal("hour") >= 1, Signal("hour") <= 12))
    )
    print("p9  hour never shows 13:    ", result.status.value,
          "(decisions %d, backtracks %d, %.2fs)"
          % (result.statistics.decisions, result.statistics.backtracks,
             result.statistics.wall_seconds))


if __name__ == "__main__":
    check_rollover_property()
    generate_witness_for_hour_two()
    prove_hour_never_thirteen()
