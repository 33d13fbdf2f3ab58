"""Corner-case hunting with the engine portfolio through the public facade.

The paper's introduction motivates deterministic constraint solving by the
weakness of random simulation on corner-case bugs.  This example builds a
packet-filter datapath whose bug only fires for one specific 16-bit header
value, then:

1. races the random-simulation baseline against the word-level ATPG engine
   on the bug via one :class:`repro.CheckRequest` (every engine runs to
   completion so their answers can be compared),
2. fans the whole property list across a multiprocessing batch with
   deterministic per-job seeds and prints the unified JSON report, and
3. dumps the final counterexample as a VCD waveform for inspection.

Everything checker-related goes through ``repro.api`` -- the supported
import path -- rather than internal modules; the request built here is the
same serialisable object ``repro submit`` ships to the verification daemon.

Run:  python examples/corner_case_hunting.py
"""

from repro import Assertion, Circuit, PropertySpec, Signal, Witness, api, build_request
from repro.simulation import trace_to_vcd

#: The corner-case header value.  Its byte checksum (0xFF + 0xD0 = 207) is
#: above the accept threshold, so the packet is dropped -- which is what
#: makes the buggy drop-counter step reachable.
MAGIC_HEADER = 0xFFD0


def build_packet_filter() -> Circuit:
    """A toy packet filter with a deliberately planted corner-case bug.

    Packets are accepted when their header checksum matches; a bug makes the
    ``drop_count`` saturate register overflow exactly when the header equals
    ``MAGIC_HEADER`` while the filter is in strict mode.
    """
    circuit = Circuit("packet_filter")
    header = circuit.input("header", 16)
    strict = circuit.input("strict", 1)

    checksum = circuit.add(
        circuit.slice(header, 15, 8), circuit.slice(header, 7, 0), name="checksum"
    )
    accepted = circuit.le(checksum, 200, name="accepted")

    drop_count = circuit.state("drop_count", 4)
    is_magic = circuit.eq(header, MAGIC_HEADER, name="is_magic")
    buggy_step = circuit.mux(
        circuit.and_(is_magic, strict), circuit.const(1, 4), circuit.const(15, 4)
    )
    incremented = circuit.add(drop_count, buggy_step, name="incremented")
    next_count = circuit.mux(accepted, incremented, circuit.const(0, 4))
    circuit.dff_into(drop_count, next_count, init_value=0)

    circuit.output(accepted)
    circuit.output(drop_count, name="drops")
    return circuit


def main() -> None:
    # The bug: drops jumps by 15 (wrapping the 4-bit register) only when the
    # magic header arrives in strict mode.
    bug_property = Assertion("drops_increase_by_one", Signal("drops") != 15)

    print("=== 1. random simulation vs. the word-level engine (portfolio) ===")
    race_request = build_request(
        build_packet_filter(),
        bug_property,
        engines=("random", "atpg"),
        compare=True,  # let the loser finish so the verdicts can be compared
        max_frames=3,
        random_runs=64,
        random_cycles=32,
        seed=1,
    )
    race = api.run_request(race_request).batch.items[0].result
    for engine_result in race.engine_results:
        print(
            "  %-8s %-12s conclusive=%-5s %.3fs  %s"
            % (
                engine_result.engine,
                engine_result.status.value,
                engine_result.verdict is not None,
                engine_result.wall_seconds,
                engine_result.stats.get("vectors_simulated", ""),
            )
        )
    print("  winner: %s" % race.winner)
    trigger = race.counterexample.inputs[0] if race.counterexample else None
    if trigger is not None:
        print(
            "  triggering input: header=0x%04X strict=%d (magic header is 0x%04X)"
            % (trigger["header"], trigger["strict"], MAGIC_HEADER)
        )

    print()
    print("=== 2. batch run across a worker pool ===")
    # Job seeds are derived from the request seed, so this report is
    # reproducible.  Both properties travel in one request, each with its
    # own bound.
    witness_property = Witness("two_drops", Signal("drops") == 2)
    batch_request = build_request(
        build_packet_filter(),
        [
            PropertySpec.from_property(bug_property, max_frames=3),
            PropertySpec.from_property(witness_property, max_frames=8),
        ],
        engines=("random", "atpg"),
        compare=True,
        jobs=2,
        seed=5,
        random_runs=256,
        random_cycles=48,
    )
    outcome = api.run_request(batch_request)
    for item in outcome.batch.items:
        print(
            "  %-10s %-15s winner=%-7s seed=%d  %.3fs"
            % (
                item.job_id,
                item.result.status.value,
                item.result.winner,
                item.seed,
                item.result.wall_seconds,
            )
        )
    print("  disagreements: %s" % (outcome.batch.disagreements or "none"))

    print()
    print("=== 3. VCD dump of the counterexample ===")
    bug_trace = outcome.batch.items[0].result.counterexample
    if bug_trace is not None:
        vcd_text = trace_to_vcd(build_packet_filter(), bug_trace.trace)
        path = "packet_filter_bug.vcd"
        with open(path, "w") as stream:
            stream.write(vcd_text)
        print("  wrote %s (%d lines)" % (path, len(vcd_text.splitlines())))


if __name__ == "__main__":
    main()
