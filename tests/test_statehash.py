"""Tests for the process-stable cube fingerprints."""


from repro.atpg.statehash import hash_cube_literals
from repro.bitvector.bv3 import bv


def test_hash_values_are_stable_across_processes():
    """Pinned constant: FNV-1a output must not drift between runs or
    machines (the learned-cube stores rely on it for deduplication)."""
    assert hash_cube_literals(
        [("a", 0, bv("1x")), ("b", -1, bv("01"))]
    ) == 9838414925954797333


def test_cube_literal_fingerprint_is_order_independent():
    forward = [("a", 0, bv("1x")), ("b", -1, bv("01"))]
    backward = list(reversed(forward))
    assert hash_cube_literals(forward) == hash_cube_literals(backward)
    # Frame positions and unknown bits are part of the identity.
    assert hash_cube_literals(forward) != hash_cube_literals(
        [("a", 1, bv("1x")), ("b", -1, bv("01"))]
    )
    assert hash_cube_literals(forward) != hash_cube_literals(
        [("a", 0, bv("11")), ("b", -1, bv("01"))]
    )
