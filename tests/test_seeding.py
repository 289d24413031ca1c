"""Seed derivation: stability, ordering, stream independence."""

import numpy as np

from cpdemod.seeding import _MASK64, derive_rng, hash64


def test_hash64_is_pure():
    assert hash64(1, 2, 3) == hash64(1, 2, 3)


def test_hash64_respects_order_and_arity():
    assert hash64(1, 2) != hash64(2, 1)
    assert hash64(1) != hash64(1, 0)
    assert hash64() != hash64(0)


def test_hash64_output_range():
    for parts in [(), (0,), (2**64 - 1,), (-1,), (5, 7, 11)]:
        value = hash64(*parts)
        assert 0 <= value <= _MASK64


def test_hash64_folds_negatives_into_ring():
    assert hash64(-1) == hash64(2**64 - 1)


def test_hash64_spreads_nearby_inputs():
    outputs = {hash64(0, i) for i in range(1000)}
    assert len(outputs) == 1000


def test_derive_rng_reproducible_and_distinct():
    a = derive_rng(3, 1).standard_normal(4)
    b = derive_rng(3, 1).standard_normal(4)
    c = derive_rng(3, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_rng_stream_is_frozen():
    # Every stored output rests on numpy's default generator being PCG64 and
    # on hash64: a change to either shows here before it shows as byte
    # mismatches across results.csv, the golden sub-grid and the stored
    # benchmark outcomes.
    assert [v.hex() for v in derive_rng(0).standard_normal(3).tolist()] == [
        "-0x1.0980ce771d252p-2", "-0x1.1b1d2212ba99ap+0", "0x1.05661f5db036cp-1",
    ]
    assert derive_rng(3, 1).integers(0, 4, size=5).tolist() == [2, 0, 1, 0, 1]
