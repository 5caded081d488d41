"""Tests for the seeded RNG helpers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import derive_rng, ensure_rng


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 10**9)
        b = ensure_rng(2).integers(0, 10**9)
        assert a != b

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        assert isinstance(ensure_rng(seq), np.random.Generator)


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(7, "family", 3).integers(0, 10**9, size=4)
        b = derive_rng(7, "family", 3).integers(0, 10**9, size=4)
        assert np.array_equal(a, b)

    def test_different_keys_different_stream(self):
        a = derive_rng(7, "family", 3).integers(0, 10**9)
        b = derive_rng(7, "family", 4).integers(0, 10**9)
        assert a != b

    def test_string_keys_are_stable_across_calls(self):
        a = derive_rng(0, "atacseq", "S1").integers(0, 10**9)
        b = derive_rng(0, "atacseq", "S1").integers(0, 10**9)
        assert a == b

    def test_different_master_seed_changes_stream(self):
        a = derive_rng(1, "x").integers(0, 10**9)
        b = derive_rng(2, "x").integers(0, 10**9)
        assert a != b
