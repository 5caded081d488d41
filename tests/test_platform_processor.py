"""Tests for ProcessorSpec."""

from __future__ import annotations

import pytest

from repro.platform_.processor import COMPUTE, ProcessorSpec


class TestProcessorSpec:
    def test_defaults(self):
        spec = ProcessorSpec("p0")
        assert spec.speed == 1.0
        assert spec.kind == COMPUTE
        assert spec.total_power == 1

    def test_total_power(self):
        spec = ProcessorSpec("p0", p_idle=40, p_work=10)
        assert spec.total_power == 50

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            ProcessorSpec("p0", speed=0)
        with pytest.raises(ValueError):
            ProcessorSpec("p0", speed=-1)

    def test_invalid_powers(self):
        with pytest.raises(ValueError):
            ProcessorSpec("p0", p_idle=-1)
        with pytest.raises(TypeError):
            ProcessorSpec("p0", p_work=1.5)

    def test_nan_speed_rejected(self):
        with pytest.raises(ValueError, match="speed must be a number"):
            ProcessorSpec("p0", speed=float("nan"))

    @pytest.mark.parametrize("field", ["p_idle", "p_work"])
    def test_powers_must_fit_int64(self, field):
        assert getattr(ProcessorSpec("p0", **{field: 2**63 - 1}), field) == 2**63 - 1
        with pytest.raises(ValueError, match=f"{field} must be at most"):
            ProcessorSpec("p0", **{field: 2**63})

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ProcessorSpec("p0", kind="gpu")


class TestExecutionTime:
    def test_unit_speed(self):
        spec = ProcessorSpec("p0", speed=1)
        assert spec.execution_time(7) == 7

    def test_ceiling_division(self):
        spec = ProcessorSpec("p0", speed=4)
        assert spec.execution_time(10) == 3
        assert spec.execution_time(8) == 2
        assert spec.execution_time(1) == 1

    def test_minimum_one_time_unit(self):
        spec = ProcessorSpec("p0", speed=32)
        assert spec.execution_time(1) == 1
        assert spec.execution_time(0) == 1

    def test_faster_processor_never_slower(self):
        slow = ProcessorSpec("s", speed=2)
        fast = ProcessorSpec("f", speed=8)
        for work in range(1, 50):
            assert fast.execution_time(work) <= slow.execution_time(work)

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            ProcessorSpec("p0").execution_time(-1)
