"""Unit tests for the double-buffered bulk pipeline scheduler."""

import pytest

from repro.cluster.pipeline import BulkTiming, PipelineScheduler
from repro.errors import ConfigError
from repro.gpu.transfer import TransferTimeline


def timing(t_in, compute, t_out):
    return BulkTiming(
        transfer_in_s=t_in, compute_s=compute, transfer_out_s=t_out
    )


class TestTransferTimeline:
    def test_queue_order_and_ready_times(self):
        dma = TransferTimeline()
        assert dma.schedule(2.0) == (0.0, 2.0)
        # Engine busy until 2; ready earlier does not matter.
        assert dma.schedule(1.0, ready_at=1.0) == (2.0, 3.0)
        # Ready later than the engine frees: starts at ready.
        assert dma.schedule(1.0, ready_at=10.0) == (10.0, 11.0)
        assert dma.busy_seconds == 4.0

    def test_zero_length_transfer_keeps_engine_free(self):
        dma = TransferTimeline()
        start, end = dma.schedule(0.0, ready_at=5.0)
        assert start == end == 5.0
        assert dma.busy_until == 0.0
        assert dma.busy_seconds == 0.0


class TestPipelineScheduler:
    def test_empty_sequence(self):
        report = PipelineScheduler().overlap([])
        assert report.serial_seconds == 0.0
        assert report.pipelined_seconds == 0.0
        assert report.speedup == 1.0

    def test_single_bulk_has_nothing_to_overlap(self):
        report = PipelineScheduler().overlap([timing(2, 10, 1)])
        assert report.pipelined_seconds == 13.0
        assert report.serial_seconds == 13.0

    def test_double_buffer_hides_transfers(self):
        # Worked example: three bulks of (in=2, compute=10, out=1).
        # in0 0-2, k0 2-12, in1 2-4, out0 12-13, in2 13-15 (slot waits
        # k0, DMA free at 13), k1 12-22, out1 22-23, k2 22-32, out2
        # 32-33.
        report = PipelineScheduler(depth=2).overlap(
            [timing(2, 10, 1)] * 3
        )
        assert report.serial_seconds == 39.0
        assert report.pipelined_seconds == 33.0
        assert report.speedup == pytest.approx(39.0 / 33.0)

    def test_lower_bounds_hold(self):
        timings = [timing(3, 5, 2), timing(1, 8, 1), timing(4, 2, 2)]
        report = PipelineScheduler(depth=2).overlap(timings)
        total_compute = sum(t.compute_s for t in timings)
        total_dma = sum(t.transfer_in_s + t.transfer_out_s for t in timings)
        assert report.pipelined_seconds >= total_compute
        assert report.pipelined_seconds >= total_dma
        assert report.pipelined_seconds <= report.serial_seconds

    def test_zero_transfers_pipeline_is_pure_compute(self):
        report = PipelineScheduler(depth=2).overlap(
            [timing(0, 4, 0)] * 5
        )
        assert report.pipelined_seconds == 20.0
        assert report.exposed_transfer_seconds == 0.0

    def test_depth_one_cannot_prefetch_inputs(self):
        timings = [timing(2, 10, 0)] * 3
        serial = PipelineScheduler(depth=1).overlap(timings)
        double = PipelineScheduler(depth=2).overlap(timings)
        # Without a second buffer every input waits for the previous
        # kernel: no overlap at all (outputs here are zero).
        assert serial.pipelined_seconds == serial.serial_seconds == 36.0
        assert double.pipelined_seconds < serial.pipelined_seconds

    def test_deeper_buffers_never_slower(self):
        timings = [timing(2, 3, 2), timing(3, 1, 1), timing(2, 4, 1),
                   timing(1, 2, 2)]
        previous = float("inf")
        for depth in (1, 2, 3, 4):
            span = PipelineScheduler(depth=depth).overlap(timings)
            assert span.pipelined_seconds <= previous + 1e-12
            previous = span.pipelined_seconds

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigError):
            PipelineScheduler(depth=0)
