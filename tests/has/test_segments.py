"""Tests for segment records and the segment log."""

import pytest

from repro.has.segments import SegmentLog, SegmentRecord


def make_record(index=0, bitrate=1e6, size=1.25e6, start=0.0, finish=10.0):
    return SegmentRecord(index=index, bitrate_bps=bitrate, size_bytes=size,
                         request_time_s=start - 0.08, start_time_s=start,
                         finish_time_s=finish)


class TestSegmentRecord:
    def test_duration_and_throughput(self):
        record = make_record(size=1.25e6, start=0.0, finish=10.0)
        assert record.download_duration_s == pytest.approx(10.0)
        assert record.throughput_bps == pytest.approx(1e6)

    def test_zero_duration_clamped(self):
        record = make_record(start=5.0, finish=5.0)
        assert record.throughput_bps == record.bitrate_bps * 100.0

    def test_negative_duration_clamped(self):
        record = make_record(start=5.0, finish=4.0)
        assert record.download_duration_s == 0.0


class TestSegmentLog:
    def test_append_and_bitrates(self):
        log = SegmentLog()
        log.append(make_record(index=0, bitrate=1e6))
        log.append(make_record(index=1, bitrate=2e6))
        assert len(log) == 2
        assert log.bitrates() == [1e6, 2e6]

    def test_throughputs_window(self):
        log = SegmentLog()
        for i in range(5):
            log.append(make_record(index=i, size=(i + 1) * 1e6,
                                   start=0.0, finish=8.0))
        assert len(log.throughputs()) == 5
        assert len(log.throughputs(last=2)) == 2
        assert log.throughputs(last=2) == log.throughputs()[-2:]

    def test_records_are_ordered(self):
        log = SegmentLog()
        for i in range(3):
            log.append(make_record(index=i))
        assert [r.index for r in log.records] == [0, 1, 2]

    def test_cached_throughputs_match_records_and_are_fresh(self):
        log = SegmentLog()
        for i in range(6):
            log.append(make_record(index=i, size=(i + 1) * 3e5,
                                   start=float(i), finish=i + 0.1 * (i % 3)))
        expected = [record.throughput_bps for record in log.records]
        assert log.throughputs() == expected
        for k in (1, 3, 6, 9):
            assert log.throughputs(last=k) == expected[-k:]
        first = log.throughputs()
        first.append(0.0)
        log.throughputs(last=2).clear()
        assert log.throughputs() == expected
        assert log.throughputs() is not log.throughputs()
        assert log.last_bitrate() == log.records[-1].bitrate_bps
