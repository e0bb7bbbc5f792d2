"""Segment download records.

Every completed segment download produces a :class:`SegmentRecord`;
the per-player list of records is the raw material for all QoE metrics
(average bitrate, bitrate-change counts, throughput samples) and for
the time-series plots of Figures 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.util import bytes_to_bits


@dataclass(frozen=True)
class SegmentRecord:
    """One completed segment download.

    Attributes:
        index: segment index within the video (0-based).
        bitrate_bps: encoding bitrate of the downloaded representation.
        size_bytes: payload size.
        request_time_s: when the player issued the request.
        start_time_s: when the first byte arrived.
        finish_time_s: when the last byte arrived.
    """

    index: int
    bitrate_bps: float
    size_bytes: float
    request_time_s: float
    start_time_s: float
    finish_time_s: float

    @property
    def download_duration_s(self) -> float:
        """Wall-clock duration of the payload transfer."""
        return max(self.finish_time_s - self.start_time_s, 0.0)

    @property
    def throughput_bps(self) -> float:
        """Observed goodput of this download (the ABR input sample).

        A zero-duration transfer (possible when a whole segment fits
        into one simulation step) is reported at the encoding bitrate
        times a large factor rather than infinity, mirroring how real
        players clamp degenerate samples.
        """
        duration = self.download_duration_s
        if duration <= 0:
            return self.bitrate_bps * 100.0
        return bytes_to_bits(self.size_bytes) / duration


class SegmentLog:
    """Append-only log of a player's completed segments."""

    def __init__(self) -> None:
        self._records: list[SegmentRecord] = []
        # ``throughput_bps`` of each record, computed once on append:
        # every ABR decision reads the whole history.
        self._throughputs: list[float] = []

    def append(self, record: SegmentRecord) -> None:
        """Add a completed segment record."""
        self._records.append(record)
        self._throughputs.append(record.throughput_bps)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[SegmentRecord]:
        """All records, oldest first."""
        return tuple(self._records)

    def bitrates(self) -> list[float]:
        """Encoding bitrate of each downloaded segment, in order."""
        return [record.bitrate_bps for record in self._records]

    def last_bitrate(self) -> float | None:
        """Encoding bitrate of the most recent segment (None if empty).

        O(1) accessor for per-interval samplers; ``bitrates()[-1]``
        rebuilds the whole list on every call.
        """
        records = self._records
        return records[-1].bitrate_bps if records else None

    def throughputs(self, last: int = 0) -> list[float]:
        """Observed download throughputs, oldest first.

        Args:
            last: if positive, only the most recent ``last`` samples.
        """
        if last > 0:
            return self._throughputs[-last:]
        return list(self._throughputs)
