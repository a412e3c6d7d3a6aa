"""Summary statistics, time buckets and plain-text tables.

Pure functions over numbers: nothing here reads a trace or a sink
(that is :mod:`repro.obs.collectors`).  Kept dependency-free so the
core library needs nothing beyond the standard library.

Two quantile algorithms coexist on purpose: :func:`percentile` is
exact over retained values, while
:meth:`~repro.obs.metrics.HistogramData.quantile` interpolates within
histogram buckets and is the only option for streaming runs.

The paper has no numbered tables or figures (position paper), so
every experiment prints its claim-derived table through
:func:`format_table`; EXPERIMENTS.md records the outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.core.errors import ConfigurationError


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ConfigurationError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    # low + (high-low)*frac keeps the result exactly within the data
    # bounds (the symmetric form can drift a ulp below the minimum).
    return ordered[low] + (ordered[high] - ordered[low]) * frac


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of one metric."""

    count: int
    mean: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, values: Iterable[float]) -> "Summary":
        data = list(values)
        if not data:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(data),
            mean=sum(data) / len(data),
            minimum=min(data),
            p50=percentile(data, 50),
            p90=percentile(data, 90),
            p99=percentile(data, 99),
            maximum=max(data),
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} min={self.minimum:.3f} "
            f"p50={self.p50:.3f} p90={self.p90:.3f} p99={self.p99:.3f} "
            f"max={self.maximum:.3f}"
        )


def ratio(part: float, whole: float) -> float:
    """Safe division: 0 when the denominator is 0."""
    return part / whole if whole else 0.0


# -- time buckets ------------------------------------------------------------


@dataclass(frozen=True)
class TimeBucket:
    """One window of a time series."""

    start: float
    end: float
    count: int


def bucketize(
    times: Iterable[float],
    window: float,
    start: float = 0.0,
    end: Optional[float] = None,
) -> list[TimeBucket]:
    """Count sample times into fixed-width windows.

    Windows cover ``[start, end)``; ``end`` defaults to the last sample.
    Empty windows are included so gaps (e.g. a dead origin) are visible.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    samples = list(times)
    if end is None:
        end = max(samples) + window if samples else start + window
    if end <= start:
        raise ConfigurationError("end must be after start")
    num_buckets = max(1, math.ceil((end - start) / window))
    counts = [0] * num_buckets
    for time in samples:
        if start <= time < end:
            counts[min(num_buckets - 1, int((time - start) / window))] += 1
    return [
        TimeBucket(
            start=start + index * window,
            end=min(end, start + (index + 1) * window),
            count=counts[index],
        )
        for index in range(num_buckets)
    ]


def sparkline(buckets: Sequence[TimeBucket], width: int = 60) -> str:
    """A terminal mini-figure of the bucket counts.

    Buckets are resampled onto ``width`` columns; block characters give
    an at-a-glance shape (the closest a text report gets to a figure).
    """
    if not buckets:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    counts = [bucket.count for bucket in buckets]
    if len(counts) > width:
        # Average adjacent buckets down to the target width.
        chunk = len(counts) / width
        counts = [
            sum(counts[int(i * chunk):max(int(i * chunk) + 1, int((i + 1) * chunk))])
            / max(1, len(counts[int(i * chunk):max(int(i * chunk) + 1, int((i + 1) * chunk))]))
            for i in range(width)
        ]
    peak = max(counts) or 1
    return "".join(
        blocks[min(len(blocks) - 1, int(count / peak * (len(blocks) - 1)))]
        for count in counts
    )


# -- tables ------------------------------------------------------------------


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    rendered = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
