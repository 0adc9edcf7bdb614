"""Statistics the benchmark reports: quantiles, the tail rule, self time."""

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def quantile(values, q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median(values) -> float:
    return quantile(values, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it.

    None when even the median has fewer than ten samples beyond it.
    """
    for candidate in TAIL_CANDIDATES:
        if n * (100.0 - candidate) / 100.0 >= TAIL_MIN_BEYOND:
            return candidate
    return None


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail the sample supports.

    A sample too small for any percentile reports its maximum as the
    100th percentile.
    """
    percentile = tail_percentile(len(values))
    if percentile is None:
        return 100.0, max(values)
    return percentile, quantile(values, percentile)


def covered_length(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans, charged=None) -> dict[int, int]:
    """Self time of every span: its duration minus what its children cover.

    `spans` holds (span_id, start, end, parent_id) rows; children are
    clipped to their parent's interval and may overlap each other.
    `charged` maps a span id to extra child time that was aggregated
    instead of stored as spans.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    bounds = {}
    for span_id, start, end, parent in spans:
        bounds[span_id] = (start, end)
        if parent:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, (start, end) in bounds.items():
        inner = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if min(e, end) > max(s, start)
        ]
        extra = charged.get(span_id, 0) if charged else 0
        result[span_id] = max(0, end - start - covered_length(inner) - extra)
    return result
