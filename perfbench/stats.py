"""Standard-library helpers shared by the benchmark's parent and worker
processes: percentile reporting and failed-operation accounting."""

from __future__ import annotations

import statistics
import traceback

# A tail percentile is reported only when at least this many samples lie
# strictly beyond it; fewer would make it the reading of one or two outliers.
MIN_BEYOND = 10
TAIL_LADDER = (90, 95, 99)


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The highest percentile in ``ladder`` with at least ``min_beyond``
    samples strictly above its value, as ``{"pct", "value", "n", "beyond"}``;
    None when no percentile in the ladder qualifies."""
    xs = sorted(samples)
    if len(xs) < 2:
        return None
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    best = None
    for pct in ladder:
        value = cuts[pct - 1]
        beyond = sum(1 for x in xs if x > value)
        if beyond >= min_beyond:
            best = {"pct": pct, "value": value, "n": len(xs), "beyond": beyond}
    return best


def median_summary(samples):
    """Median with the sample count behind it."""
    return {"value": statistics.median(samples), "n": len(samples)}


class OpLog:
    """Counts attempted and failed operations.

    A failed op is an exception, a non-finite loss or a failed correctness
    gate. The first few reasons are kept for the report.
    """

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < self.KEEP:
                self.reasons.append(reason)
        return ok

    def fail(self, what: str, exc: BaseException) -> None:
        """Record one failed op for an exception caught at a boundary."""
        tb = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.record(False, f"{what}: {tb}")

    def guard(self, what: str, fn, *args, **kwargs):
        """Run ``fn`` as one op; an exception counts as a failed op and
        returns None, so the rest of the workload still runs."""
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # boundary: record and keep running
            self.fail(what, exc)
            return None
        self.record(True, what)
        return out
