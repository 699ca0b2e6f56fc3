"""Expand a ``MetricsCollector``'s per-call token record to one time
per token, the form the transcript digests were recorded in."""


def token_times(metrics) -> list[float]:
    """One entry per generated token: each ``record_token`` call's time,
    repeated once for every token it counted."""
    times = []
    previous = 0
    for time, total in zip(metrics.step_times, metrics.step_totals):
        times.extend([time] * (total - previous))
        previous = total
    return times
