"""ASCII space-time diagrams from the flight recorder.

Turns a run's recorded ``sent`` / ``delivered`` / ``released`` events
(``ActorSpaceSystem(trace=True)``, then ``system.event_log``) into a
per-node message timeline — the quickest way to *see* locality (E4),
suspension release bursts (E6), or load imbalance, straight in a
terminal.  Purely presentational: reads events, writes a string.

Example output::

    t=0.00                                         t=2.41
    node 0 |s--d----s------d-------------------------|
    node 1 |---d-------du--------------d--------------|
    node 2 |------du------------d---------------------|
            s=sent here   d=delivered here   u=suspension release

Each column is one time bucket; a cell shows the most interesting event
class that happened on that node in that bucket.
"""

from __future__ import annotations

from typing import Iterable

from repro.runtime.eventlog import TraceEvent


def render_timeline(
    events: Iterable[TraceEvent],
    node_count: int,
    width: int = 72,
    t_start: float | None = None,
    t_end: float | None = None,
) -> str:
    """Render recorded events as a per-node ASCII timeline.

    ``width`` is the number of time buckets.  Returns a multi-line
    string; a record with no message in it renders an explanatory stub.
    """
    marks: dict[str, list[tuple[float, int]]] = {
        "sent": [], "delivered": [], "released": []}
    for event in events:
        if event.kind in marks:
            marks[event.kind].append((event.t, event.node))
    messages = marks["sent"] + marks["delivered"]
    if not messages:
        return "(no messages recorded — construct the system with trace=True)"
    lo = t_start if t_start is not None else min(t for t, _ in messages)
    hi = t_end if t_end is not None else max(t for t, _ in messages)
    if hi <= lo:
        hi = lo + 1e-9
    span = hi - lo

    def bucket(t: float) -> int:
        b = int((t - lo) / span * (width - 1))
        return max(0, min(width - 1, b))

    # Priority per cell: delivery beats suspension release beats send.
    grid = [[" "] * width for _ in range(node_count)]
    for t, node in marks["sent"]:
        if 0 <= node < node_count:
            grid[node][bucket(t)] = "s"
    for t, node in marks["released"]:
        if 0 <= node < node_count and lo <= t <= hi:
            grid[node][bucket(t)] = "u"
    for t, node in marks["delivered"]:
        if 0 <= node < node_count:
            grid[node][bucket(t)] = "d"

    label_width = len(f"node {node_count - 1}")
    lines = [
        f"{'':{label_width}}  t={lo:.2f}{'':{max(0, width - len(f'{lo:.2f}') - len(f'{hi:.2f}') - 4)}}t={hi:.2f}"
    ]
    for node in range(node_count):
        row = "".join(grid[node])
        lines.append(f"{f'node {node}':{label_width}} |{row}|")
    lines.append(
        f"{'':{label_width}}  s=sent from here   d=delivered here   "
        "u=suspension release"
    )
    return "\n".join(lines)


def render_load_bars(
    counts: dict, width: int = 40, title: str = "deliveries per receiver"
) -> str:
    """Horizontal bar chart of per-receiver delivery counts."""
    if not counts:
        return "(no deliveries recorded)"
    peak = max(counts.values()) or 1
    lines = [title]
    for key in sorted(counts, key=lambda k: (-counts[k], str(k))):
        bar = "#" * max(1, int(counts[key] / peak * width))
        lines.append(f"  {str(key):16s} {bar} {counts[key]}")
    return "\n".join(lines)
