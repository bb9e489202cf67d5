#!/usr/bin/env python3
"""Thread-aware self-time roll-up of a Chrome trace_event document.

A span's self time is its duration minus the part of it that child spans
cover, where a child is a span nested inside it *on the same thread*.  Spans
on other threads are never children: a parent that waits on a thread pool
keeps the waiting as its own (self) time, and the workers' spans are rolled
up on their own threads.  A naive roll-up that nests by time alone would
subtract the workers' spans from the waiting parent, and can give it
negative or meaningless self time.

Run this file to check the roll-up against a hand-built trace with known
self times:  python3 stacbench/rollup.py
"""

import sys


class SpanStats:
    """Per-name aggregate: count, inclusive and self microseconds."""

    def __init__(self):
        self.count = 0
        self.total_us = 0
        self.self_us = 0
        self.durations_us = []
        self.args = []

    def __repr__(self):
        return (f"SpanStats(count={self.count}, total_us={self.total_us}, "
                f"self_us={self.self_us})")


def complete_spans(events):
    """The kComplete ('X') events of a trace, as dicts."""
    return [e for e in events if e.get("ph") == "X"]


def self_times(events):
    """Return {span name: SpanStats} with thread-aware self times."""
    by_tid = {}
    for order, e in enumerate(complete_spans(events)):
        by_tid.setdefault(e["tid"], []).append((order, e))
    stats = {}
    for tagged in by_tid.values():
        # Parents sort before the children they contain: earlier start
        # first, on a tie the longer span first, and on a tie of both the
        # span recorded later (a span is recorded when it closes, so a
        # parent is recorded after its children).
        tagged.sort(key=lambda oe: (oe[1]["ts"], -oe[1]["dur"], -oe[0]))
        spans = [e for _, e in tagged]
        child_us = [0] * len(spans)
        stack = []  # indices of open spans on this thread
        for i, e in enumerate(spans):
            start = e["ts"]
            while stack and (spans[stack[-1]]["ts"] +
                             spans[stack[-1]]["dur"]) <= start:
                stack.pop()
            if stack:
                parent = spans[stack[-1]]
                end = min(start + e["dur"], parent["ts"] + parent["dur"])
                child_us[stack[-1]] += end - start
            stack.append(i)
        for i, e in enumerate(spans):
            s = stats.setdefault(e["name"], SpanStats())
            s.count += 1
            s.total_us += e["dur"]
            s.self_us += max(0, e["dur"] - child_us[i])
            s.durations_us.append(e["dur"])
            s.args.append(e.get("args", {}))
    return stats


def busy_us_by_thread(events):
    """Per thread: microseconds covered by at least one span."""
    by_tid = {}
    for e in complete_spans(events):
        by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
    busy = {}
    for tid, ivs in by_tid.items():
        ivs.sort()
        total, cur_start, cur_end = 0, None, None
        for a, b in ivs:
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            total += cur_end - cur_start
        busy[tid] = total
    return busy


def _span(name, tid, ts, dur):
    return {"name": name, "cat": "t", "ph": "X", "tid": tid, "ts": ts,
            "dur": dur}


def check_rollup():
    """Check self_times() on a hand-built trace; raise AssertionError."""
    events = [
        # Thread 1: a waits on a pool for most of its 100 us, runs b (30 us,
        # which runs c for 10 us) and, after b, d (5 us).
        _span("a", 1, 0, 100),
        _span("b", 1, 10, 30),
        _span("c", 1, 15, 10),
        _span("d", 1, 50, 5),
        # Thread 2: pool work overlapping a in time; never a's child.
        _span("w", 2, 20, 60),
        _span("c", 2, 30, 20),
        # Thread 3: a span that starts where its sibling ends is not its
        # child; equal start with a longer span nests under the longer one.
        _span("x", 3, 0, 10),
        _span("y", 3, 10, 4),
        _span("y", 3, 10, 10),
        # Thread 4: two spans with the same extent; the one recorded first
        # closed first and is the child.
        _span("inner", 4, 0, 7),
        _span("outer", 4, 0, 7),
        # Metadata events are not spans.
        {"name": "thread_name", "ph": "M", "tid": 2,
         "args": {"name": "pool-worker-0"}},
    ]
    s = self_times(events)
    want_self = {"a": 100 - 30 - 5, "b": 30 - 10, "c": 10 + 20, "d": 5,
                 "w": 60 - 20, "x": 10, "y": (10 - 4) + 4, "inner": 7,
                 "outer": 0}
    want_count = {"a": 1, "b": 1, "c": 2, "d": 1, "w": 1, "x": 1, "y": 2,
                  "inner": 1, "outer": 1}
    for name, want in want_self.items():
        assert s[name].self_us == want, (name, s[name].self_us, want)
        assert s[name].count == want_count[name], (name, s[name].count)
    assert s["c"].total_us == 30
    busy = busy_us_by_thread(events)
    assert busy == {1: 100, 2: 60, 3: 20, 4: 7}, busy
    return True


if __name__ == "__main__":
    check_rollup()
    print("rollup check ok")
    sys.exit(0)
