"""Chrome trace-event export: spans as a Perfetto-loadable timeline.

``--trace-format chrome`` turns the JSONL span stream into the Chrome
trace-event JSON that ``chrome://tracing`` and https://ui.perfetto.dev
load directly, which is the fastest way to *see* a run: the weekly
sweep on its own lane under the monitor-sweep stage, checkpoint writes
punctuating weeks, the report's analyses after the last week.

Everything runs in one process, pid 1.  Lane mapping — the
trace-event ``tid`` — separates the sweep from the rest:

* the main pipeline (stage spans, checkpoints, ``analysis.*`` spans)
  → tid 1;
* ``sweep.shard`` spans and everything nested under them → tid
  ``10 + shard_index`` (the sweep opens one shard span, index 0, so it
  lands on tid 10).

A span's lane comes from walking its **path id**: a span whose id
contains a ``sweep.shard#0`` segment belongs to the sweep's lane no
matter how deeply nested it is.  That information only exists because
ids are causal paths — the flat pre-tree stream couldn't have been
laned.

Events are ``ph:"X"`` complete events (wall start derived from the
recorded end stamp minus duration), point events are ``ph:"i"``
instants, and ``ph:"M"`` metadata rows name the lanes.  Timestamps are
microseconds normalised to the earliest event so traces start at t=0.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

_PID = 1
_MAIN_TID = 1
_SHARD_TID_BASE = 10


def _shard_lane(span_id: Optional[str]) -> Optional[Tuple[int, str]]:
    """(tid, label) of the shard lane a path id belongs to, if any.

    Walks the path segments outermost-first so a span nested under a
    shard span inherits the shard's lane rather than falling back to
    the main thread.
    """
    if not span_id:
        return None
    for segment in span_id.split("/"):
        name, _, seq = segment.rpartition("#")
        if name == "sweep.shard":
            try:
                index = int(seq)
            except ValueError:
                index = 0
            return _SHARD_TID_BASE + index, f"shard {index}"
    return None


def chrome_trace(events: List[Dict]) -> Dict:
    """Convert JSONL trace events to a Chrome trace-event document."""
    trace_events: List[Dict] = []
    lanes_seen: Dict[int, str] = {_MAIN_TID: "pipeline"}

    def resolve_tid(event: Dict) -> int:
        lane = _shard_lane(event.get("id") or event.get("parent"))
        if lane is None:
            return _MAIN_TID
        tid, label = lane
        lanes_seen.setdefault(tid, label)
        return tid

    for event in events:
        kind = event.get("type")
        if kind not in ("span", "event"):
            continue  # the metrics snapshot has no timeline meaning
        wall = event.get("wall")
        if wall is None:
            continue
        tid = resolve_tid(event)
        args = {
            key: value
            for key, value in event.items()
            if key not in ("type", "name", "wall", "dur_ms", "id", "parent")
        }
        if event.get("id"):
            args["id"] = event["id"]
        if kind == "span":
            dur_us = int(event.get("dur_ms", 0.0) * 1000)
            trace_events.append({
                "name": event.get("name", "?"),
                "ph": "X",
                # ``wall`` is stamped at span *end*; recover the start.
                "ts": int(wall * 1_000_000) - dur_us,
                "dur": dur_us,
                "pid": _PID,
                "tid": tid,
                "args": args,
            })
        else:
            trace_events.append({
                "name": event.get("name", "?"),
                "ph": "i",
                "ts": int(wall * 1_000_000),
                "s": "t",
                "pid": _PID,
                "tid": tid,
                "args": args,
            })

    if trace_events:
        origin = min(entry["ts"] for entry in trace_events)
        for entry in trace_events:
            entry["ts"] -= origin
    trace_events.sort(key=lambda entry: (entry["tid"], entry["ts"]))

    metadata: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro pipeline"},
    }]
    for tid, label in sorted(lanes_seen.items()):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": label},
        })

    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def render_chrome(events: List[Dict]) -> str:
    """The export as a JSON string (callers handle atomic file writes)."""
    return json.dumps(chrome_trace(events), indent=None, separators=(",", ":"))
