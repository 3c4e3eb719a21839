"""Frame-to-frame association of person boxes into traces.

A trace is the sequence of boxes believed to be one person. Matching is
movement-limited: between consecutive frames a walker cannot move further
than a fixed fraction of their own box height, so each trace searches for
its next box inside that radius. The radius grows linearly with the number
of frames a trace has gone unseen, letting it recapture its person after a
brief occlusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import BoundingBox, DetectionFrame

TRACE_ID_FORMAT = "t{:04d}"


@dataclass(frozen=True)
class TracerParams:
    radius_factor: float = 0.1   # of box height, per elapsed frame
    max_gap: int = 15            # frames unseen before a trace terminates


@dataclass
class Trace:
    """One person's boxes so far; the Tracker extends a live trace in place."""

    trace_id: str
    entries: list[tuple[int, BoundingBox]]
    last_seen: int
    active: bool = True

    @property
    def last_box(self) -> BoundingBox:
        return self.entries[-1][1]


def search_radius(box: BoundingBox, gap: int, radius_factor: float = 0.1) -> float:
    """Pixel radius a person may have moved `gap` frames after `box` was seen."""
    if gap < 1:
        raise ValueError("gap must be >= 1")
    return radius_factor * box.h * gap


class Tracker:
    """Traces of one camera stream, advanced one frame of detections at a time.

    `traces` holds every trace ever seen, in order of birth; only the live
    ones are searched when a frame arrives.
    """

    def __init__(self, params: TracerParams = TracerParams()):
        self.params = params
        self.traces: dict[str, Trace] = {}
        self._live: dict[int, Trace] = {}  # trace ordinal -> live trace
        self._next_ordinal = 0

    def update(self, frame: DetectionFrame) -> dict[int, str]:
        """Advance all live traces by one frame of detections.

        Candidate (trace, box) pairs inside the trace's search radius are
        matched greedily in ascending center-distance order, ties broken by
        older trace then lower box ordinal, so the partition is
        deterministic. Each trace gains at most one box and each box joins
        at most one trace. Unmatched boxes open new traces; traces unseen
        for more than max_gap frames are terminated.

        Returns a map of box ordinal -> trace_id covering every box of the
        frame.
        """
        f = frame.frame_index
        params = self.params
        for trace in self._live.values():
            if trace.last_seen >= f:
                raise ValueError(
                    f"frame {f} is not ahead of active trace {trace.trace_id} (last_seen {trace.last_seen})"
                )

        candidates = []
        for trace_ord, trace in self._live.items():
            gap = f - trace.last_seen
            if gap > params.max_gap:
                continue
            last = trace.last_box
            radius = search_radius(last, gap, params.radius_factor)
            for ordinal, box in enumerate(frame.boxes):
                dist = math.hypot(box.cx - last.cx, box.cy - last.cy)
                if dist <= radius:
                    candidates.append((dist, trace_ord, ordinal))

        candidates.sort()
        assignments: dict[int, str] = {}
        taken_traces: set[int] = set()
        for dist, trace_ord, ordinal in candidates:
            if trace_ord in taken_traces or ordinal in assignments:
                continue
            trace = self._live[trace_ord]
            trace.entries.append((f, frame.boxes[ordinal]))
            trace.last_seen = f
            taken_traces.add(trace_ord)
            assignments[ordinal] = trace.trace_id

        for ordinal, box in enumerate(frame.boxes):
            if ordinal in assignments:
                continue
            trace_ord = self._next_ordinal
            self._next_ordinal += 1
            trace = Trace(TRACE_ID_FORMAT.format(trace_ord), [(f, box)], last_seen=f)
            self.traces[trace.trace_id] = self._live[trace_ord] = trace
            assignments[ordinal] = trace.trace_id

        for trace_ord in [k for k, t in self._live.items() if f - t.last_seen > params.max_gap]:
            self._live.pop(trace_ord).active = False

        return assignments
