"""On-disk formats: detection logs, sensor CSVs, ground truth, results.

Floats are written with repr (shortest round-trip form), so write-read is
exact and identical inputs produce identical bytes. Detection logs are
JSON lines, one frame per line; sensor streams are CSV with a fixed
header; truth and summaries are ordinary JSON with sorted keys.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured

from .evaluation import TsSweepRow, stage_pairing
from .model import BoundingBox, DetectionFrame, SensorStream
from .pipeline import MatchRun

SENSOR_HEADER = ["ts_us", "ax", "ay", "az"]


class FormatError(ValueError):
    """Malformed input file; message names the file and position."""


def write_detections(path: str, frames: Iterable[DetectionFrame]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(json.dumps({
                "frame": frame.frame_index,
                "ts_us": frame.timestamp,
                "boxes": [
                    {"cx": b.cx, "cy": b.cy, "w": b.w, "h": b.h} for b in frame.boxes
                ],
            }, separators=(",", ":")))
            fh.write("\n")


# The Python types json.loads gives a JSON number; bool is not among them.
_NUMBER = (int, float)
_BOX_KEYS = ("cx", "cy", "w", "h")


def read_detections(path: str) -> list[DetectionFrame]:
    """Frames of a detection log. frame and ts_us must be JSON integers and
    each box field a JSON number; a boolean is neither, and a rejection
    names the line and the field."""
    frames: list[DetectionFrame] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                for key in ("frame", "ts_us"):
                    if type(rec[key]) is not int:
                        raise TypeError(f"{key} must be an integer, got {json.dumps(rec[key])}")
                boxes = []
                for k, b in enumerate(rec["boxes"]):
                    cx, cy, w, h = box = b["cx"], b["cy"], b["w"], b["h"]
                    # spelled out: this runs once per box of the log
                    if not (type(cx) in _NUMBER and type(cy) in _NUMBER and type(w) in _NUMBER
                            and type(h) in _NUMBER):
                        key = next(key for key, v in zip(_BOX_KEYS, box) if type(v) not in _NUMBER)
                        raise TypeError(f"boxes[{k}].{key} must be a number, got {json.dumps(b[key])}")
                    boxes.append(BoundingBox(float(cx), float(cy), float(w), float(h)))
                frames.append(DetectionFrame(rec["frame"], rec["ts_us"], tuple(boxes)))
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return frames


def write_sensor_csv(path: str, stream: SensorStream) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SENSOR_HEADER)
        # Python floats: the repr of a numpy scalar is not a number.
        for ts, (ax, ay, az) in zip(stream.ts_us.tolist(), stream.samples.tolist()):
            writer.writerow([ts, repr(ax), repr(ay), repr(az)])


def read_sensor_csv(path: str) -> SensorStream:
    """Load one phone's samples, named by the file's base name. The format
    carries no rate field: the stream infers its rate from its
    timestamps. A rejection names the line of the first bad row, whatever
    its defect; blank lines are skipped but counted."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if next(csv.reader(lines[:1]), None) != SENSOR_HEADER:
        raise FormatError(f"{path}:1: expected header {','.join(SENSOR_HEADER)}")
    rows = [line for line in lines[1:] if line]
    parsed = _parse_rows(rows)
    # Error path only: parse one row at a time to find the refused row.
    refused = len(rows) if parsed else next(k for k, row in enumerate(rows) if not _parse_rows([row]))
    ts, xyz = parsed or _parse_rows(rows[:refused])
    nonfinite = ~np.isfinite(xyz).all(axis=1)
    backwards = np.diff(ts, prepend=ts[:1] - 1) <= 0
    k = min(np.flatnonzero(nonfinite | backwards)[:1].tolist() + [refused])
    if k < len(rows):
        lineno = [n for n, line in enumerate(lines, start=1) if line][k + 1]
        n_fields = rows[k].count(",") + 1
        if k == refused and n_fields != len(SENSOR_HEADER):
            problem = f"expected {len(SENSOR_HEADER)} fields {','.join(SENSOR_HEADER)}, got {n_fields}"
        elif k == refused:
            problem = f"expected numbers {','.join(SENSOR_HEADER)}, got {rows[k]!r}"
        elif nonfinite[k]:
            problem = f"ax, ay, az must be finite, got {','.join(rows[k].split(',')[1:4])}"
        else:
            problem = f"timestamp {ts[k]} does not increase"
        raise FormatError(f"{path}:{lineno}: {problem}")
    try:
        return SensorStream(os.path.splitext(os.path.basename(path))[0], ts, xyz)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


_SENSOR_ROW = np.dtype([(SENSOR_HEADER[0], np.int64)] + [(name, np.float64) for name in SENSOR_HEADER[1:]])


def _parse_rows(rows: Sequence[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Columns ts_us (int64) and ax, ay, az of CSV rows; None if numpy
    refuses a row, including one without exactly four fields."""
    if not rows:
        return np.empty(0, np.int64), np.empty((0, 3))
    try:
        table = np.loadtxt(rows, _SENSOR_ROW, delimiter=",", ndmin=1, comments=None)
    except ValueError:
        return None
    return table[SENSOR_HEADER[0]], structured_to_unstructured(table[SENSOR_HEADER[1:]])


def write_truth(path: str, sensor_owners: dict[str, str],
                box_owners: dict[int, Sequence[str]]) -> None:
    payload = {
        "sensor_to_person": dict(sorted(sensor_owners.items())),
        "box_owners": {str(f): list(owners) for f, owners in sorted(box_owners.items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# The JSON kind of each Python type json.loads gives.
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def read_truth(path: str) -> tuple[dict[str, str], dict[int, tuple[str, ...]]]:
    """Sensor owners and per-frame box owners. sensor_to_person must be an
    object of strings, and box_owners an object with a list of strings
    under each frame index; a rejection names the file and the key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc

    def checked(value, kind: type, where: str):
        if type(value) is not kind:
            raise FormatError(f"{path}: {where} must be {_JSON_KINDS[kind]}, got {_JSON_KINDS[type(value)]}")
        return value

    for key in ("sensor_to_person", "box_owners"):
        if key not in checked(payload, dict, "the file"):
            raise FormatError(f"{path}: missing key {key!r}")
        checked(payload[key], dict, key)
    sensors = {sid: checked(person, str, f"sensor_to_person[{json.dumps(sid)}]")
               for sid, person in payload["sensor_to_person"].items()}
    owners = {}
    for f, persons in payload["box_owners"].items():
        if type(persons) is not list or not all(type(p) is str for p in persons):  # spelled out: once per frame
            where = f"box_owners[{json.dumps(f)}]"
            for k, person in enumerate(checked(persons, list, where)):
                checked(person, str, f"{where}[{k}]")
        try:
            owners[int(f)] = tuple(persons)
        except ValueError:
            raise FormatError(f"{path}: box_owners key {json.dumps(f)} is not a frame index") from None
    return sensors, owners


def write_assignments(path: str, run: MatchRun, stages: Sequence[str] = ("raw", "refined")) -> None:
    """One JSON line per frame per stage: its pairs, sorted.

    The work follows distinct pair sets, not frames: a walk's pairing
    rarely changes, so each distinct set is encoded once and every line
    is formatted around that string.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    heads = [(stage_pairing(stage), f',"stage":{encode(stage)},"pairs":') for stage in stages]
    encoded: dict[frozenset[tuple[str, str]], str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for fr in run.frames:
            for pairing, head in heads:
                assignment = pairing(fr)
                body = encoded.get(assignment.pairs)
                if body is None:
                    body = encoded[assignment.pairs] = encode([list(p) for p in assignment.sorted_pairs()])
                fh.write(f'{{"frame":{fr.frame_index}{head}{body}}}\n')


def write_summary(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt_rate(r: float) -> str:
    return "nan" if math.isnan(r) else f"{r:.4f}"


def write_sweep_csv(path: str, rows: Iterable[TsSweepRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ts_seconds", "stage", "r_cd"])
        writer.writerows([repr(row.ts), row.stage, _fmt_rate(row.r_cd)] for row in rows)


def format_sweep_table(rows: Sequence[TsSweepRow]) -> str:
    """Stages as rows, gates as columns, rates in the cells."""
    ts_values = sorted({r.ts for r in rows})
    stages = []
    for r in rows:
        if r.stage not in stages:
            stages.append(r.stage)
    cell = {(r.ts, r.stage): r.r_cd for r in rows}
    lines = ["TS(s)".ljust(10) + "".join(f"{ts:>9g}" for ts in ts_values)]
    for stage in stages:
        line = stage.ljust(10)
        for ts in ts_values:
            r = cell.get((ts, stage))
            line += f"{_fmt_rate(r):>9}" if r is not None else f"{'-':>9}"
        lines.append(line)
    return "\n".join(lines) + "\n"
