"""Correct-decision rate against ground truth, and the length-gate sweep.

A sensor is "claimed" in a frame when the pairing stage assigns it to any
trace; the claim is correct when that trace belongs to the sensor's owner.
R_cd is total correct claims over total claims, pooled across sensors and
frames. Frames where a sensor stays unpaired count toward neither side, so
R_cd measures precision of the claims actually made.

Trace-level truth does not exist up front (trace ids are a pipeline
artifact); it is derived per trace by majority vote over the owners of the
boxes the trace absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .model import GroundTruth
from .pairing import Assignment
from .pipeline import MatchRun, PipelineParams, run_pipeline
from .simulator import ScenarioData

STAGES = ("raw", "refined")
TS_GATES = (0.33, 1.0, 2.0, 3.0, 4.0)  # seconds, the gates a sweep runs by default


class UnknownId(KeyError):
    """An assignment referenced an id that ground truth does not cover."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted key


class UndefinedRate(ValueError):
    """R_cd requested although no claims were ever made."""


@dataclass
class EvalCounters:
    """Per-person claim tallies. n_id[p] counts frames p's sensor was
    paired to some trace (the claims r_cd counts); n_cd[p] counts those
    frames in which that trace was p's too."""

    n_id: dict[str, int] = field(default_factory=dict)
    n_cd: dict[str, int] = field(default_factory=dict)

    @property
    def total_id(self) -> int:
        return sum(self.n_id.values())

    @property
    def total_cd(self) -> int:
        return sum(self.n_cd.values())

    def r_cd(self) -> float:
        if self.total_id == 0:
            raise UndefinedRate("no sensor was ever paired")
        return self.total_cd / self.total_id


def accumulate(counters: EvalCounters, assignment: Assignment, truth: GroundTruth,
               multiplicity: int = 1) -> EvalCounters:
    """Fold one frame's pairing into the tallies, or the pairing of
    `multiplicity` frames that made the same one."""
    for trace_id, sensor_id in assignment.pairs:
        if sensor_id not in truth.sensor_to_person:
            raise UnknownId(f"sensor {sensor_id!r} not in ground truth")
        if trace_id not in truth.trace_to_person:
            raise UnknownId(f"trace {trace_id!r} not in ground truth")
        person = truth.sensor_to_person[sensor_id]
        trace_person = truth.trace_to_person[trace_id]
        counters.n_id[person] = counters.n_id.get(person, 0) + multiplicity
        if trace_person == person:
            counters.n_cd[person] = counters.n_cd.get(person, 0) + multiplicity
    return counters


def derive_trace_truth(
    frame_box_traces: Mapping[int, Mapping[int, str]],
    box_owners: Mapping[int, Sequence[str]],
) -> dict[str, str]:
    """Owner of each trace by majority vote over its absorbed boxes.

    frame_box_traces[f][k] is the trace that took box k of frame f;
    box_owners[f][k] is who that box really showed. Vote ties break to the
    lexicographically smallest person so derived truth is reproducible.
    """
    votes: dict[str, dict[str, int]] = {}
    for f, assignments in frame_box_traces.items():
        owners = box_owners.get(f, ())
        for ordinal, trace_id in assignments.items():
            if ordinal >= len(owners):
                raise UnknownId(f"frame {f} box {ordinal} has no recorded owner")
            per_trace = votes.setdefault(trace_id, {})
            person = owners[ordinal]
            per_trace[person] = per_trace.get(person, 0) + 1
    return {
        trace_id: min(p for p, c in per.items() if c == max(per.values()))
        for trace_id, per in votes.items()
    }


def evaluate_run(
    run: MatchRun,
    sensor_owners: Mapping[str, str],
    box_owners: Mapping[int, Sequence[str]],
    stages: Sequence[str] = STAGES,
) -> dict[str, EvalCounters]:
    """Tally every frame of a finished run for the requested stages.

    The work follows distinct pair sets, not frames: each stage's frames
    are grouped by their pair set, and each set is folded in once,
    weighted by its frame count. Sets are visited in the order they first
    appear, so an id that ground truth lacks is reported as the per-frame
    fold would report it: the first offending id of the first offending
    frame.
    """
    trace_truth = derive_trace_truth(
        {fr.frame_index: fr.box_traces for fr in run.frames}, box_owners
    )
    truth = GroundTruth(trace_truth, dict(sensor_owners))
    out: dict[str, EvalCounters] = {}
    for stage in stages:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        # pair set -> [its first assignment, the frames that made it]
        groups: dict[frozenset[tuple[str, str]], list] = {}
        for fr in run.frames:
            assignment = fr.raw if stage == "raw" else fr.refined
            groups.setdefault(assignment.pairs, [assignment, 0])[1] += 1
        counters = EvalCounters()
        for assignment, frames in groups.values():
            accumulate(counters, assignment, truth, frames)
        out[stage] = counters
    return out


def stage_rates(evals: Mapping[str, EvalCounters]) -> dict[str, float | None]:
    """Each stage's R_cd, or None where the stage never paired anything."""
    return {stage: counters.r_cd() if counters.total_id else None for stage, counters in evals.items()}


@dataclass(frozen=True)
class TsSweepRow:
    ts: float
    stage: str
    r_cd: float  # nan when the stage never paired anything at this gate


def ts_sweep(
    scenario: ScenarioData,
    ts_values: Iterable[float] = TS_GATES,
    params: PipelineParams = PipelineParams(),
    stages: Sequence[str] = STAGES,
) -> list[TsSweepRow]:
    """R_cd at each length gate, one full pipeline pass per gate.

    Longer gates delay a pair's first claim but make every claim rest on
    more extremums, so the rate typically rises with ts.
    """
    rows: list[TsSweepRow] = []
    for ts in ts_values:
        run = run_pipeline(scenario.frames, scenario.streams, replace(params, ts_gate=ts))
        evals = evaluate_run(run, scenario.sensor_owners, scenario.box_owners, stages)
        rows += [TsSweepRow(ts, stage, math.nan if rate is None else rate)
                 for stage, rate in stage_rates(evals).items()]
    return rows
