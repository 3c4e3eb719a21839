"""Command-line front end.

Three subcommands share one JSON config file:

    stridelink simulate --config cfg.json --out DIR [--seed N]
    stridelink match    --config cfg.json --out DIR [--stage S] [--ts SEC]
    stridelink sweep    --config cfg.json --out DIR [--stage S] [--ts list]

simulate reads the "scenario" section and writes detections.jsonl,
sensors/<id>.csv and truth.json. match reads the "match" section (input
paths resolve relative to the config file), writes assignments.jsonl and
summary.json, and reports R_cd when truth is available. sweep runs match
once per length gate and writes sweep.csv plus a readable sweep.txt.

Diagnostics go to stderr; the exit code is 0 on success, 1 on any
config, format, or data error.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from dataclasses import fields, replace

from . import fileio
from .acc_features import FilterSpec
from .evaluation import STAGES, TS_GATES, UndefinedRate, UnknownId, evaluate_run, ts_sweep
from .model import GroundTruth, validate_detection_log
from .pipeline import PipelineParams, run_pipeline
from .similarity import SimilarityParams
from .simulator import PersonSpec, ScenarioConfig, ScenarioData, generate
from .tracer import TracerParams

# Top-level keys of the "match" section, with the JSON type each must have.
MATCH_KEYS = {"detections": str, "sensors": list, "sensors_dir": str, "truth": str,
              "fps": float, "ts_gate": float, "tracer": dict, "filter": dict, "similarity": dict}
_TYPE_NAMES = {str: "a string", list: "a list of strings", dict: "an object",
               float: "a number", int: "an integer"}
# Dataclass field annotations _from_dict checks: the JSON type each takes
# and whether null is allowed. Fields annotated otherwise pass unchecked.
_FIELD_KINDS = {"int": (int, False), "float": (float, False), "int | None": (int, True)}


def _is_kind(value, kind) -> bool:
    """Whether a JSON value has the type `kind`; booleans are not numbers,
    an int is a float if float() can hold it, a float is not an int, and
    numbers are finite."""
    if kind is list:
        return isinstance(value, list) and all(isinstance(p, str) for p in value)
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int,) if kind is int else (int, float)):
            return False
        try:
            return kind is int or math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    return isinstance(value, kind)


class CliError(ValueError):
    """Anything that should stop the command with a message, not a trace."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must be a JSON object")
    return cfg


def _from_dict(cls, d: dict, where: str):
    """Build a dataclass from a JSON object, rejecting unknown keys and
    numeric fields of the wrong JSON type."""
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = set(d) - set(annotations)
    if unknown:
        raise CliError(f"{where}: unknown keys {sorted(unknown)}")
    for name, value in d.items():
        kind, nullable = _FIELD_KINDS.get(annotations[name], (None, False))
        if kind is None or (nullable and value is None) or _is_kind(value, kind):
            continue
        expected = _TYPE_NAMES[kind] + (" or null" if nullable else "")
        raise CliError(f"{where}.{name} must be {expected}, got {json.dumps(value)}")
    try:
        return cls(**d)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{where}: {exc}") from exc


def _scenario_config(cfg: dict, seed_override: int | None) -> ScenarioConfig:
    sc = cfg.get("scenario")
    if not isinstance(sc, dict):
        raise CliError('config needs a "scenario" object')
    sc = dict(sc)
    persons_raw = sc.pop("persons", None)
    if not isinstance(persons_raw, list) or not persons_raw:
        raise CliError('"scenario.persons" must be a non-empty list')
    persons = []
    for k, p in enumerate(persons_raw):
        if not isinstance(p, dict):
            raise CliError(f"scenario.persons[{k}] must be an object")
        p = dict(p)
        if "path" in p:
            path = p["path"]
            if not (isinstance(path, list) and all(
                    isinstance(xy, list) and len(xy) == 2 and all(_is_kind(v, float) for v in xy)
                    for xy in path)):
                raise CliError(f"scenario.persons[{k}].path must be a list of [x, y] number pairs, "
                               f"got {json.dumps(path)}")
            p["path"] = tuple((float(x), float(y)) for x, y in path)
        persons.append(_from_dict(PersonSpec, p, f"scenario.persons[{k}]"))
    if seed_override is not None:
        sc["seed"] = seed_override
    return _from_dict(ScenarioConfig, {**sc, "persons": tuple(persons)}, "scenario")


def _pipeline_params(mc: dict) -> PipelineParams:
    sim_keys = dict(mc.get("similarity", {}))
    if "extreme_window" in sim_keys:
        if "d" in sim_keys:
            raise CliError("match.similarity: give d or its alias extreme_window, not both")
        window = sim_keys.pop("extreme_window")
        if not _is_kind(window, int):
            raise CliError(f"match.similarity.extreme_window must be {_TYPE_NAMES[int]}, "
                           f"got {json.dumps(window)}")
        if window < 2:
            raise CliError(f"match.similarity.extreme_window must be >= 2, got {window}")
        sim_keys["d"] = window
    tracer = _from_dict(TracerParams, mc.get("tracer", {}), "match.tracer")
    filter_spec = _from_dict(FilterSpec, mc.get("filter", {}), "match.filter")
    similarity = _from_dict(SimilarityParams, sim_keys, "match.similarity")
    given = {key: float(mc[key]) for key in ("fps", "ts_gate") if key in mc}
    try:
        return PipelineParams(tracer=tracer, filter_spec=filter_spec, similarity=similarity, **given)
    except (TypeError, ValueError) as exc:
        raise CliError(f"match: {exc}") from exc


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _load_match_inputs(cfg: dict, config_path: str):
    mc = cfg.get("match")
    if not isinstance(mc, dict):
        raise CliError('config needs a "match" object')
    unknown = set(mc) - set(MATCH_KEYS)
    if unknown:
        raise CliError(f"match: unknown keys {sorted(unknown)}")
    for key, kind in MATCH_KEYS.items():
        if key in mc and not _is_kind(mc[key], kind):
            raise CliError(f"match.{key} must be {_TYPE_NAMES[kind]}, got {json.dumps(mc[key])}")
    if "sensors" in mc and "sensors_dir" in mc:
        raise CliError("match: give sensors or sensors_dir, not both")
    base = os.path.dirname(os.path.abspath(config_path))
    det_path = mc.get("detections")
    if not det_path:
        raise CliError('"match.detections" is required')
    frames = fileio.read_detections(_resolve(base, det_path))
    report = validate_detection_log(frames)
    if not report.ok:
        head = "; ".join(report.violations[:5])
        raise CliError(f"detection log {det_path} is malformed: {head}")

    sensor_paths: list[str] = []
    if "sensors" in mc:
        sensor_paths = [_resolve(base, p) for p in mc["sensors"]]
    elif "sensors_dir" in mc:
        sensor_paths = sorted(glob.glob(os.path.join(_resolve(base, mc["sensors_dir"]), "*.csv")))
    if not sensor_paths:
        raise CliError('no sensor files: set "match.sensors" or "match.sensors_dir"')
    streams = [fileio.read_sensor_csv(p) for p in sensor_paths]

    truth = None
    if mc.get("truth"):
        truth = fileio.read_truth(_resolve(base, mc["truth"]))
        GroundTruth({}, truth[0])  # one phone per person, checked before any pipeline pass
    return mc, frames, streams, truth


def _stage_list(stage: str) -> tuple[str, ...]:
    return STAGES if stage == "both" else (stage,)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    scenario_cfg = _scenario_config(cfg, args.seed)
    data = generate(scenario_cfg)
    os.makedirs(args.out, exist_ok=True)
    sensors_dir = os.path.join(args.out, "sensors")
    os.makedirs(sensors_dir, exist_ok=True)
    fileio.write_detections(os.path.join(args.out, "detections.jsonl"), data.frames)
    for stream in data.streams:
        fileio.write_sensor_csv(os.path.join(sensors_dir, f"{stream.sensor_id}.csv"), stream)
    fileio.write_truth(os.path.join(args.out, "truth.json"), data.sensor_owners, data.box_owners)
    print(
        f"wrote {len(data.frames)} frames, {len(data.streams)} sensor streams to {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    mc, frames, streams, truth = _load_match_inputs(cfg, args.config)
    params = _pipeline_params(mc)
    if args.ts is not None:
        if not (math.isfinite(args.ts) and args.ts > 0):
            raise CliError("--ts must be finite and positive")
        params = replace(params, ts_gate=args.ts)
    stages = _stage_list(args.stage)

    run = run_pipeline(frames, streams, params)
    summary: dict = {
        "frames": len(run.frames),
        "traces": len(run.traces),
        "sensors": len(streams),
        "ts_gate": params.ts_gate,
        "stages": list(stages),
        "throughput_fps": run.throughput_fps,
    }
    if truth is not None:
        sensor_owners, box_owners = truth
        evals = evaluate_run(run, sensor_owners, box_owners, stages)
        summary["r_cd"] = {}
        for stage in stages:
            try:
                summary["r_cd"][stage] = evals[stage].r_cd()
            except UndefinedRate:
                summary["r_cd"][stage] = None

    os.makedirs(args.out, exist_ok=True)
    fileio.write_assignments(os.path.join(args.out, "assignments.jsonl"), run, stages)
    fileio.write_summary(os.path.join(args.out, "summary.json"), summary)
    print(
        f"matched {len(run.frames)} frames at {run.throughput_fps:.0f} fps"
        + "".join(
            f", R_cd[{s}]={summary['r_cd'][s]:.4f}"
            for s in stages
            if truth is not None and summary["r_cd"][s] is not None
        ),
        file=sys.stderr,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    mc, frames, streams, truth = _load_match_inputs(cfg, args.config)
    if truth is None:
        raise CliError("sweep needs ground truth: set match.truth")
    params = _pipeline_params(mc)
    stages = _stage_list(args.stage)
    try:
        ts_values = tuple(float(v) for v in args.ts.split(","))
    except ValueError as exc:
        raise CliError(f"--ts must be a comma-separated float list: {exc}") from exc
    if not ts_values or not all(math.isfinite(v) and v > 0 for v in ts_values):
        raise CliError("--ts gates must be finite and positive")

    sensor_owners, box_owners = truth
    scenario = ScenarioData(tuple(frames), tuple(streams), sensor_owners, box_owners)
    rows = ts_sweep(scenario, ts_values, params, stages)

    seed = cfg.get("scenario", {}).get("seed") if isinstance(cfg.get("scenario"), dict) else None
    os.makedirs(args.out, exist_ok=True)
    fileio.write_sweep_csv(os.path.join(args.out, "sweep.csv"), rows, seed)
    table = fileio.format_sweep_table(rows)
    with open(os.path.join(args.out, "sweep.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stridelink",
        description="Pair walking persons in detection logs with the phones they carry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    p_sim.add_argument("--config", required=True, help="JSON config with a scenario section")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_match = sub.add_parser("match", help="run the pairing pipeline on logs")
    p_match.add_argument("--config", required=True, help="JSON config with a match section")
    p_match.add_argument("--out", required=True, help="output directory")
    p_match.add_argument("--stage", choices=("raw", "refined", "both"), default="both")
    p_match.add_argument("--ts", type=float, default=None, help="override length gate, seconds")
    p_match.set_defaults(func=cmd_match)

    p_sweep = sub.add_parser("sweep", help="R_cd across length gates")
    p_sweep.add_argument("--config", required=True, help="JSON config with a match section")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--stage", choices=("raw", "refined", "both"), default="both")
    p_sweep.add_argument(
        "--ts", default=",".join(str(v) for v in TS_GATES),
        help="comma-separated gates in seconds",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # the package raises ValueError (and UnknownId) for bad input only
    except (ValueError, FileNotFoundError, UnknownId) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
