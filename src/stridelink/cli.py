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
from .evaluation import STAGES, TS_GATES, UnknownId, evaluate_run, stage_rates, ts_sweep
from .model import GroundTruth
from .pipeline import PipelineParams, run_pipeline
from .similarity import SimilarityParams
from .simulator import PersonSpec, ScenarioConfig, ScenarioData, generate
from .tracer import TracerParams


# Every config field's JSON kind, keyed by the annotation text fields() reports (the
# config modules postpone annotations): the name an error gives it, the test a value
# must pass and the conversion it then gets. An annotation "X | None" also takes null.
# Which values of its kind a field takes, finiteness included, is its record's rule.
_KINDS = {
    "str": ("a string", lambda v: isinstance(v, str), None),
    "list[str]": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), None),
    "dict": ("an object", lambda v: isinstance(v, dict), None),
    "float": ("a number", fileio.is_number, float),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), None),
    "tuple[tuple[float, float], ...]": (
        "a list of [x, y] number pairs",
        lambda v: isinstance(v, list) and all(
            isinstance(xy, list) and len(xy) == 2 and all(map(fileio.is_number, xy)) for xy in v),
        lambda v: tuple((float(x), float(y)) for x, y in v)),
}
# Top-level keys of the "match" section, annotated as a dataclass field would be.
MATCH_KEYS = {"detections": "str", "sensors": "list[str]", "sensors_dir": "str", "truth": "str",
              "fps": "float", "ts_gate": "float", "tracer": "dict", "similarity": "dict"}


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


def _checked(d: dict, annotations: dict[str, str], where: str) -> dict:
    """`d` converted, once each key is in `annotations` and each value of the kind its annotation names."""
    unknown = set(d) - set(annotations)
    if unknown:
        raise CliError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for name, value in d.items():
        kind = annotations[name].removesuffix(" | None")
        nullable = kind != annotations[name]
        label, test, convert = _KINDS[kind]
        if not (nullable and value is None or test(value)):
            raise CliError(f"{where}.{name} must be {label}{' or null' * nullable}, got {json.dumps(value)}")
        out[name] = value if convert is None or value is None else convert(value)
    return out


def _from_dict(cls, d: dict, where: str, **built):
    """Build a dataclass from a JSON object of its fields and the fields in `built`."""
    values = _checked(d, {f.name: f.type for f in fields(cls)}, where)
    try:
        return cls(**values, **built)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{where}: {exc}") from exc


def _scenario_config(cfg: dict, seed_override: int | None) -> ScenarioConfig:
    sc = cfg.get("scenario")
    if not isinstance(sc, dict):
        raise CliError('config needs a "scenario" object')
    sc = dict(sc)
    persons_raw = sc.pop("persons", None)
    if not isinstance(persons_raw, list):
        raise CliError('"scenario.persons" must be a list')
    persons = []
    for k, p in enumerate(persons_raw):
        where = f"scenario.persons[{k}]"
        if not isinstance(p, dict):
            raise CliError(f"{where} must be an object")
        persons.append(_from_dict(PersonSpec, p, where))
        try:  # simulate writes sensors/<id>.csv, so it is refused before any file is written
            fileio.check_sensor_id(persons[-1].sensor)
        except ValueError as exc:
            raise CliError(f"{where}: {exc}") from exc
    if seed_override is not None:
        sc["seed"] = seed_override
    return _from_dict(ScenarioConfig, sc, "scenario", persons=tuple(persons))


def _pipeline_params(mc: dict) -> PipelineParams:
    given = {key: mc[key] for key in ("fps", "ts_gate") if key in mc}
    return _from_dict(PipelineParams, given, "match",
                      tracer=_from_dict(TracerParams, mc.get("tracer", {}), "match.tracer"),
                      similarity=_from_dict(SimilarityParams, mc.get("similarity", {}), "match.similarity"))


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _load_match_inputs(cfg: dict, config_path: str, need_truth: bool = False):
    mc = cfg.get("match")
    if not isinstance(mc, dict):
        raise CliError('config needs a "match" object')
    mc = _checked(mc, MATCH_KEYS, "match")
    if "sensors" in mc and "sensors_dir" in mc:
        raise CliError("match: give sensors or sensors_dir, not both")
    det_path = mc.get("detections")
    if not det_path:
        raise CliError('"match.detections" is required')
    params = _pipeline_params(mc)  # the whole match section is checked before any input file is read
    if need_truth and not mc.get("truth"):
        raise CliError("sweep needs ground truth: set match.truth")
    base = os.path.dirname(os.path.abspath(config_path))
    frames = fileio.read_detections(_resolve(base, det_path))  # refuses a log out of order

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
    return params, frames, streams, truth


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
    if args.ts is not None and not (math.isfinite(args.ts) and args.ts > 0):
        raise CliError("--ts must be finite and positive")
    cfg = _load_config(args.config)
    params, frames, streams, truth = _load_match_inputs(cfg, args.config)
    if args.ts is not None:
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
        summary["r_cd"] = stage_rates(evaluate_run(run, *truth, stages))

    os.makedirs(args.out, exist_ok=True)
    fileio.write_assignments(os.path.join(args.out, "assignments.jsonl"), run, stages)
    fileio.write_summary(os.path.join(args.out, "summary.json"), summary)
    print(
        f"matched {len(run.frames)} frames at {run.throughput_fps:.0f} fps"
        + "".join(f", R_cd[{s}]={r:.4f}" for s, r in summary.get("r_cd", {}).items() if r is not None),
        file=sys.stderr,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        ts_values = tuple(float(v) for v in args.ts.split(","))
    except ValueError as exc:
        raise CliError(f"--ts must be a comma-separated float list: {exc}") from exc
    if not ts_values or not all(math.isfinite(v) and v > 0 for v in ts_values):
        raise CliError("--ts gates must be finite and positive")
    cfg = _load_config(args.config)
    params, frames, streams, truth = _load_match_inputs(cfg, args.config, need_truth=True)
    scenario = ScenarioData(tuple(frames), tuple(streams), *truth)
    rows = ts_sweep(scenario, ts_values, params, _stage_list(args.stage))

    os.makedirs(args.out, exist_ok=True)
    fileio.write_sweep_csv(os.path.join(args.out, "sweep.csv"), rows)
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
