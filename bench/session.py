"""One `stridelink match` session, replayed through the public library.

    python3 bench/session.py INPUT_DIR OUT_DIR [--trace]

Does what `stridelink match` does with default settings: read and
validate the detection log, read every sensor CSV and the truth file,
run the pipeline, write assignments.jsonl, evaluate R_cd and write
summary.json. It then checks the outputs and prints one JSON object.
With --trace the pipeline's layers are timed (see layers.py); without
it the session runs with no hooks at all.

A session whose match work raises reports `raised`; the benchmark counts
all of its frames as failed. Exit code 3 means the benchmark itself no
longer fits the program (a wrapped layer was never called).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from stridelink import PipelineParams, evaluate_run, fileio, run_pipeline, validate_detection_log  # noqa: E402
from stridelink.evaluation import STAGES, UndefinedRate  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402

EXIT_HARNESS = 3
TILE_TOLERANCE_S = 1e-3


def replay(inputs: str, out: str, trace: bool) -> dict:
    """The match work, timed piece by piece."""
    params = PipelineParams()
    sensor_paths = sorted(glob.glob(os.path.join(inputs, "sensors", "*.csv")))
    clock = time.perf_counter

    t0 = clock()
    frames = fileio.read_detections(os.path.join(inputs, "detections.jsonl"))
    t1 = clock()
    report = validate_detection_log(frames)
    if not report.ok:
        raise ValueError(f"detection log is malformed: {'; '.join(report.violations[:5])}")
    t2 = clock()
    streams = [fileio.read_sensor_csv(p) for p in sensor_paths]
    t3 = clock()
    sensor_owners, box_owners = fileio.read_truth(os.path.join(inputs, "truth.json"))
    t4 = clock()
    lt = None
    if trace:
        with layers.traced() as lt:
            lt.start()
            run = run_pipeline(frames, streams, params)
            lt.stop()
    else:
        run = run_pipeline(frames, streams, params)
    t5 = clock()
    fileio.write_assignments(os.path.join(out, "assignments.jsonl"), run, STAGES)
    t6 = clock()
    evals = evaluate_run(run, sensor_owners, box_owners, STAGES)
    t7 = clock()
    summary = {
        "frames": len(run.frames), "traces": len(run.traces), "sensors": len(streams),
        "ts_gate": params.ts_gate, "stages": list(STAGES), "throughput_fps": run.throughput_fps,
        "r_cd": {},
    }
    for stage in STAGES:
        try:
            summary["r_cd"][stage] = evals[stage].r_cd()
        except UndefinedRate:
            summary["r_cd"][stage] = None
    fileio.write_summary(os.path.join(out, "summary.json"), summary)
    t8 = clock()
    return {
        "params": params, "frames": frames, "streams": streams, "run": run, "evals": evals,
        "sensor_owners": sensor_owners, "box_owners": box_owners,
        "trace": lt, "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "t": (t0, t1, t2, t3, t4, t5, t6, t7, t8),
    }


def assess(w: dict, inputs: str, out: str) -> dict:
    """Check the session's outputs and turn its timings into one record."""
    frames, streams, run, lt = w["frames"], w["streams"], w["run"], w["trace"]
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = w["t"]
    with open(os.path.join(out, "assignments.jsonl"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(inputs, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    failed = checks.frame_failures(frames, {s.sensor_id for s in streams}, run, w["params"])
    if lt is not None:
        failed |= checks.objective_failures(run, lt)
    problems = checks.session_problems(run, w["evals"], w["sensor_owners"], w["box_owners"], meta)
    # The tracer's spans must account for the run_pipeline call as the
    # session's own clock saw it, wrapper installation included.
    if lt is not None and abs(sum(lt.busy.values()) + lt.gap - (t5 - t4)) > TILE_TOLERANCE_S:
        problems.append(f"layer times {sum(lt.busy.values())} s plus self time {lt.gap} s "
                        f"do not add up to the traced run_pipeline wall time {t5 - t4} s")
    refined_claims = sum(len(fr.refined.pairs) for fr in run.frames)
    record = {
        "frames": len(frames),
        "failed_frames": len(failed),
        "problems": problems,
        "digest": digest,
        "pipeline_s": t5 - t4,
        "setup_s": t3 - t0,
        "match_s": t8 - t0,
        "peak_rss_mb": w["peak_kib"] / 1024.0,
        "claims": {stage: [c.total_cd, c.total_id] for stage, c in w["evals"].items()},
        "refined_claims": refined_claims,
        "sensor_frames": len(run.frames) * len(streams),
        "layers": {
            "fileio.read_s": (t1 - t0) + (t4 - t2),
            "fileio.rows_read": len(frames) + sum(len(s.samples) for s in streams),
            "fileio.write_s": (t6 - t5) + (t8 - t7),
            "model.validate_s": t2 - t1,
            "evaluation.evaluate_s": t7 - t6,
            "tracer.traces": len(run.traces),
            "tracer.entries_held": sum(len(t.entries) for t in run.traces.values()),
        },
    }
    if lt is not None:
        record["layers"].update(traced_layers(lt))
    return record


def traced_layers(lt: "layers.LayerTrace") -> dict:
    sizes = [(len({t for t, _ in w}), len({s for _, s in w})) for w in lt.raw_weights if w]
    frame_ms = [1e3 * (b - a) for a, b in zip(lt.frame_starts, lt.frame_starts[1:] + [lt.t1])]
    q = statistics.quantiles(frame_ms, n=100, method="inclusive")
    out = dict(lt.busy)
    out.update({
        "pipeline.self_s": lt.gap,
        "pipeline.frame_ms_p50": statistics.median(frame_ms),
        "pipeline.frame_ms_p99": q[98],
        "pairing.rows_mean": statistics.fmean(r for r, _ in sizes) if sizes else 0.0,
        "pairing.cols_mean": statistics.fmean(c for _, c in sizes) if sizes else 0.0,
        "similarity.pushes": lt.calls["similarity.push_s"],
        "similarity.pair_frames": lt.calls["similarity.advance_s"],
        "acc_features.samples": lt.samples,
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs")
    ap.add_argument("out")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    try:
        work = replay(args.inputs, args.out, args.trace)
    except Exception:  # the program failed this session: a finding, not a crash
        print(json.dumps({"raised": traceback.format_exc(limit=3)}))
        return 0
    if work["trace"] is not None and work["trace"].silent_layers():
        print("error: wrapped layers were never called: "
              + ", ".join(work["trace"].silent_layers()), file=sys.stderr)
        return EXIT_HARNESS
    print(json.dumps(assess(work, args.inputs, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
