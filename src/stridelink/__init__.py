"""stridelink: pair walking persons seen on camera with the phones they carry.

Both a camera and a pocketed accelerometer observe the same gait: the
bounding-box height/width ratio and the acceleration magnitude each peak
once per step. The pipeline turns both signals into extremum sequences,
scores how well their rhythms align, and solves a one-to-one assignment
per frame, optionally smoothed over the pairing history.
"""

from .acc_features import (
    EmptyOverlap,
    FilterSpec,
    NyquistViolation,
    butter_sos,
    lowpass,
    magnitude,
    resample_to_frames,
    step_features,
)
from .evaluation import (
    EvalCounters,
    TsSweepRow,
    UndefinedRate,
    UnknownId,
    accumulate,
    derive_trace_truth,
    evaluate_run,
    ts_sweep,
)
from .model import (
    BoundingBox,
    DetectionFrame,
    GroundTruth,
    SensorStream,
    Timestamp,
    ValidationReport,
    validate_detection_log,
)
from .pairing import (
    Assignment,
    RefinedState,
    raw_pair,
    refined_pair,
    solve_matrix,
    update_rsim,
)
from .pipeline import FrameResult, MatchRun, PipelineParams, interpolate_gap, run_pipeline
from .similarity import (
    ExtremeStream,
    PairScorer,
    SensorRow,
    SimilarityMatrix,
    SimilarityParams,
    TernarySequence,
    detect_extremes,
    sim,
)
from .simulator import (
    ConfigError,
    PersonSpec,
    ScenarioConfig,
    ScenarioData,
    Xorshift64Star,
    generate,
)
from .tracer import Trace, TracerParams, Tracker, search_radius

__version__ = "0.1.0"
