"""The benchmark's workloads: simulator scenes written out as `match` inputs.

A workload is a kind of walking scene for the package's own simulator
and a number of scenes per round. Scene j of seed s is simulated with
seed 1000 * s + j. Its files (detections.jsonl, sensors/<id>.csv,
truth.json) are written with the package's fileio writers, so the
program under test only ever sees files. A scene's directory is
complete once meta.json exists: it is written last, and a directory
without it is generated again.

Several short scenes rather than one long one: on crowded scenes R_cd
hangs on pairing decisions that persist for the whole session, and the
pairing cost on how often the canonical solver has to re-solve, so a
run's figures settle only when they pool independent sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

from stridelink import PersonSpec, ScenarioConfig, fileio, generate, model, simulator

FPS = 30.0
ACC_RATE = 100.0
PATH_X = (50.0, 590.0)
JITTER = 2.0    # detector noise on box centre and size, px
DROPOUT = 0.02  # chance a walker's box is missing from a frame


@dataclass(frozen=True)
class Workload:
    name: str
    walkers: int
    frames: int
    box_height: float
    speed: float | None  # px per frame back and forth; None crosses once
    scenes: int          # sessions per round, each on its own scene
    expect: str          # "identify": every sensor ends on its walker;
                         # "above_chance": R_cd at least twice 1/walkers

    def persons(self) -> tuple[PersonSpec, ...]:
        n = self.walkers
        if n == 2:
            # The pair from the package README: far apart in cadence and row.
            rows = ((0.9, 0.0, 100.0), (1.3, 2.5, 380.0))
        else:
            # The scaling layout: walker k strides at 0.6 + 1.8k/n Hz with
            # phase 0.7k, on its own row at y = 60 + 400k/n.
            rows = tuple((0.6 + 1.8 * k / n, 0.7 * k, 60.0 + 400.0 * k / n) for k in range(n))
        return tuple(
            PersonSpec(f"p{k:02d}", stride, phase=phase, path=self._path(y),
                       box_height=self.box_height)
            for k, (stride, phase, y) in enumerate(rows)
        )

    def _path(self, y: float) -> tuple[tuple[float, float], ...]:
        x0, x1 = PATH_X
        if self.speed is None:
            return ((x0, y), (x1, y))
        legs = max(1, round(self.speed * self.frames / (x1 - x0)))
        return tuple(((x0, y), (x1, y))[k % 2] for k in range(legs + 1))

    def scenario(self, seed: int, scene: int) -> ScenarioConfig:
        return ScenarioConfig(
            persons=self.persons(), duration=self.frames / FPS, fps=FPS,
            acc_rate=ACC_RATE, box_noise=JITTER, dropout_prob=DROPOUT,
            seed=1000 * seed + scene,
        )


# Why each workload is in the benchmark: see README.md.
WORKLOADS = {w.name: w for w in (
    Workload("crowd16", walkers=16, frames=1000, box_height=180.0,
             speed=None, scenes=6, expect="above_chance"),
    Workload("long_walk", walkers=2, frames=18000, box_height=180.0,
             speed=0.9, scenes=1, expect="identify"),
    Workload("small_boxes", walkers=8, frames=1000, box_height=60.0,
             speed=1.08, scenes=6, expect="above_chance"),
)}


def ensure_inputs(workload: Workload, seed: int, root: str) -> list[tuple[str, dict]]:
    """Directory and meta.json contents of each scene for this seed,
    generating the scenes that are absent."""
    # The directory name carries a digest of the definition and of the
    # sources that make the files (this module, the package's simulator
    # and its writers), so files made by an earlier version of any of
    # them are never mistaken for these.
    digest = hashlib.sha256(repr(workload).encode())
    for path in (__file__, simulator.__file__, model.__file__, fileio.__file__):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    tag = digest.hexdigest()[:10]
    scenes = []
    for scene in range(workload.scenes):
        base = os.path.join(root, f"{workload.name}-{tag}-{seed}", str(scene))
        meta_path = os.path.join(base, "meta.json")
        if not os.path.exists(meta_path):
            _generate(workload, seed, scene, base)
        with open(meta_path, "r", encoding="utf-8") as fh:
            scenes.append((base, json.load(fh)))
    return scenes


def _generate(workload: Workload, seed: int, scene: int, base: str) -> None:
    shutil.rmtree(base, ignore_errors=True)
    data = generate(workload.scenario(seed, scene))
    sensors = os.path.join(base, "sensors")
    os.makedirs(sensors)
    fileio.write_detections(os.path.join(base, "detections.jsonl"), data.frames)
    for stream in data.streams:
        fileio.write_sensor_csv(os.path.join(sensors, f"{stream.sensor_id}.csv"), stream)
    fileio.write_truth(os.path.join(base, "truth.json"), data.sensor_owners, data.box_owners)
    meta = {"workload": workload.name, "seed": seed, "scene": scene,
            "walkers": workload.walkers, "frames": len(data.frames), "expect": workload.expect}
    meta_path = os.path.join(base, "meta.json")
    with open(meta_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    os.replace(meta_path + ".tmp", meta_path)
