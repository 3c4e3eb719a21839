import pytest

from stridelink.pipeline import PipelineParams, run_pipeline
from stridelink.simulator import PersonSpec, ScenarioConfig, generate

# Three walkers with clearly separated cadences and paths, the package's
# reference scenario for end-to-end checks.
SEPARABLE = ScenarioConfig(
    persons=(
        PersonSpec("p0", 0.8, phase=0.0, path=((50.0, 80.0), (590.0, 80.0))),
        PersonSpec("p1", 1.0, phase=2.1, path=((50.0, 240.0), (590.0, 240.0))),
        PersonSpec("p2", 1.2, phase=4.2, path=((50.0, 400.0), (590.0, 400.0))),
    ),
    duration=2000 / 30.0,
    seed=11,
)


def two_person_config(seed: int = 11, f0: float = 0.9, f1: float = 1.2,
                      duration: float = 2000 / 30.0, **kw) -> ScenarioConfig:
    return ScenarioConfig(
        persons=(
            PersonSpec("p0", f0, phase=0.0, path=((50.0, 100.0), (590.0, 100.0))),
            PersonSpec("p1", f1, phase=2.5, path=((50.0, 380.0), (590.0, 380.0))),
        ),
        duration=duration,
        seed=seed,
        **kw,
    )


def fragmenting_scene():
    """Six walkers in 60 px boxes with dropouts, for 240 frames: traces
    fragment, so they are born late and die early."""
    persons = tuple(
        PersonSpec(f"p{k}", 0.6 + 0.3 * k, phase=0.7 * k, box_height=60.0,
                   path=((50.0, 60.0 + 70.0 * k), (590.0, 60.0 + 70.0 * k)))
        for k in range(6)
    )
    return generate(ScenarioConfig(persons=persons, duration=240 / 30.0, dropout_prob=0.1, seed=5))


@pytest.fixture(scope="session")
def separable_data():
    return generate(SEPARABLE)


@pytest.fixture(scope="session")
def separable_run(separable_data):
    return run_pipeline(separable_data.frames, separable_data.streams,
                        PipelineParams(ts_gate=2.0))
