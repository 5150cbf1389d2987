import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings as hyp_settings

from secuav import harness
from secuav.scenario import EveRegion, Scenario, Trajectory

hyp_settings.register_profile("det", derandomize=True)
hyp_settings.load_profile("det")

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_SCENARIO = REPO_ROOT / "scenarios" / "paper_fig2.json"

P_BAR_NEG5_DBM = 10.0 ** -3.5  # -5 dBm in watts


# The scenario file of ``harness._tiny_scenario`` (a gamma0 of 1e6 is 60 dB).
TINY_DOC = {
    "altitude": 20.0, "flight_duration": 4.0, "slot_len": 0.5, "v_max": 10.0,
    "start_xy": [-15.0, -10.0], "end_xy": [15.0, -10.0],
    "avg_power": 1e-3, "peak_power": 4e-3, "gamma0_db": 60.0,
    "eves": [{"center_x": -10.0, "center_y": 4.0, "radius": 2.0},
             {"center_x": 10.0, "center_y": 4.0, "radius": 3.0}],
    "epsilon": 1e-4, "max_iters": 50,
}


def write_tiny(tmp_path: Path, doc: dict = TINY_DOC) -> Path:
    """TINY_DOC, or a variant of it, as a scenario file."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def make_scenario(**overrides) -> Scenario:
    """The verify suites' small, fully-valid instance; fields can be
    overridden per test."""
    return dataclasses.replace(harness._tiny_scenario(), **overrides)


def benchmark_fields(flight_duration=160.0) -> dict:
    n = int(round(flight_duration / 0.5))
    return dict(
        altitude=100.0,
        flight_duration=flight_duration,
        slot_len=0.5,
        n_slots=n,
        v_max=10.0,
        start_xy=(-400.0, -200.0),
        end_xy=(400.0, -200.0),
        avg_power=P_BAR_NEG5_DBM,
        peak_power=4.0 * P_BAR_NEG5_DBM,
        gamma0=1e8,
        eves=(EveRegion(-200.0, 0.0, 20.0), EveRegion(200.0, 0.0, 80.0)),
        epsilon=1e-4,
        max_iters=200,
    )


@pytest.fixture()
def tiny_scenario() -> Scenario:
    return make_scenario()


@pytest.fixture(scope="session")
def full_verify() -> dict:
    """One run of each full-level ``secuav verify`` suite, shared by the
    acceptance criteria and the verify tests: name -> (passed, detail, seconds)."""
    results = {}
    for name, check, _, full in harness._VERIFY_SUITES:
        t0 = time.perf_counter()
        results[name] = (*check(*full), time.perf_counter() - t0)
    return results


def straight_line_trajectory(scenario: Scenario) -> Trajectory:
    n = scenario.n_slots
    f = np.linspace(0.0, 1.0, n + 2)
    xs = scenario.start_xy[0] + f * (scenario.end_xy[0] - scenario.start_xy[0])
    ys = scenario.start_xy[1] + f * (scenario.end_xy[1] - scenario.start_xy[1])
    return Trajectory(xs=xs, ys=ys)


def hover_trajectory(scenario: Scenario, xy=(0.0, 0.0)) -> Trajectory:
    """All in-flight slots at one point; valid only if pins are within reach."""
    n = scenario.n_slots
    xs = np.full(n + 2, float(xy[0]))
    ys = np.full(n + 2, float(xy[1]))
    xs[0], ys[0] = scenario.start_xy
    xs[-1], ys[-1] = scenario.end_xy
    return Trajectory(xs=xs, ys=ys)
