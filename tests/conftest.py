import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings as hyp_settings

from secuav import harness
from secuav.scenario import Scenario, Trajectory

from arrowhead import psd_check_many, soc_feasible_many

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


def paper_fig2(flight_duration: float = 160.0) -> Scenario:
    """The shipped benchmark scenario at a flight duration, as ``secuav sweep`` derives it."""
    return harness.derive_scenario(harness.load_scenario(BENCHMARK_SCENARIO), "T", flight_duration)


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


@pytest.fixture(scope="session")
def psd_soc_sweep() -> tuple[int, float]:
    """One run of the PSD / rotated-cone agreement sweep over 100,000 random
    blocks, shared by c02 and the LMI unit test: (disagreements outside the
    boundary band, seconds)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 100_000
    a = 1.0 + rng.exponential(2.0, n)
    b = rng.normal(0.0, 30.0, n)
    c = rng.normal(0.0, 30.0, n)
    d = rng.normal(200.0, 500.0, n)
    near = np.abs(a * d - b**2 - c**2) <= 1e-9 * np.maximum.reduce(
        [np.ones(n), np.abs(a * d), b**2 + c**2])
    off = (psd_check_many(a, b, c, d) != soc_feasible_many(a, b, c, d)) & ~near
    return int(off.sum()), time.perf_counter() - t0


def record_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` through ``monkeypatch``; returns the list of the
    (args, result) pairs of its calls, in the order they return."""
    calls, inner = [], getattr(module, name)

    def recording(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recording)
    return calls


def hover_trajectory(scenario: Scenario, xy=(0.0, 0.0)) -> Trajectory:
    """All in-flight slots at one point; valid only if pins are within reach."""
    n = scenario.n_slots
    xs = np.full(n + 2, float(xy[0]))
    ys = np.full(n + 2, float(xy[1]))
    xs[0], ys[0] = scenario.start_xy
    xs[-1], ys[-1] = scenario.end_xy
    return Trajectory(xs=xs, ys=ys)
