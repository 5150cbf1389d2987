"""Seeded inputs for the planner benchmark.

A workload is a tuple of ``SweepSpec``s that the benchmark hands to
``harness.run_sweep`` one after another; the same workload and seed always
give the same specs.

* ``fig2_sweep`` -- the paper's 10-point flight-duration sweep (T = 80 ... 170 s)
  with the robust, non-robust and best-effort planners: 30 plans.
* ``fine_slots`` -- one robust plan at T = 160 s with 0.1 s slots (N = 1600).
* ``many_eves`` -- robust plans at T = 160 s (N = 320) on layouts of eight
  random disks, one single-point sweep per layout.

``fig2_sweep`` runs the shipped ``paper_fig2`` scenario for every seed.  Its
jittered variants hit the barrier solver's centering cap (1000 Newton steps
per stage) on a seed-dependent handful of points, even at 0.2 % jitter, so the
sweep's work varied by up to 45 % between seeds and its plans per second could
not be held within any bound; ``fine_slots`` hits that cap on every seed.
Seed 0 of ``fine_slots`` is ``paper_fig2`` with 0.1 s slots; other seeds move
each disk centre by up to 2 % of its distance from the receiver in each
coordinate and scale each radius by up to 2 %.  ``many_eves`` draws centres
uniformly over x in [-350, 350] m and y in [-150, 250] m and radii uniformly
over 5 ... 80 m.  Every generator drops only draws that ``validate()``
rejects; it never looks at how the planner does on a draw.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from secuav.harness import SweepSpec
from secuav.planner import BEST_EFFORT, NON_ROBUST, ROBUST
from secuav.scenario import EveRegion, Scenario, slot_count, validate

WORKLOADS = ("fig2_sweep", "fine_slots", "many_eves")

# scenarios/paper_fig2.json, kept here so that the benchmark's inputs stay
# fixed even if the shipped file changes (a test checks they agree)
_PAPER_FIG2 = dict(
    altitude=100.0, flight_duration=160.0, slot_len=0.5, v_max=10.0,
    start_xy=(-400.0, -200.0), end_xy=(400.0, -200.0),
    avg_power=3.1622776601683794e-04, peak_power=1.2649110640673518e-03,
    gamma0=10.0 ** (80.0 / 10.0),
    eves=(EveRegion(-200.0, 0.0, 20.0), EveRegion(200.0, 0.0, 80.0)),
    epsilon=1.0e-4, max_iters=200,
)

FIG2_T_VALUES = tuple(float(t) for t in range(80, 171, 10))
FINE_SLOT_LEN = 0.1
PLAN_T = 160.0
JITTER = 0.02
MANY_EVES_LAYOUTS = 8
MANY_EVES_DISKS = 8
MANY_EVES_X = (-350.0, 350.0)
MANY_EVES_Y = (-150.0, 250.0)
MANY_EVES_RADIUS = (5.0, 80.0)


def paper_fig2(**overrides) -> Scenario:
    """The shipped paper_fig2 scenario, with fields optionally replaced."""
    fields = {**_PAPER_FIG2, **overrides}
    fields["n_slots"] = slot_count(fields["flight_duration"], fields["slot_len"])
    return Scenario(**fields)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _jittered(base: Scenario, rng: np.random.Generator, seed: int) -> Scenario:
    if seed == 0:
        return base
    while True:
        eves = []
        for eve in base.eves:
            reach = JITTER * float(np.hypot(eve.center_x, eve.center_y))
            dx, dy, dr = rng.uniform(-1.0, 1.0, 3)
            eves.append(EveRegion(center_x=eve.center_x + reach * dx,
                                  center_y=eve.center_y + reach * dy,
                                  radius=eve.radius * (1.0 + JITTER * dr)))
        scenario = dataclasses.replace(base, eves=tuple(eves))
        if not validate(scenario):
            return scenario


def _random_layout(base: Scenario, rng: np.random.Generator) -> Scenario:
    while True:
        eves = tuple(EveRegion(center_x=float(rng.uniform(*MANY_EVES_X)),
                               center_y=float(rng.uniform(*MANY_EVES_Y)),
                               radius=float(rng.uniform(*MANY_EVES_RADIUS)))
                     for _ in range(MANY_EVES_DISKS))
        scenario = dataclasses.replace(base, eves=eves)
        if not validate(scenario):
            return scenario


def generate(workload: str, seed: int) -> tuple[SweepSpec, ...]:
    """The sweeps of one workload; SweepSpec validates every derived scenario."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    if workload == "fig2_sweep":
        return (SweepSpec(base=paper_fig2(), param="T", values=FIG2_T_VALUES,
                          algorithms=(ROBUST, NON_ROBUST, BEST_EFFORT)),)
    if workload == "fine_slots":
        base = _jittered(paper_fig2(slot_len=FINE_SLOT_LEN), rng, seed)
        return (SweepSpec(base=base, param="T", values=(PLAN_T,),
                          algorithms=(ROBUST,)),)
    return tuple(SweepSpec(base=_random_layout(paper_fig2(), rng), param="T",
                           values=(PLAN_T,), algorithms=(ROBUST,))
                 for _ in range(MANY_EVES_LAYOUTS))


def warmup() -> SweepSpec:
    """One outer iteration on eight slots per planner, to load every code path
    before timing starts."""
    tiny = Scenario(altitude=20.0, flight_duration=4.0, slot_len=0.5, n_slots=8,
                    v_max=10.0, start_xy=(-15.0, -10.0), end_xy=(15.0, -10.0),
                    avg_power=1e-3, peak_power=4e-3, gamma0=1e6,
                    eves=(EveRegion(-10.0, 4.0, 2.0), EveRegion(10.0, 4.0, 3.0)),
                    epsilon=1e-4, max_iters=1)
    return SweepSpec(base=tiny, param="T", values=(4.0,),
                     algorithms=(ROBUST, NON_ROBUST, BEST_EFFORT))
