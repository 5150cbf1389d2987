"""Configuration ingestion, experiment sweeps, result export, CLI.

Scenario files are JSON with snake_case keys matching the Scenario fields,
except that the reference SNR is given in dB under ``gamma0_db`` and the slot
count is derived from ``flight_duration``/``slot_len``.  Results are flat CSV
files; all floats are rendered with 12 significant digits and runs are
byte-reproducible (wall-clock times are reported in summary.json only, the
CSV wall_ms columns are fixed at 0 to keep outputs deterministic).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import convex_backend, geometry, planner, power_alloc, trajectory_sca
from .geometry import LN2
from .planner import (BEST_EFFORT, NON_ROBUST, ROBUST, PlanResult,
                      optimize, optimize_non_robust, run_best_effort)
from .scenario import EveRegion, Scenario, Trajectory, slot_count, validate

_SCENARIO_KEYS = {
    "altitude", "flight_duration", "slot_len", "v_max", "start_xy", "end_xy",
    "avg_power", "peak_power", "gamma0_db", "eves", "epsilon", "max_iters",
}
_REQUIRED_KEYS = _SCENARIO_KEYS - {"max_iters"}
_NUMBER_KEYS = ("altitude", "flight_duration", "slot_len", "v_max", "avg_power",
                "peak_power", "gamma0_db", "epsilon")
_EVE_KEYS = ("center_x", "center_y", "radius")

_CLI_ALGORITHMS = {"robust": ROBUST, "non-robust": NON_ROBUST, "best-effort": BEST_EFFORT}
_SWEEP_PARAMS = ("T", "avg-power-dbm")


class HarnessError(Exception):
    """User-facing failure with a machine-readable payload."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def payload(self) -> dict:
        return {"error": str(self), **({"context": self.context} if self.context else {})}


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


# --------------------------------------------------------------------------
# scenario loading
# --------------------------------------------------------------------------

def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; unknown or missing keys are errors."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, NotADirectoryError) as e:
        raise HarnessError(f"scenario file not found: {path}") from e
    except OSError as e:
        raise HarnessError(f"cannot read scenario file: {e.strerror}", file=str(path)) from e
    except UnicodeDecodeError as e:
        raise HarnessError("scenario file is not UTF-8 text", file=str(path)) from e
    except json.JSONDecodeError as e:
        raise HarnessError(f"scenario parse error: {e.msg}", file=str(path),
                           line=e.lineno, column=e.colno) from e
    if not isinstance(doc, dict):
        raise HarnessError("scenario file must contain a JSON object", file=str(path))
    unknown = sorted(set(doc) - _SCENARIO_KEYS)
    if unknown:
        raise HarnessError(f"unknown field(s): {', '.join(unknown)}", file=str(path))
    missing = sorted(_REQUIRED_KEYS - set(doc))
    if missing:
        raise HarnessError(f"missing field(s): {', '.join(missing)}", file=str(path))

    def number(value, field: str) -> float:
        """A JSON number as a float; NaN and Infinity pass on to validate()."""
        try:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
        except OverflowError:
            pass
        raise HarnessError(f"field '{field}' must be a number (got {value!r})",
                           file=str(path), field=field)

    nums = {key: number(doc[key], key) for key in _NUMBER_KEYS}
    if not isinstance(doc["eves"], list) or not doc["eves"]:
        raise HarnessError("field 'eves' must be a non-empty list", file=str(path))
    eves = []
    for i, entry in enumerate(doc["eves"]):
        if not isinstance(entry, dict) or set(entry) != set(_EVE_KEYS):
            raise HarnessError(
                f"eves[{i}] must have exactly the fields center_x, center_y, radius",
                file=str(path))
        eves.append(EveRegion(*(number(entry[k], f"eves[{i}].{k}") for k in _EVE_KEYS)))
    pins = {}
    for key in ("start_xy", "end_xy"):
        if not (isinstance(doc[key], list) and len(doc[key]) == 2):
            raise HarnessError(f"field '{key}' must be a 2-element array", file=str(path))
        pins[key] = tuple(number(c, f"{key}[{i}]") for i, c in enumerate(doc[key]))
    iters = {"max_iters": doc["max_iters"]} if "max_iters" in doc else {}  # absent: the default
    if any(isinstance(v, bool) or not isinstance(v, int) for v in iters.values()):
        raise HarnessError(f"field 'max_iters' must be an integer (got {doc['max_iters']!r})",
                           file=str(path), field="max_iters")
    try:
        gamma0 = 10.0 ** (nums.pop("gamma0_db") / 10.0)
    except OverflowError as e:
        raise HarnessError("field 'gamma0_db' is out of range", file=str(path),
                           field="gamma0_db") from e
    try:
        n = slot_count(nums["flight_duration"], nums["slot_len"])
    except ValueError as e:
        raise HarnessError(str(e), file=str(path), field="flight_duration") from e
    scenario = Scenario(n_slots=n, gamma0=gamma0, eves=tuple(eves),
                        **iters, **nums, **pins)
    violations = validate(scenario)
    if violations:
        raise HarnessError("scenario validation failed", file=str(path),
                           violations=violations)
    return scenario


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    param: str                       # "T" | "avg-power-dbm"
    values: tuple[float, ...]
    algorithms: tuple[str, ...]      # subset of {robust, non_robust, best_effort}

    def __post_init__(self):
        if self.param not in _SWEEP_PARAMS:
            raise HarnessError(f"unknown sweep parameter '{self.param}'")
        if not self.values:
            raise HarnessError("sweep needs at least one value")
        bad = [a for a in self.algorithms
               if a not in (ROBUST, NON_ROBUST, BEST_EFFORT)]
        if bad or not self.algorithms:
            raise HarnessError(f"bad algorithm selection: {bad}")
        for v in self.values:
            try:
                derived = derive_scenario(self.base, self.param, v)
                violations = validate(derived)
            except ValueError as e:
                raise HarnessError(f"derived scenario for {self.param}={v} invalid",
                                   violations=[str(e)]) from e
            except OverflowError as e:
                raise HarnessError(f"sweep value {self.param}={v} is out of range") from e
            if violations:
                raise HarnessError(f"derived scenario for {self.param}={v} invalid",
                                   violations=violations)


def derive_scenario(base: Scenario, param: str, value: float) -> Scenario:
    if param == "T":
        return dataclasses.replace(
            base, flight_duration=float(value),
            n_slots=slot_count(float(value), base.slot_len))
    if param == "avg-power-dbm":
        watts = dbm_to_watts(float(value))
        ratio = base.peak_power / base.avg_power
        return dataclasses.replace(base, avg_power=watts, peak_power=ratio * watts)
    raise HarnessError(f"unknown sweep parameter '{param}'")


def _run_algorithm(tag: str, scenario: Scenario) -> PlanResult:
    """The planner of one algorithm tag, looked up by name at call time."""
    if tag == ROBUST:
        return optimize(scenario)
    if tag == NON_ROBUST:
        return optimize_non_robust(scenario)
    return run_best_effort(scenario)


def run_sweep(spec: SweepSpec, out_dir) -> Path:
    """Run every (value, algorithm) point in turn and write sweep.csv."""
    out_dir = _make_out_dir(out_dir)
    rows = []
    for value in sorted(spec.values):
        scenario = derive_scenario(spec.base, spec.param, value)
        for tag in sorted(spec.algorithms):
            result = _run_algorithm(tag, scenario)
            iters = max(len(result.iterations) - 1, 0)
            rows.append(f"{spec.param},{_fmt(value)},{tag},"
                        f"{_fmt(result.secrecy_rate)},{iters},0\n")
    body = "param,value,algorithm,secrecy_rate_bps_hz,iters,wall_ms\n" + "".join(rows)
    target = out_dir / "sweep.csv"
    _atomic_write(target, body)
    return target


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    return format(float(x), ".12g")


def _make_out_dir(out_dir) -> Path:
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # an existing file, or a path under one
        raise HarnessError(f"cannot create output directory: {e.strerror}",
                           out=str(out_dir)) from e
    return out_dir


def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as e:  # e.g. an output name that is a directory
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise HarnessError(f"cannot write output file: {e.strerror}",
                           file=str(path)) from e


def export_plan(result: PlanResult, out_dir, wall_s: float | None = None) -> list[Path]:
    out_dir = _make_out_dir(out_dir)
    traj = result.trajectory
    lines = ["slot,x_m,y_m"]
    lines += [f"{i},{_fmt(x)},{_fmt(y)}" for i, (x, y) in
              enumerate(zip(traj.xs, traj.ys))]
    _atomic_write(out_dir / "trajectory.csv", "\n".join(lines) + "\n")

    lines = ["slot,p_watt"]
    lines += [f"{i + 1},{_fmt(p)}" for i, p in enumerate(result.powers.p)]
    _atomic_write(out_dir / "power.csv", "\n".join(lines) + "\n")

    lines = ["iter,objective,status,wall_ms"]
    lines += [f"{r.iteration},{_fmt(r.objective)},{r.status},0"
              for r in result.iterations]
    _atomic_write(out_dir / "iterations.csv", "\n".join(lines) + "\n")

    max_kkt = max((r.solve.kkt_residual for r in result.iterations if r.solve), default=0.0)
    summary = {
        "algorithm": result.algorithm,
        "secrecy_rate_bps_hz": result.secrecy_rate,
        "converged": result.converged,
        "iterations": max(len(result.iterations) - 1, 0),
        "newton_steps": sum(r.solve.newton_iters for r in result.iterations if r.solve),
        "power_iters": sum(r.dual.iterations for r in result.iterations if r.dual),
        "warm_starts": sum(r.solve.warm_start for r in result.iterations if r.solve),
        # null when a solve had no interior start (an infinite residual)
        "max_kkt_residual": max_kkt if math.isfinite(max_kkt) else None,
        "wall_s": wall_s,
    }
    _atomic_write(out_dir / "summary.json", json.dumps(summary, indent=2,
                                                       sort_keys=True) + "\n")
    return [out_dir / n for n in
            ("trajectory.csv", "power.csv", "iterations.csv", "summary.json")]


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------

def _tiny_scenario() -> Scenario:
    return Scenario(
        altitude=20.0, flight_duration=4.0, slot_len=0.5, n_slots=8,
        v_max=10.0, start_xy=(-15.0, -10.0), end_xy=(15.0, -10.0),
        avg_power=1e-3, peak_power=4e-3, gamma0=1e6,
        eves=(EveRegion(-10.0, 4.0, 2.0), EveRegion(10.0, 4.0, 3.0)),
        epsilon=1e-4, max_iters=50,
    )


def _check_theta_oracle(n_pairs: int, n_samples: int, seed: int):
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    for i in range(n_pairs):
        eve = EveRegion(center_x=float(rng.uniform(-300, 300)),
                        center_y=float(rng.uniform(-300, 300)),
                        radius=float(rng.uniform(0, 100)))
        uav = (float(rng.uniform(-400, 400)), float(rng.uniform(-400, 400)))
        closed = geometry.worst_case_dist_sq(uav, eve, 100.0)
        sampled = geometry.worst_case_dist_sq_oracle(uav, eve, 100.0, n_samples, seed + i)
        if sampled < closed:
            return False, f"sampled {sampled} below closed form {closed}"
        worst_gap = max(worst_gap, (sampled - closed) / closed)
    ok = worst_gap <= 5e-3
    return ok, f"worst relative oracle gap {worst_gap:.2e} over {n_pairs} pairs"


def _huber_margin_draw(n_slots: int, seed: int):
    """A random track, 8 random disks (two of them points) and a random shift
    per slot, for the huber-margin suite."""
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(-300.0, 300.0, (2, n_slots + 2))
    radii = np.r_[0.0, 0.0, rng.uniform(5.0, 100.0, 6)]
    eves = tuple(EveRegion(*map(float, e)) for e in
                 zip(*rng.uniform(-300.0, 300.0, (2, 8)), radii))
    scen = dataclasses.replace(
        _tiny_scenario(), altitude=100.0, flight_duration=float(n_slots), slot_len=1.0,
        n_slots=n_slots, v_max=1000.0, start_xy=(xs[0], ys[0]), end_xy=(xs[-1], ys[-1]),
        eves=eves)
    shift = rng.normal(0.0, 1.0, (2, n_slots)) * 10.0 ** rng.uniform(-3.0, 2.0, n_slots)
    return scen, Trajectory(xs, ys), shift


def _check_huber_margin(n_slots: int, seed: int):
    """The solver's disk rows at t = 0 against the closed-form worst case:
    equal at the expansion point, never above it elsewhere."""
    scen, traj, shift = _huber_margin_draw(n_slots, seed)
    prog = trajectory_sca.assemble(traj, planner.equal_power(scen), scen)
    ws = convex_backend._Workspace(prog)  # the margin the solver itself uses
    x, y = traj.slot_positions()
    errs = []
    for qx, qy in ((x, y), (x + shift[0], y + shift[1])):
        rows = ws.table(np.stack((qx, qy, np.zeros(n_slots)))).m[ws.disks]
        theta = np.stack([geometry.worst_case_dist_sq((qx, qy), e, scen.altitude)
                          for e in scen.eves])
        errs.append((rows.reshape(-1, n_slots) - theta) / theta)
    at_fea, above = float(np.abs(errs[0]).max()), float(errs[1].max())
    detail = (f"{errs[0].size} disk rows: relative error {at_fea:.1e} at the "
              f"expansion point, {above:.1e} worst excess at shifted points")
    return at_fea <= 1e-9 and above <= 1e-9, detail


def _grid_power_oracle(alpha: float, beta: float, lam: float, peak: float,
                       n_grid: int) -> float:
    """Derivative-free maximizer of the per-slot dualized rate difference."""
    grid = np.linspace(0.0, peak, n_grid)
    vals = (np.log1p(alpha * grid) - np.log1p(beta * grid)) / LN2 - lam * grid
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, n_grid - 1)]

    def f(p):
        return (math.log1p(alpha * p) - math.log1p(beta * p)) / LN2 - lam * p

    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def _check_power_alloc(n_instances: int, n_grid: int, seed: int):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(1, 17))
        alpha = 10.0 ** rng.uniform(2, 6, n)
        beta = 10.0 ** rng.uniform(2, 6, n)
        p_bar = 10.0 ** rng.uniform(-5, -2)
        peak = p_bar * rng.uniform(1.5, 6.0)
        dual = power_alloc.solve_power_subproblem(alpha, beta, p_bar, peak)
        p = dual.schedule.p
        if p.mean() > p_bar * (1 + 1e-9):
            return False, "average power budget violated"
        if dual.lam > 1e-12 and abs(p.mean() - p_bar) > 1e-9 * p_bar:
            return False, "complementary slackness violated"
        for i in range(n):
            ref = _grid_power_oracle(alpha[i], beta[i], dual.lam, peak, n_grid)
            worst = max(worst, abs(p[i] - ref) / peak)
    return worst <= 1e-6, f"worst per-slot gap {worst:.2e} of peak over {n_instances} instances"


def _check_sca_monotone(n_steps: int):
    scen = _tiny_scenario()
    traj = planner.best_effort_trajectory(scen)
    powers = planner.equal_power(scen)
    prev = geometry.secrecy_sum(traj, powers, scen)
    warm = None  # each step starts from the previous step's hand-off, as in optimize
    for _ in range(n_steps):
        sol = trajectory_sca.solve_step(traj, powers, scen, warm)
        if sol.status == "numerical_trouble":
            return False, "trajectory step reported numerical trouble"
        if sol.true_objective < prev - 1e-6:
            return False, f"objective decreased {prev} -> {sol.true_objective}"
        if np.any(trajectory_sca.initialize_slacks(sol.trajectory, scen) < sol.solve.t - 1e-6):
            return False, "robust distance requirement violated after a step"
        prev = sol.true_objective
        traj, warm = sol.trajectory, sol.handoff
    return True, f"objective non-decreasing over {n_steps} steps (final {prev:.6f})"


# name, check, quick arguments, full arguments
_VERIFY_SUITES = (
    ("theta-oracle", _check_theta_oracle, (100, 2000, 20260809), (1000, 10_000, 20260809)),
    ("huber-margin", _check_huber_margin, (2_000, 7), (50_000, 7)),
    ("power-grid", _check_power_alloc, (10, 10_000, 11), (100, 100_000, 11)),
    ("sca-monotone", _check_sca_monotone, (3,), (10,)),
)


def verify_suites(level: str):
    """Oracle suites; returns a list of (name, passed, detail)."""
    if level not in ("quick", "full"):
        raise HarnessError(f"unknown verify level '{level}'")
    return [(name, *check(*(quick if level == "quick" else full)))
            for name, check, quick, full in _VERIFY_SUITES]


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def _cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    tag = _CLI_ALGORITHMS[args.algorithm]
    _make_out_dir(args.out)
    t0 = time.perf_counter()
    result = _run_algorithm(tag, scenario)
    export_plan(result, args.out, wall_s=time.perf_counter() - t0)
    print(f"{tag}: secrecy rate {result.secrecy_rate:.6f} bps/Hz "
          f"({max(len(result.iterations) - 1, 0)} iterations) -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError as e:
        raise HarnessError(f"bad --values list: {e}") from e
    tags = []
    for name in args.algorithms.split(","):
        name = name.strip()
        if name not in _CLI_ALGORITHMS:
            raise HarnessError(f"unknown algorithm '{name}'")
        tags.append(_CLI_ALGORITHMS[name])
    spec = SweepSpec(base=scenario, param=args.param, values=values,
                     algorithms=tuple(tags))
    target = run_sweep(spec, args.out)
    print(f"sweep over {args.param} ({len(values)} values x {len(tags)} algorithms) "
          f"-> {target}")
    return 0


def _cmd_verify(args) -> int:
    results = verify_suites(args.level)
    failed = [(n, d) for n, ok, d in results if not ok]
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        print(json.dumps({"error": "verification failed",
                          "context": {"failures": dict(failed)}}), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="secuav",
        description="Robust trajectory and transmit-power planning for "
                    "worst-case secrecy rate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run one algorithm on one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--algorithm", required=True, choices=sorted(_CLI_ALGORITHMS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="sweep flight duration or average power")
    p.add_argument("--scenario", required=True)
    p.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--algorithms", default="robust,non-robust,best-effort")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle verification suites")
    p.add_argument("--level", default="quick", choices=("quick", "full"))
    p.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HarnessError as e:
        print(json.dumps(e.payload()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
