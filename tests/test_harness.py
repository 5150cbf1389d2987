import json
import math
from pathlib import Path

import numpy as np
import pytest

from secuav.harness import (HarnessError, SweepSpec, dbm_to_watts,
                            derive_scenario, export_plan, load_scenario, main,
                            run_sweep, verify_suites)
from secuav.planner import run_best_effort, optimize
from secuav.scenario import (PowerSchedule, Trajectory, power_violations,
                             trajectory_violations)

from conftest import BENCHMARK_SCENARIO, make_scenario

TINY_DOC = {
    "altitude": 20.0,
    "flight_duration": 4.0,
    "slot_len": 0.5,
    "v_max": 10.0,
    "start_xy": [-15.0, -10.0],
    "end_xy": [15.0, -10.0],
    "avg_power": 1e-3,
    "peak_power": 4e-3,
    "gamma0_db": 60.0,
    "eves": [
        {"center_x": -10.0, "center_y": 4.0, "radius": 2.0},
        {"center_x": 10.0, "center_y": 4.0, "radius": 3.0},
    ],
    "epsilon": 1e-4,
    "max_iters": 50,
}


def write_tiny(tmp_path: Path) -> Path:
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_DOC))
    return path


class TestLoadScenario:
    def test_shipped_benchmark_file(self):
        scen = load_scenario(BENCHMARK_SCENARIO)
        assert scen.n_slots == 320
        assert scen.gamma0 == pytest.approx(1e8)
        assert scen.avg_power == pytest.approx(10.0**-3.5)
        assert scen.peak_power == pytest.approx(4.0 * 10.0**-3.5)
        assert len(scen.eves) == 2
        assert scen.eves[0].radius == 20.0 and scen.eves[1].radius == 80.0

    def test_gamma_db_conversion(self, tmp_path):
        doc = dict(TINY_DOC, gamma0_db=80.0)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert load_scenario(path).gamma0 == pytest.approx(1e8)

    def test_missing_eves_named(self, tmp_path):
        doc = {k: v for k, v in TINY_DOC.items() if k != "eves"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(HarnessError, match="eves"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(TINY_DOC, altitude_m=3.0)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(HarnessError, match="altitude_m"):
            load_scenario(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(HarnessError) as err:
            load_scenario(path)
        assert err.value.context.get("line") == 2

    def test_validation_violations_surfaced(self, tmp_path):
        doc = dict(TINY_DOC, peak_power=TINY_DOC["avg_power"])
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(HarnessError) as err:
            load_scenario(path)
        assert any("avg_power < peak_power" in v
                   for v in err.value.context["violations"])

    def test_dbm_helper(self):
        assert dbm_to_watts(-5.0) == pytest.approx(10.0**-3.5)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)


class TestExport:
    def test_trajectory_rows_include_endpoints(self, tmp_path):
        scen = make_scenario(flight_duration=1.5, n_slots=3)
        res = run_best_effort(scen)
        export_plan(res, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "slot,x_m,y_m"
        assert len(lines) == 1 + 5  # slots 0..4
        power_lines = (tmp_path / "power.csv").read_text().strip().splitlines()
        assert power_lines[0] == "slot,p_watt"
        assert len(power_lines) == 1 + 3

    def test_export_byte_identical(self, tmp_path):
        scen = make_scenario()
        res = optimize(scen)
        export_plan(res, tmp_path / "a")
        export_plan(res, tmp_path / "b")
        for name in ("trajectory.csv", "power.csv", "iterations.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_reload_satisfies_invariants(self, tmp_path):
        scen = make_scenario()
        res = optimize(scen)
        export_plan(res, tmp_path)
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()[1:]
        xs = np.array([float(r.split(",")[1]) for r in rows])
        ys = np.array([float(r.split(",")[2]) for r in rows])
        traj = Trajectory(xs=xs, ys=ys)
        assert trajectory_violations(traj, scen) == []
        prows = (tmp_path / "power.csv").read_text().strip().splitlines()[1:]
        p = PowerSchedule(np.array([float(r.split(",")[1]) for r in prows]))
        assert power_violations(p, scen) == []


class TestSweep:
    def test_empty_values_rejected(self):
        scen = make_scenario()
        with pytest.raises(HarnessError, match="at least one value"):
            SweepSpec(base=scen, param="T", values=(), algorithms=("robust",))

    def test_invalid_derived_scenario_rejected(self):
        scen = make_scenario()
        with pytest.raises(HarnessError, match="invalid"):
            # 0.3 s is not a multiple of the 0.5 s slot length
            SweepSpec(base=scen, param="T", values=(0.3,), algorithms=("robust",))

    def test_power_sweep_preserves_peak_ratio(self):
        scen = make_scenario()
        derived = derive_scenario(scen, "avg-power-dbm", 10.0)
        assert derived.avg_power == pytest.approx(1e-2)
        assert derived.peak_power / derived.avg_power == pytest.approx(
            scen.peak_power / scen.avg_power)

    def test_sweep_csv_schema_and_order(self, tmp_path):
        scen = make_scenario()
        spec = SweepSpec(base=scen, param="T", values=(6.0, 4.0),
                         algorithms=("best_effort",))
        target = run_sweep(spec, tmp_path)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "param,value,algorithm,secrecy_rate_bps_hz,iters,wall_ms"
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert values == sorted(values)
        assert all(l.split(",")[0] == "T" for l in lines[1:])
        assert not (tmp_path / ".sweep_parts").exists()


class TestCli:
    def test_optimize_roundtrip(self, tmp_path, capsys):
        scen_file = write_tiny(tmp_path)
        out = tmp_path / "out"
        code = main(["optimize", "--scenario", str(scen_file),
                     "--algorithm", "best-effort", "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == "best_effort"

    def test_cli_byte_determinism(self, tmp_path):
        scen_file = write_tiny(tmp_path)
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["optimize", "--scenario", str(scen_file),
                         "--algorithm", "robust", "--out", str(out)]) == 0
            outs.append(out)
        for name in ("trajectory.csv", "power.csv", "iterations.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert json.loads((outs[0] / "summary.json").read_text())["newton_steps"] > 0

    def test_sweep_cli(self, tmp_path):
        scen_file = write_tiny(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(scen_file), "--param", "T",
                     "--values", "4,6", "--algorithms", "best-effort,robust",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_missing_file_error_json(self, tmp_path, capsys):
        code = main(["optimize", "--scenario", str(tmp_path / "nope.json"),
                     "--algorithm", "robust", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "not found" in err["error"]

    @pytest.mark.parametrize("field, change", [
        ("altitude", dict(altitude="high")),
        ("eves[1].radius", dict(eves=[TINY_DOC["eves"][0],
                                      dict(TINY_DOC["eves"][1], radius=None)])),
        ("start_xy[0]", dict(start_xy=[True, -10.0])),
        ("max_iters", dict(max_iters=2.7)),
        ("max_iters", dict(max_iters=True)),
        ("gamma0_db", dict(gamma0_db=1e4)),
        ("gamma0 must be finite", dict(gamma0_db=math.inf)),
        ("v_max must be finite", dict(v_max=math.nan)),
        ("flight_duration", dict(flight_duration=math.inf)),
    ])
    def test_bad_field_error_json(self, tmp_path, capsys, field, change):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(TINY_DOC, **change)))
        code = main(["optimize", "--scenario", str(path),
                     "--algorithm", "robust", "--out", str(tmp_path / "o")])
        assert code == 2
        assert field in json.dumps(json.loads(capsys.readouterr().err))
        assert not (tmp_path / "o").exists()

    def test_verify_quick_exit_zero(self, capsys):
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok  ") == 4


class TestVerifySuites:
    def test_quick_all_pass(self):
        results = verify_suites("quick")
        assert all(ok for _, ok, _ in results)

    def test_unknown_level_rejected(self):
        with pytest.raises(HarnessError):
            verify_suites("nope")
