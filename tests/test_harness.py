import dataclasses
import json
import math

import numpy as np
import pytest

from secuav import convex_backend, geometry, harness, power_alloc, trajectory_sca
from secuav.harness import (_VERIFY_SUITES, HarnessError, SweepSpec,
                            _check_huber_margin, _huber_margin_draw, dbm_to_watts,
                            derive_scenario, export_plan, load_scenario, main,
                            plan_summary, run_sweep, verify_suites)
from secuav.planner import run_best_effort, optimize
from secuav.scenario import (PowerSchedule, Scenario, Trajectory, power_violations,
                             trajectory_violations, validate)

from conftest import BENCHMARK_SCENARIO, TINY_DOC, make_scenario, write_tiny


class TestLoadScenario:
    def test_shipped_benchmark_file(self):
        scen = load_scenario(BENCHMARK_SCENARIO)
        assert scen.n_slots == 320
        # exactly the floats of -5 dBm, a 4x peak and 80 dB
        assert (scen.avg_power, scen.peak_power) == (10.0**-3.5, 4.0 * 10.0**-3.5)
        assert scen.gamma0 == 1e8
        assert len(scen.eves) == 2
        assert scen.eves[0].radius == 20.0 and scen.eves[1].radius == 80.0

    def test_tiny_doc_is_the_tiny_scenario(self, tmp_path):
        assert load_scenario(write_tiny(tmp_path)) == make_scenario()

    def test_max_iters_defaults_to_the_scenario_field(self, tmp_path):
        path = write_tiny(tmp_path, {k: v for k, v in TINY_DOC.items() if k != "max_iters"})
        default = next(f.default for f in dataclasses.fields(Scenario) if f.name == "max_iters")
        assert load_scenario(path).max_iters == default

    def test_gamma_db_conversion(self, tmp_path):
        path = write_tiny(tmp_path, dict(TINY_DOC, gamma0_db=80.0))
        assert load_scenario(path).gamma0 == pytest.approx(1e8)

    def test_missing_eves_named(self, tmp_path):
        path = write_tiny(tmp_path, {k: v for k, v in TINY_DOC.items() if k != "eves"})
        with pytest.raises(HarnessError, match="eves"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_tiny(tmp_path, dict(TINY_DOC, altitude_m=3.0))
        with pytest.raises(HarnessError, match="altitude_m"):
            load_scenario(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(HarnessError) as err:
            load_scenario(path)
        assert err.value.context.get("line") == 2

    def test_validation_violations_surfaced(self, tmp_path):
        path = write_tiny(tmp_path, dict(TINY_DOC, peak_power=TINY_DOC["avg_power"]))
        with pytest.raises(HarnessError) as err:
            load_scenario(path)
        assert any("avg_power < peak_power" in v
                   for v in err.value.context["violations"])

    def test_dbm_helper(self):
        assert dbm_to_watts(-5.0) == pytest.approx(10.0**-3.5)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)


class TestExport:
    def test_trajectory_rows_include_endpoints(self, tmp_path):
        # 4 steps of 10 m reach the end pin 30 m away
        scen = make_scenario(flight_duration=1.5, n_slots=3, v_max=20.0)
        assert validate(scen) == []
        res = run_best_effort(scen)
        export_plan(res, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "slot,x_m,y_m"
        assert len(lines) == 1 + 5  # slots 0..4
        power_lines = (tmp_path / "power.csv").read_text().strip().splitlines()
        assert power_lines[0] == "slot,p_watt"
        assert len(power_lines) == 1 + 3

    def test_no_interior_start_is_a_null_kkt_residual(self, tmp_path, monkeypatch):
        monkeypatch.setattr(convex_backend, "_interior_start", lambda ws: None)
        res = optimize(make_scenario())
        assert [(r.status, r.solve.newton_iters) for r in res.iterations[1:]] == [
            ("numerical_trouble", 0)]
        assert plan_summary(res)["max_kkt_residual"] is None
        export_plan(res, tmp_path)
        summary = (tmp_path / "summary.json").read_text()
        assert '"max_kkt_residual": null' in summary and "Infinity" not in summary

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

    @pytest.mark.parametrize("change, message", [
        (dict(param="H"), "unknown sweep parameter 'H'"),
        (dict(algorithms=("fast",)), "bad algorithm selection: ['fast']"),
        (dict(algorithms=()), "bad algorithm selection: []"),
        (["--values", "4,x"], "bad --values list: could not convert string to float: 'x'"),
        (["--values", "4", "--algorithms", "robust,fast"], "unknown algorithm 'fast'"),
    ], ids=["spec-param", "spec-tag", "spec-no-tags", "cli-values", "cli-algorithm"])
    def test_bad_sweep_arguments_rejected(self, tmp_path, capsys, change, message):
        """SweepSpec raises; the CLI exits 2 with the JSON error and makes no --out."""
        if isinstance(change, dict):
            spec = dict(base=make_scenario(), param="T", values=(4.0,), algorithms=("robust",))
            with pytest.raises(HarnessError) as err:
                SweepSpec(**dict(spec, **change))
            assert err.value.payload() == {"error": message}
            return
        out = tmp_path / "o"
        code = main(["sweep", "--scenario", str(write_tiny(tmp_path)), "--param", "T",
                     *change, "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {"error": message}
        assert not out.exists()

    def test_power_sweep_preserves_peak_ratio(self):
        scen = make_scenario()
        derived = derive_scenario(scen, "avg-power-dbm", 10.0)
        assert derived.avg_power == pytest.approx(1e-2)
        assert derived.peak_power / derived.avg_power == pytest.approx(
            scen.peak_power / scen.avg_power)

    def test_sweep_csv_schema_and_order(self, tmp_path):
        scen = make_scenario()
        spec = SweepSpec(base=scen, param="T", values=(6.0, 4.0),
                         algorithms=("robust", "best_effort"))
        target = run_sweep(spec, tmp_path)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "param,value,algorithm,secrecy_rate_bps_hz,iters,wall_ms"
        # sweep_plans' order: sorted values by sorted tags
        assert [(float(l.split(",")[1]), l.split(",")[2]) for l in lines[1:]] == [
            (4.0, "best_effort"), (4.0, "robust"), (6.0, "best_effort"), (6.0, "robust")]
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
        assert (summary["newton_steps"], summary["power_iters"]) == (0, 0)

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
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert summary["newton_steps"] > 0
        assert 0.0 < summary["max_kkt_residual"] <= 1e-7
        plan = optimize(load_scenario(scen_file))
        assert summary["power_iters"] == sum(r.dual.iterations for r in plan.iterations) > 0
        assert summary["warm_starts"] == sum(r.solve.warm_start for r in plan.iterations[1:]) > 0
        assert (outs[0] / "iterations.csv").read_text().splitlines()[0] == \
            "iter,objective,status,wall_ms"

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

    @pytest.mark.parametrize("kind, message", [
        ("directory", "cannot read scenario file"),
        ("not utf-8", "not UTF-8"),
        ("under a file", "not found"),
    ])
    def test_unreadable_scenario_error_json(self, tmp_path, capsys, kind, message):
        path = tmp_path / "s.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(json.dumps(TINY_DOC).encode().replace(b"20.0", b"\xe920.0", 1))
        else:
            path.write_text("x")
            path = path / "s.json"
        code = main(["optimize", "--scenario", str(path),
                     "--algorithm", "robust", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert message in err["error"] and str(path) in json.dumps(err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["optimize", "--algorithm", "best-effort"],
        ["sweep", "--param", "T", "--values", "4", "--algorithms", "best-effort"],
    ])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_on_a_file_error_json(self, tmp_path, capsys, args, under):
        """--out names an existing file, or a path under one."""
        taken = tmp_path / "taken"
        taken.write_text("x")
        out = taken / "o" if under else taken
        code = main([args[0], "--scenario", str(write_tiny(tmp_path)), *args[1:],
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"].startswith("cannot create output directory")
        assert err["context"] == {"out": str(out)}
        assert taken.read_text() == "x"

    def test_out_checked_before_planning(self, tmp_path, capsys, monkeypatch):
        def no_plan(scenario):
            raise AssertionError("planned before --out was checked")

        monkeypatch.setattr(harness, "optimize", no_plan)
        taken = tmp_path / "taken"
        taken.write_text("x")
        code = main(["optimize", "--scenario", str(write_tiny(tmp_path)),
                     "--algorithm", "robust", "--out", str(taken)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"].startswith("cannot create output directory")
        assert err["context"] == {"out": str(taken)}

    @pytest.mark.parametrize("args, name", [
        (["optimize", "--algorithm", "best-effort"], "trajectory.csv"),
        (["sweep", "--param", "T", "--values", "4", "--algorithms", "best-effort"],
         "sweep.csv"),
    ])
    def test_output_name_is_a_directory_error_json(self, tmp_path, capsys, args, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = main([args[0], "--scenario", str(write_tiny(tmp_path)), *args[1:],
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"].startswith("cannot write output file")
        assert err["context"] == {"file": str(out / name)}
        assert not list(out.glob("*.tmp"))

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
        ("altitude is too large", dict(altitude=1e200)),
        ("scene is too large", dict(altitude=1.3e154)),
        ("is above the ceiling", dict(flight_duration=1e300)),
    ])
    def test_bad_field_error_json(self, tmp_path, capsys, field, change):
        path = write_tiny(tmp_path, dict(TINY_DOC, **change))
        code = main(["optimize", "--scenario", str(path),
                     "--algorithm", "robust", "--out", str(tmp_path / "o")])
        assert code == 2
        assert field in json.dumps(json.loads(capsys.readouterr().err))
        assert not (tmp_path / "o").exists()

    def test_overflowing_sweep_value_error_json(self, tmp_path, capsys):
        """10^(4000/10) mW overflows while the sweep is set up."""
        code = main(["sweep", "--scenario", str(write_tiny(tmp_path)),
                     "--param", "avg-power-dbm", "--values", "4000",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "sweep value avg-power-dbm=4000.0 is out of range"
        assert not (tmp_path / "o").exists()

    def test_verify_quick_exit_zero(self, capsys):
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok  ") == 4


class TestVerifySuites:
    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_quick_all_pass(self, level, request):
        # the full level reads the session's one run of the suites
        results = verify_suites(level) if level == "quick" else [
            (name, ok, detail)
            for name, (ok, detail, _) in request.getfixturevalue("full_verify").items()]
        assert [name for name, _, _ in results] == [
            "theta-oracle", "huber-margin", "power-grid", "sca-monotone"]
        assert all(ok for _, ok, _ in results), results

    def test_huber_margin_fails_on_shifted_disk_rows(self, monkeypatch):
        assemble = trajectory_sca.assemble

        def shifted(*args):
            prog = assemble(*args)
            return dataclasses.replace(prog, eve_k0=prog.eve_k0 + 1.0)

        monkeypatch.setattr(trajectory_sca, "assemble", shifted)
        ok, detail = _check_huber_margin(2_000, 7)
        assert not ok, detail

    @pytest.mark.parametrize("suite, module, name, spoil, reason", [
        # the closed form doubled: the disk samples fall below it
        ("theta-oracle", geometry, "worst_case_dist_sq",
         lambda out, args: 2.0 * out, "below closed form"),
        # half of every slot's power: the budget is no longer spent
        ("power-grid", power_alloc, "solve_power_subproblem",
         lambda dual, args: dataclasses.replace(
             dual, schedule=PowerSchedule(0.5 * dual.schedule.p)),
         "complementary slackness"),
        # a t above what the new track certifies
        ("sca-monotone", trajectory_sca, "solve_step",
         lambda sol, args: dataclasses.replace(
             sol, solve=dataclasses.replace(sol.solve, t=sol.solve.t + 1.0)),
         "robust distance"),
        # a true objective below the expansion point's
        ("sca-monotone", trajectory_sca, "solve_step",
         lambda sol, args: dataclasses.replace(
             sol, true_objective=geometry.secrecy_sum(*args) - 1.0),
         "objective decreased"),
    ])
    def test_suite_fails_on_a_spoiled_result(self, monkeypatch, suite, module, name,
                                             spoil, reason):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: spoil(inner(*args), args))
        check, quick = next((c, q) for n, c, q, _ in _VERIFY_SUITES if n == suite)
        ok, detail = check(*quick)
        assert not ok and reason in detail, detail

    def test_huber_margin_draw_covers_both_branches(self):
        # r = 0 rows, and slots inside and outside a disk, before and after
        # the shift, some of them crossing a rim
        scen, traj, shift = _huber_margin_draw(2_000, 7)
        r = np.array([e.radius for e in scen.eves])
        assert (r == 0.0).sum() >= 1 and (r > 0.0).sum() >= 1
        c = np.array([[e.center_x, e.center_y] for e in scen.eves])[r > 0.0]
        x, y = traj.slot_positions()
        inside = [np.hypot(qx - c[:, :1], qy - c[:, 1:]) <= r[r > 0.0, None]
                  for qx, qy in ((x, y), (x + shift[0], y + shift[1]))]
        for side in inside:
            assert side.any() and not side.all()
        assert (inside[0] != inside[1]).any()

    def test_unknown_level_rejected(self):
        with pytest.raises(HarnessError):
            verify_suites("nope")
