"""Command-line interface: exit codes, emitted files, and report contents."""

import json

import numpy as np
import pytest

from hypflow import cli, energy, flows, instances
from hypflow.cli import main
from hypflow.conformal import boundary_lengths, save_metric
from hypflow.newton import solve_prescribed
from hypflow.triangulation import save_mesh


@pytest.fixture
def pants_mesh(tmp_path):
    path = tmp_path / "pants.json"
    save_mesh(instances.pair_of_pants(), path)
    return str(path)


def test_validate_ok(pants_mesh, capsys):
    assert main(["validate", "--mesh", pants_mesh]) == 0
    out = capsys.readouterr().out
    assert "euler_characteristic = -1" in out
    assert out.count("pass") == 4


def test_validate_dangling_edge(tmp_path, capsys):
    # parity holds but edge 0 appears in a single face-side slot
    mesh = {"n_boundaries": 3,
            "edges": [[1, 2], [2, 3], [1, 3]],
            "faces": [{"sides": [1, 1, 1], "corners": [2, 2, 2]},
                      {"sides": [0, 1, 2], "corners": [2, 3, 1]}]}
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(mesh))
    assert main(["validate", "--mesh", str(path)]) == 1
    assert "edge 0" in capsys.readouterr().out


def test_validate_unparseable(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{{{ not json")
    assert main(["validate", "--mesh", str(path)]) == 2


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--mesh", str(tmp_path / "absent.json")]) == 2


def test_json_booleans_are_usage_errors(pants_mesh, tmp_path):
    # JSON true loads as a bool, an int subclass; it once passed as the number 1
    torus = {"n_boundaries": True, "edges": [[1, 1]] * 3,
             "faces": [{"sides": [0, 1, 2], "corners": [1, 1, 1]}] * 2}
    mesh = tmp_path / "bool.json"
    mesh.write_text(json.dumps(torus))
    assert main(["validate", "--mesh", str(mesh)]) == 2  # was a TypeError traceback
    targets = tmp_path / "targets.json"
    targets.write_text("[true, 1, 1]")
    assert main(["solve", "--mesh", pants_mesh, "--targets", str(targets)]) == 2
    metric = tmp_path / "metric.json"
    metric.write_text("[true, 2, 3]")
    assert main(["solve", "--mesh", pants_mesh, "--metric", str(metric),
                 "--targets", "1"]) == 2


def test_flow_converges_and_reports(pants_mesh, tmp_path):
    csv_path = tmp_path / "traj.csv"
    json_path = tmp_path / "report.json"
    rc = main(["flow", "--mesh", pants_mesh, "--kind", "fractional-calabi",
               "--s", "1", "--targets", "1,1,1",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0

    report = json.loads(json_path.read_text())
    assert report["status"] == "Converged"
    assert report["kind"] == "fractional-calabi"
    assert report["final_residual"] < 1e-8
    assert report["version"].startswith("v")
    for key in ("parameters", "final_w", "decay_rate", "wall_time_s"):
        assert key in report
    assert report["parameters"]["s"] == 1.0
    assert report["parameters"]["tol"] == 1e-8

    # trajectory file is re-parseable and consistent with the report
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert data[0, 0] == 0.0
    assert np.allclose(data[-1, 1:4], report["final_w"], rtol=0, atol=1e-15)

    # final w matches an independent solve
    w_star = solve_prescribed(instances.pair_of_pants(),
                              np.full(3, instances.PANTS_EDGE_LENGTH),
                              np.ones(3)).w_star
    assert np.max(np.abs(np.asarray(report["final_w"]) - w_star)) < 1e-6


def test_flow_guo_budget_exhausted(pants_mesh, tmp_path):
    json_path = tmp_path / "guo.json"
    csv_path = tmp_path / "guo.csv"
    rc = main(["flow", "--mesh", pants_mesh, "--kind", "guo", "--t-max", "100",
               "--out-json", str(json_path), "--out-csv", str(csv_path)])
    assert rc == 1
    report = json.loads(json_path.read_text())
    assert report["status"] == "TimeBudgetExhausted"
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 4:7], axis=0) < 0)  # B_1..B_3


def test_flow_usage_errors(pants_mesh):
    # s only applies to fractional-calabi
    assert main(["flow", "--mesh", pants_mesh, "--kind", "generalized-yamabe",
                 "--s", "1", "--targets", "1,1,1"]) == 2
    # p only applies to generalized-yamabe
    assert main(["flow", "--mesh", pants_mesh, "--kind", "fractional-calabi",
                 "--p", "1", "--targets", "1,1,1"]) == 2
    # target flows need targets, and guo takes none
    assert main(["flow", "--mesh", pants_mesh, "--kind", "fractional-calabi"]) == 2
    assert main(["flow", "--mesh", pants_mesh, "--kind", "guo", "--targets", "garbage"]) == 2
    # inadmissible start
    assert main(["flow", "--mesh", pants_mesh, "--kind", "guo",
                 "--w0", "-0.35,-0.35,-0.35"]) == 2
    # unknown kind is an argparse error
    assert main(["flow", "--mesh", pants_mesh, "--kind", "ricci"]) == 2


def test_field_failure_at_start_is_reported(pants_mesh, capsys):
    # the s = 1 field overflows the hexagon invariant at w = 60; flow used to
    # report a step collapse at t = 0, and compare a NonFinite traceback
    assert main(["flow", "--mesh", pants_mesh, "--kind", "fractional-calabi", "--s", "1",
                 "--targets", "1", "--w0", "60"]) == 1
    assert "error: flow failed: hexagon invariant overflowed" in capsys.readouterr().err
    assert main(["compare", "--seed", "0", "--targets", "1", "--s=1", "--w0", "60"]) == 1
    assert capsys.readouterr().err == (
        "error: variant fractional-calabi 1.0: flow failed: hexagon invariant overflowed\n")


def test_energy_quadrature_stall_is_reported(pants_mesh, tmp_path, monkeypatch, capsys):
    # guo integrates nothing while it steps; its CSV's energies are
    # integrated when the CSV is written, and a quadrature that never
    # settles there escaped as a traceback
    monkeypatch.setattr(energy, "MAX_REFINEMENTS", 0)
    assert main(["flow", "--mesh", pants_mesh, "--kind", "guo", "--t-max", "1",
                 "--out-csv", str(tmp_path / "traj.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: flow failed: no agreement to rtol=1e-10 after 0 refinements\n")


def test_flow_stall_reports_no_rate(tmp_path, capsys):
    # by t = 20 this run's residual (0.025) has fallen by less than one e-fold
    # over the fitted tail; a rate fitted there would read as a clean
    # exponential decay
    json_path = tmp_path / "stall.json"
    rc = main(["flow", "--seed", "0", "--kind", "fractional-calabi", "--s", "1",
               "--targets", "0.1", "--t-max", "20", "--out-json", str(json_path)])
    assert rc == 1
    assert "rate=" not in capsys.readouterr().out
    report = json.loads(json_path.read_text())
    assert report["status"] == "TimeBudgetExhausted"
    assert report["decay_rate"] is None


def test_flow_metric_requires_mesh(tmp_path):
    metric = tmp_path / "metric.json"
    save_metric(np.full(3, instances.PANTS_EDGE_LENGTH), metric)
    assert main(["flow", "--metric", str(metric), "--kind", "guo"]) == 2


def test_flow_random_instance_seeded(tmp_path):
    json_path = tmp_path / "rnd.json"
    rc = main(["flow", "--kind", "fractional-calabi", "--s", "0", "--targets", "1",
               "--seed", "7", "--out-json", str(json_path)])
    report = json.loads(json_path.read_text())
    assert rc == (0 if report["status"] == "Converged" else 1)
    assert report["seed"] == 7
    assert report["mesh"] == "random"
    # same seed, same instance: boundary count is reproducible
    rng = np.random.default_rng(7)
    tri, _ = instances.random_instance(rng)
    assert report["n_boundaries"] == tri.n_boundaries


def test_solve_symmetric(pants_mesh, tmp_path):
    json_path = tmp_path / "solve.json"
    rc = main(["solve", "--mesh", pants_mesh, "--targets", "2",
               "--out-json", str(json_path)])
    assert rc == 0
    report = json.loads(json_path.read_text())
    assert report["status"] == "Converged"
    w = np.asarray(report["w_star"])
    assert np.ptp(w) < 1e-9
    assert report["final_residual"] < 1e-8


def test_solve_plant_and_recover(tmp_path):
    rng = np.random.default_rng(3)
    tri, l0 = instances.random_instance(rng)
    w_plant = instances.random_admissible_factor(rng, tri, l0)
    targets = boundary_lengths(tri, l0, w_plant)
    mesh = tmp_path / "mesh.json"
    metric = tmp_path / "metric.json"
    targets_file = tmp_path / "targets.json"
    save_mesh(tri, mesh)
    save_metric(l0, metric)
    targets_file.write_text(json.dumps(list(targets)))
    json_path = tmp_path / "report.json"
    rc = main(["solve", "--mesh", str(mesh), "--metric", str(metric),
               "--targets", str(targets_file), "--out-json", str(json_path)])
    assert rc == 0
    report = json.loads(json_path.read_text())
    assert np.max(np.abs(np.asarray(report["w_star"]) - w_plant)) < 1e-8


def test_solve_rejects_zero_target(pants_mesh):
    assert main(["solve", "--mesh", pants_mesh, "--targets", "0,1,1"]) == 2


def test_nonfinite_targets_are_usage_errors(pants_mesh):
    # a NaN target used to pass as converged (residual nan), an infinite one
    # ended in a traceback
    for targets in ("nan", "inf,1,1"):
        assert main(["solve", "--mesh", pants_mesh, "--targets", targets]) == 2
        assert main(["flow", "--mesh", pants_mesh, "--kind", "fractional-calabi",
                     "--targets", targets]) == 2
        assert main(["compare", "--mesh", pants_mesh, "--s=0",
                     "--targets", targets]) == 2


@pytest.mark.parametrize("argv", [
    ["flow", "--kind", "fractional-calabi", "--targets", "1,1,1", "--s", "nan"],
    ["flow", "--kind", "generalized-yamabe", "--targets", "1,1,1", "--p", "nan"],
    ["flow", "--kind", "fractional-calabi", "--targets", "1,1,1", "--tol", "nan",
     "--t-max", "1"],
    ["flow", "--kind", "fractional-calabi", "--targets", "1,1,1", "--t-max", "nan"],
    ["flow", "--kind", "guo", "--safety", "nan", "--t-max", "1"],
    ["solve", "--targets", "1,1,1", "--tol", "nan"],
    ["solve", "--targets", "1,1,1", "--safety", "nan"],
    ["compare", "--targets", "1,1,1", "--s=nan"],
    ["compare", "--targets", "1,1,1", "--p=0", "--tol", "nan", "--t-max", "1"],
    ["compare", "--targets", "1,1,1", "--p=0", "--safety", "nan"],
])
def test_nonfinite_parameters_are_usage_errors(pants_mesh, argv):
    # a non-finite step is left to FlowSpec's own test: it never stopped a flow
    assert main([argv[0], "--mesh", pants_mesh, *argv[1:]]) == 2


def test_solve_safety_blocks_solution(pants_mesh, capsys):
    # every margin at w* for targets 1 is 0.797, below the floor of 0.9
    assert main(["solve", "--mesh", pants_mesh, "--targets", "1,1,1",
                 "--w0", "0.2", "--safety", "0.9"]) == 1
    assert "backtracking stalled" in capsys.readouterr().err


def test_solve_start_below_safety(pants_mesh):
    # every margin at w = 0 is ln 2 = 0.693
    assert main(["solve", "--mesh", pants_mesh, "--targets", "1,1,1",
                 "--safety", "0.9"]) == 2
    # a negative floor lets the line search probe inadmissible factors
    assert main(["solve", "--mesh", pants_mesh, "--targets", "30,30,30",
                 "--safety", "-1"]) == 2


def test_solve_zero_safety_stops_early(capsys):
    # an InadmissibleFactor used to escape the line search and exit 2, the
    # usage-error code
    assert main(["solve", "--seed", "0", "--targets", "60", "--safety", "0"]) == 1
    assert "solver stopped early: backtracking stalled" in capsys.readouterr().err


def test_solve_rejects_flow_options(pants_mesh, tmp_path):
    # solve has no trajectory, step or time budget; these options used to be
    # accepted and ignored, so --out-csv silently wrote nothing
    csv_path = tmp_path / "x.csv"
    for option in (["--out-csv", str(csv_path)], ["--step", "7"], ["--t-max", "3"]):
        assert main(["solve", "--mesh", pants_mesh, "--targets", "1", *option]) == 2
    assert not csv_path.exists()


SHARED_KEYS = ["version", "seed", "mesh", "metric", "n_boundaries", "n_edges", "n_faces",
               "command", "targets", "w0", "parameters"]
RUN_KEYS = ["status", "samples", "accepted_steps", "rejected_steps", "final_residual",
            "final_w", "decay_rate", "decay_r_squared"]
REPORT_KEYS = {
    "flow": SHARED_KEYS + RUN_KEYS + ["kind", "final_t", "final_B", "energy_kind",
                                      "wall_time_s"],
    "solve": SHARED_KEYS + ["kind", "status", "w_star", "iterations", "final_residual",
                            "wall_time_s"],
    "compare": SHARED_KEYS + ["variants"],
}


@pytest.mark.parametrize("argv", [
    ["flow", "--kind", "fractional-calabi", "--s", "1"],
    ["solve"],
    ["compare", "--s=0", "--p=1"],
])
def test_report_keys_are_pinned(pants_mesh, tmp_path, argv):
    json_path = tmp_path / "report.json"
    assert main([*argv, "--mesh", pants_mesh, "--targets", "1",
                 "--out-json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    assert sorted(report) == sorted(REPORT_KEYS[argv[0]])
    for row in report.get("variants", []):
        assert sorted(row) == sorted(["kind", "param", *RUN_KEYS, "initial_speed"])


def test_compare_variants(pants_mesh, tmp_path):
    csv_path = tmp_path / "cmp.csv"
    json_path = tmp_path / "cmp.json"
    rc = main(["compare", "--mesh", pants_mesh, "--targets", "1,1,1",
               "--w0", "0.5", "--s=-1,0,1", "--p=0,1,1.5",
               "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    report = json.loads(json_path.read_text())
    variants = report["variants"]
    assert len(variants) == 6
    assert all(v["status"] == "Converged" for v in variants)
    # all variants land on the same solution
    finals = np.array([v["final_w"] for v in variants])
    assert np.max(np.abs(finals - finals[0])) < 1e-6
    # initial speeds are reported, not asserted against each other
    assert all(v["initial_speed"] > 0 for v in variants)

    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("kind,param,status")


def test_compare_reads_initial_speed_from_the_trajectory(pants_mesh, tmp_path, monkeypatch):
    # compare used to evaluate the field at w0 again per variant, through
    # vector_field, only to report initial_speed
    json_path = tmp_path / "cmp.json"

    def unused(*args):
        raise AssertionError("compare evaluated vector_field")

    with monkeypatch.context() as patch:
        patch.setattr(flows, "vector_field", unused)
        patch.setattr(cli, "vector_field", unused, raising=False)
        assert main(["compare", "--mesh", pants_mesh, "--targets", "0.8,1.7,2.4",
                     "--w0", "0.5,0.1,0.3", "--s=-1,0,0.5", "--p=0,1.5",
                     "--out-json", str(json_path)]) == 0
    w0 = np.array([0.5, 0.1, 0.3])
    for row in json.loads(json_path.read_text())["variants"]:
        param = "s" if row["kind"] == flows.FRACTIONAL_CALABI else "p"
        spec = flows.FlowSpec(kind=row["kind"], targets=[0.8, 1.7, 2.4], **{param: row["param"]})
        field = flows.vector_field(instances.pair_of_pants(),
                                   np.full(3, instances.PANTS_EDGE_LENGTH), w0, spec)
        assert row["initial_speed"] == float(np.max(np.abs(field)))


def test_compare_requires_variants(pants_mesh):
    assert main(["compare", "--mesh", pants_mesh, "--targets", "1,1,1"]) == 2


def test_compare_usage_errors(pants_mesh):
    # compare needs targets
    assert main(["compare", "--mesh", pants_mesh, "--s=0"]) == 2
    # inadmissible start
    assert main(["compare", "--mesh", pants_mesh, "--targets", "1,1,1",
                 "--s=0", "--w0=-0.35"]) == 2
    # admissible start whose margin (5.8e-7) is below the default safety
    assert main(["compare", "--mesh", pants_mesh, "--targets", "1,1,1",
                 "--s=0", "--w0=-0.3465733"]) == 2


def test_compare_reports_a_failed_flow(capsys):
    # the Newton pre-solve inside integrate fails at targets 60; compare used
    # to print a traceback here
    assert main(["compare", "--seed", "0", "--targets", "60", "--s=1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: variant fractional-calabi 1.0: flow failed: ")
    assert captured.out == ""


def test_no_subcommand_is_usage_error():
    assert main([]) == 2
