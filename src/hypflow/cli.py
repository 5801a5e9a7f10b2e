"""Command line front end.

Subcommands: validate, flow, solve, compare.  Exit codes are a stable
contract: 0 on success, 1 on numeric or convergence failure, 2 on usage or
parse failure.  Every report records the version and the seed so runs are
reproducible; when no mesh file is given, an instance is generated from the
seed (default 0) and a missing metric defaults to the constant edge length
2*arccosh(2).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .conformal import admissibility_margin, load_metric
from .errors import (
    EigSolveFailure,
    InadmissibleFactor,
    InsufficientData,
    LineSearchFailure,
    MalformedMesh,
    MaxIterations,
    MeshFormatError,
    NonFinite,
    QuadratureStall,
    StepCollapse,
)
from .flows import (
    FRACTIONAL_CALABI,
    GENERALIZED_YAMABE,
    GUO,
    KINDS,
    CONVERGED,
    FlowSpec,
    decay_rate,
    integrate,
    write_trajectory_csv,
)
from .instances import PANTS_EDGE_LENGTH, random_instance
from .newton import solve_prescribed
from .triangulation import load_mesh, loads_mesh


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_vector(text: str, n: int, name: str) -> np.ndarray:
    """Inline comma-separated floats (a single value broadcasts) or a path to
    a JSON array."""
    pieces = text.split(",")
    try:
        values = [float(v) for v in pieces]
    except ValueError:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{name}: neither an inline list nor a readable JSON array ({exc})")
        # JSON true and false load as bool, which isinstance(v, int) would let through
        if not isinstance(doc, list) or not all(type(v) in (int, float) for v in doc):
            raise ValueError(f"{name}: file must hold a JSON array of numbers")
        values = [float(v) for v in doc]
    if len(values) == 1 and n > 1:
        values = values * n
    if len(values) != n:
        raise ValueError(f"{name}: expected {n} values, got {len(values)}")
    return np.asarray(values)


def _read(load, path, what: str):
    try:
        return load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}")
    except (MeshFormatError, MalformedMesh) as exc:
        raise ValueError(f"bad {what} file: {exc}")


def _start(args, need_targets: bool) -> tuple:
    """(tri, l0, targets, w0, report): the input of flow, solve and compare.

    The instance comes from --mesh and --metric, or from --seed (default 0);
    targets is None unless need_targets; w0 defaults to zeros.  report holds
    the fields that every command's report shares.  Raises ValueError with
    the usage message.  Values are checked where they are used (the metric
    by Problem, targets and parameters by FlowSpec and solve_prescribed),
    except that --w0 is held to --safety here: a start below the floor
    would otherwise fail like a run that left the admissible set.
    """
    if args.mesh is not None:
        tri = _read(load_mesh, args.mesh, "mesh")
        if args.metric is None:
            l0, metric = np.full(tri.n_edges, PANTS_EDGE_LENGTH), "constant 2*arccosh(2)"
        else:
            l0, metric = _read(load_metric, args.metric, "metric"), args.metric
        seed, mesh = args.seed, args.mesh
    elif args.metric is not None:
        raise ValueError("--metric requires --mesh")
    else:
        seed = 0 if args.seed is None else args.seed
        tri, l0 = random_instance(np.random.default_rng(seed))
        mesh = metric = "random"
    n = tri.n_boundaries
    targets = None
    if need_targets:
        if args.targets is None:
            raise ValueError(f"{args.command} requires --targets")
        targets = _parse_vector(args.targets, n, "--targets")
    w0 = np.zeros(n) if args.w0 is None else _parse_vector(args.w0, n, "--w0")
    margin = np.min(admissibility_margin(tri, l0, w0))
    if margin < args.safety:
        raise ValueError(f"--w0 is not admissible for this metric (margin {margin:.3e})")
    report = {
        "version": f"v{__version__}",
        "seed": seed,
        "mesh": mesh,
        "metric": metric,
        "n_boundaries": n,
        "n_edges": tri.n_edges,
        "n_faces": tri.n_faces,
        "command": args.command,
        "targets": None if targets is None else [float(v) for v in targets],
        "w0": [float(v) for v in w0],
    }
    return tri, l0, targets, w0, report


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_validate(args) -> int:
    try:
        with open(args.mesh, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(2, f"cannot read mesh: {exc}")
    try:
        tri = loads_mesh(text)
    except MeshFormatError as exc:
        return _fail(2, f"parse failure: {exc}")
    except MalformedMesh as exc:
        print(f"invariant failure: {exc}")
        return 1
    print(f"n_boundaries = {tri.n_boundaries}")
    print(f"edges = {tri.n_edges}")
    print(f"faces = {tri.n_faces}")
    print(f"euler_characteristic = {tri.euler_characteristic}")
    print("invariant parity (3|F| == 2|E|): pass")
    print("invariant edge use counts (== 2 slots each): pass")
    print("invariant corner compatibility: pass")
    print("invariant negative Euler characteristic: pass")
    return 0


def _spec(args, targets, kind: str, param) -> FlowSpec:
    """The FlowSpec of one flow run by flow or compare; param is its s or p
    (None: 0)."""
    param = 0.0 if param is None else param
    return FlowSpec(
        kind=kind,
        targets=targets,
        s=param if kind == FRACTIONAL_CALABI else 0.0,
        p=param if kind == GENERALIZED_YAMABE else 0.0,
        step=args.step,
        tol=args.tol,
        t_max=args.t_max,
        safety=args.safety,
    )


def _run_flow(tri, l0, w0, spec: FlowSpec, name: str):
    """Integrate one flow and fit its decay rate.

    Returns the trajectory and the report fields that `flow` and `compare`
    share; a step collapse returns its partial trajectory, whose status is
    GuardTriggered.  Returns None, after printing `error: <name> failed: ...`,
    when the flow produced no trajectory at all.
    """
    try:
        traj = integrate(tri, l0, w0, spec)
    except StepCollapse as exc:
        traj = exc.trajectory
        print(f"step collapse: {exc}", file=sys.stderr)
    except (InadmissibleFactor, NonFinite, EigSolveFailure, MaxIterations, LineSearchFailure,
            QuadratureStall) as exc:
        _fail(1, f"{name} failed: {exc}")
        return None
    try:
        fit = decay_rate(traj)
        rate, r_squared = fit.rate, fit.r_squared
    except InsufficientData:
        rate = r_squared = None
    return traj, {
        "status": traj.status,
        "samples": traj.n_samples,
        "accepted_steps": traj.accepted_steps,
        "rejected_steps": traj.rejected_steps,
        "final_residual": float(traj.residuals[-1]),
        "final_w": [float(v) for v in traj.ws[-1]],
        "decay_rate": rate,
        "decay_r_squared": r_squared,
    }


def cmd_flow(args) -> int:
    try:
        if args.s is not None and args.kind != FRACTIONAL_CALABI:
            raise ValueError("--s only applies to --kind fractional-calabi")
        if args.p is not None and args.kind != GENERALIZED_YAMABE:
            raise ValueError("--p only applies to --kind generalized-yamabe")
        if args.targets is not None and args.kind == GUO:
            raise ValueError("--targets does not apply to --kind guo")
        tri, l0, targets, w0, report = _start(args, args.kind != GUO)
        spec = _spec(args, targets, args.kind, args.p if args.s is None else args.s)
    except ValueError as exc:
        return _fail(2, str(exc))

    started = time.perf_counter()
    run = _run_flow(tri, l0, w0, spec, "flow")
    if run is None:
        return 1
    traj, fields = run
    wall = time.perf_counter() - started

    report.update(
        {
            "kind": spec.kind,
            "parameters": {
                "s": spec.s,
                "p": spec.p,
                "step": spec.step,
                "tol": spec.tol,
                "t_max": spec.t_max,
                "safety": spec.safety,
            },
            **fields,
            "final_t": float(traj.ts[-1]),
            "final_B": [float(v) for v in traj.Bs[-1]],
            "energy_kind": traj.energy_kind,
            "wall_time_s": wall,
        }
    )
    if args.out_csv:
        try:  # the CSV's energies are computed here, on first read
            write_trajectory_csv(traj, args.out_csv)
        except (QuadratureStall, InadmissibleFactor, NonFinite) as exc:
            return _fail(1, f"flow failed: {exc}")
    if args.out_json:
        _write_json(args.out_json, report)
    rate, r_squared = fields["decay_rate"], fields["decay_r_squared"]
    print(
        f"{spec.kind}: {traj.status}, samples={traj.n_samples}, "
        f"residual={traj.residuals[-1]:.3e}, t={traj.ts[-1]:.6g}"
        + (f", rate={rate:.4g} (R2={r_squared:.4f})" if rate is not None else "")
    )
    return 0 if traj.status == CONVERGED else 1


def cmd_solve(args) -> int:
    code = 0
    try:
        tri, l0, targets, w0, report = _start(args, True)
        started = time.perf_counter()
        solve = solve_prescribed(tri, l0, targets, w_init=w0, tol=args.tol, safety=args.safety)
    except (MaxIterations, LineSearchFailure) as exc:
        solve = exc.report
        code = 1
        print(f"solver stopped early: {exc}", file=sys.stderr)
    except (EigSolveFailure, QuadratureStall) as exc:
        return _fail(1, f"solver failed: {exc}")
    except ValueError as exc:
        return _fail(2, str(exc))
    wall = time.perf_counter() - started

    report.update(
        {
            "kind": "newton",
            "parameters": {"tol": args.tol, "safety": args.safety},
            "status": "Converged" if solve.converged else "Failed",
            "w_star": [float(v) for v in solve.w_star],
            "iterations": solve.iterations,
            "final_residual": solve.final_residual,
            "wall_time_s": wall,
        }
    )
    if args.out_json:
        _write_json(args.out_json, report)
    print(
        f"newton: {report['status']}, "
        f"iterations={solve.iterations}, residual={solve.final_residual:.3e}"
    )
    return code


def _parse_param_list(text: str | None, name: str) -> list[float]:
    try:
        return [float(v) for v in (text or "").split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{name}: expected a comma-separated list of numbers")


def cmd_compare(args) -> int:
    try:
        variants = [(FRACTIONAL_CALABI, v) for v in _parse_param_list(args.s, "--s")]
        variants += [(GENERALIZED_YAMABE, v) for v in _parse_param_list(args.p, "--p")]
        if not variants:
            raise ValueError("compare needs at least one variant via --s or --p")
        tri, l0, targets, w0, report = _start(args, True)
        specs = [_spec(args, targets, kind, value) for kind, value in variants]
    except ValueError as exc:
        return _fail(2, str(exc))

    rows = []
    for spec, (kind, value) in zip(specs, variants):
        run = _run_flow(tri, l0, w0, spec, f"variant {kind} {value}: flow")
        if run is None:
            return 1
        rows.append({"kind": kind, "param": value, **run[1],
                     "initial_speed": run[0].initial_speed})

    header = "kind,param,status,samples,decay_rate,decay_r_squared,final_residual,initial_speed"

    def cell(v) -> str:
        return "" if v is None else ("%.17g" % v if isinstance(v, float) else str(v))

    table_lines = [header] + [",".join(cell(row[c]) for c in header.split(",")) for row in rows]
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(table_lines) + "\n")
    report.update(
        {
            "parameters": {
                "step": args.step,
                "tol": args.tol,
                "t_max": args.t_max,
                "safety": args.safety,
            },
            "variants": rows,
        }
    )
    if args.out_json:
        _write_json(args.out_json, report)
    for line in table_lines:
        print(line)
    return 0 if all(row["status"] == CONVERGED for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypflow",
        description="Prescribed-boundary-length hyperbolic metrics via combinatorial flows",
    )
    parser.add_argument("--version", action="version", version=f"v{__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a mesh file against the invariants")
    p_val.add_argument("--mesh", required=True)
    p_val.set_defaults(func=cmd_validate)

    # the options of flow, solve and compare, and those of the two that step a flow
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mesh", help="mesh file (JSON); omit to generate from --seed")
    common.add_argument("--metric", help="metric file (JSON array of edge lengths)")
    common.add_argument("--targets", help="target boundary lengths: inline list or JSON file")
    common.add_argument("--w0", help="initial conformal factor: inline list or JSON file")
    common.add_argument("--tol", type=float, default=1e-8, help="stopping tolerance")
    common.add_argument("--safety", type=float, default=1e-6, help="admissibility margin floor")
    common.add_argument("--out-json", help="write report JSON here")
    common.add_argument("--seed", type=int, default=None, help="seed for random instances")
    stepping = argparse.ArgumentParser(add_help=False)
    stepping.add_argument("--step", type=float, default=0.1, help="initial step size")
    stepping.add_argument("--t-max", type=float, default=1e4, help="time budget")
    stepping.add_argument("--out-csv", help="write trajectory or table CSV here")

    p_flow = sub.add_parser(
        "flow", parents=[common, stepping], help="integrate a flow and export the trajectory"
    )
    p_flow.add_argument("--kind", required=True, choices=list(KINDS))
    p_flow.add_argument("--s", type=float, default=None, help="fractional power (fractional-calabi)")
    p_flow.add_argument("--p", type=float, default=None, help="exponent in [0, 2) (generalized-yamabe)")
    p_flow.set_defaults(func=cmd_flow)

    p_solve = sub.add_parser("solve", parents=[common], help="solve for w* directly with Newton")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser(
        "compare", parents=[common, stepping], help="run several flow variants from one start"
    )
    p_cmp.add_argument("--s", default=None, help="comma list of fractional powers")
    p_cmp.add_argument("--p", default=None, help="comma list of exponents in [0, 2)")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
