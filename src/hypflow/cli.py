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
    vector_field,
    write_trajectory_csv,
)
from .instances import PANTS_EDGE_LENGTH, random_instance
from .newton import solve_prescribed
from .triangulation import load_mesh, loads_mesh

def _version_string() -> str:
    return f"v{__version__}"


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
        if not isinstance(doc, list) or not all(isinstance(v, (int, float)) for v in doc):
            raise ValueError(f"{name}: file must hold a JSON array of numbers")
        values = [float(v) for v in doc]
    if len(values) == 1 and n > 1:
        values = values * n
    if len(values) != n:
        raise ValueError(f"{name}: expected {n} values, got {len(values)}")
    return np.asarray(values)


def _load_instance(args) -> tuple:
    """Returns (tri, l0, seed_used, mesh_desc, metric_desc)."""
    if args.mesh is not None:
        try:
            tri = load_mesh(args.mesh)
        except OSError as exc:
            raise ValueError(f"cannot read mesh: {exc}")
        except (MeshFormatError, MalformedMesh) as exc:
            raise ValueError(f"bad mesh file: {exc}")
        if args.metric is not None:
            try:
                l0 = load_metric(args.metric)
            except OSError as exc:
                raise ValueError(f"cannot read metric: {exc}")
            except MeshFormatError as exc:
                raise ValueError(f"bad metric file: {exc}")
            if l0.shape != (tri.n_edges,):
                raise ValueError(
                    f"metric has {l0.shape[0]} entries but the mesh has {tri.n_edges} edges"
                )
            metric_desc = args.metric
        else:
            l0 = np.full(tri.n_edges, PANTS_EDGE_LENGTH)
            metric_desc = "constant 2*arccosh(2)"
        return tri, l0, args.seed, args.mesh, metric_desc
    if args.metric is not None:
        raise ValueError("--metric requires --mesh")
    seed = args.seed if args.seed is not None else 0
    tri, l0 = random_instance(np.random.default_rng(seed))
    return tri, l0, seed, "random", "random"


def _read_start(args, tri, l0, need_targets: bool) -> tuple:
    """Returns (targets, w0) from --targets and --w0.

    targets is None unless need_targets; w0 defaults to zeros and must keep
    every admissibility margin at or above --safety.  Raises ValueError
    with the usage message otherwise.
    """
    n = tri.n_boundaries
    targets = None
    if need_targets:
        if args.targets is None:
            raise ValueError(f"{args.command} requires --targets")
        targets = _parse_vector(args.targets, n, "--targets")
        if not np.all(np.isfinite(targets)) or np.any(targets <= 0.0):
            raise ValueError("--targets must be strictly positive finite lengths")
    if args.safety < 0.0:
        raise ValueError("--safety must be non-negative")
    w0 = np.zeros(n) if args.w0 is None else _parse_vector(args.w0, n, "--w0")
    margin = np.min(admissibility_margin(tri, l0, w0))
    if margin < args.safety:
        raise ValueError(f"--w0 is not admissible for this metric (margin {margin:.3e})")
    return targets, w0


def _base_report(args, tri, seed, mesh_desc, metric_desc) -> dict:
    return {
        "version": _version_string(),
        "seed": seed,
        "mesh": mesh_desc,
        "metric": metric_desc,
        "n_boundaries": tri.n_boundaries,
        "n_edges": tri.n_edges,
        "n_faces": tri.n_faces,
    }


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


def _check_flow_flags(args) -> str | None:
    if args.s is not None and args.kind != FRACTIONAL_CALABI:
        return "--s only applies to --kind fractional-calabi"
    if args.p is not None and args.kind != GENERALIZED_YAMABE:
        return "--p only applies to --kind generalized-yamabe"
    return None


def cmd_flow(args) -> int:
    problem = _check_flow_flags(args)
    if problem:
        return _fail(2, problem)
    try:
        tri, l0, seed, mesh_desc, metric_desc = _load_instance(args)
        targets, w0 = _read_start(args, tri, l0, args.kind != GUO)
        spec = FlowSpec(
            kind=args.kind,
            targets=targets,
            s=args.s if args.s is not None else 0.0,
            p=args.p if args.p is not None else 0.0,
            step=args.step,
            tol=args.tol,
            t_max=args.t_max,
            safety=args.safety,
        )
    except ValueError as exc:
        return _fail(2, str(exc))

    started = time.perf_counter()
    partial = False
    try:
        traj = integrate(tri, l0, w0, spec)
    except StepCollapse as exc:
        traj = exc.trajectory
        partial = True
        print(f"step collapse: {exc}", file=sys.stderr)
    except (InadmissibleFactor, NonFinite, EigSolveFailure, MaxIterations, LineSearchFailure) as exc:
        return _fail(1, f"flow failed: {exc}")
    wall = time.perf_counter() - started

    try:
        fit = decay_rate(traj)
        rate, r_squared = fit.rate, fit.r_squared
    except InsufficientData:
        rate = r_squared = None

    report = _base_report(args, tri, seed, mesh_desc, metric_desc)
    report.update(
        {
            "command": "flow",
            "kind": spec.kind,
            "parameters": {
                "s": spec.s,
                "p": spec.p,
                "step": spec.step,
                "tol": spec.tol,
                "t_max": spec.t_max,
                "safety": spec.safety,
            },
            "targets": None if targets is None else [float(v) for v in targets],
            "w0": [float(v) for v in w0],
            "status": traj.status,
            "final_residual": float(traj.residuals[-1]),
            "final_t": float(traj.ts[-1]),
            "final_w": [float(v) for v in traj.ws[-1]],
            "final_B": [float(v) for v in traj.Bs[-1]],
            "samples": traj.n_samples,
            "accepted_steps": traj.accepted_steps,
            "rejected_steps": traj.rejected_steps,
            "energy_kind": traj.energy_kind,
            "decay_rate": rate,
            "decay_r_squared": r_squared,
            "wall_time_s": wall,
        }
    )
    if args.out_csv:
        write_trajectory_csv(traj, args.out_csv)
    if args.out_json:
        _write_json(args.out_json, report)
    print(
        f"{spec.kind}: {traj.status}, samples={traj.n_samples}, "
        f"residual={traj.residuals[-1]:.3e}, t={traj.ts[-1]:.6g}"
        + (f", rate={rate:.4g} (R2={r_squared:.4f})" if rate is not None else "")
    )
    return 0 if (traj.status == CONVERGED and not partial) else 1


def cmd_solve(args) -> int:
    try:
        tri, l0, seed, mesh_desc, metric_desc = _load_instance(args)
        targets, w0 = _read_start(args, tri, l0, True)
    except ValueError as exc:
        return _fail(2, str(exc))

    started = time.perf_counter()
    code = 0
    try:
        solve = solve_prescribed(tri, l0, targets, w_init=w0, tol=args.tol, safety=args.safety)
    except (MaxIterations, LineSearchFailure) as exc:
        solve = exc.report
        code = 1
        print(f"solver stopped early: {exc}", file=sys.stderr)
    except EigSolveFailure as exc:
        return _fail(1, f"solver failed: {exc}")
    wall = time.perf_counter() - started

    report = _base_report(args, tri, seed, mesh_desc, metric_desc)
    report.update(
        {
            "command": "solve",
            "kind": "newton",
            "parameters": {"tol": args.tol, "safety": args.safety},
            "targets": [float(v) for v in targets],
            "w0": [float(v) for v in w0],
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
        f"newton: {'Converged' if solve.converged else 'Failed'}, "
        f"iterations={solve.iterations}, residual={solve.final_residual:.3e}"
    )
    return code


def _parse_param_list(text: str, name: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{name}: expected a comma-separated list of numbers")


def cmd_compare(args) -> int:
    variants: list[tuple[str, float]] = []
    try:
        if args.s is not None:
            variants += [(FRACTIONAL_CALABI, v) for v in _parse_param_list(args.s, "--s")]
        if args.p is not None:
            variants += [(GENERALIZED_YAMABE, v) for v in _parse_param_list(args.p, "--p")]
    except ValueError as exc:
        return _fail(2, str(exc))
    if not variants:
        return _fail(2, "compare needs at least one variant via --s or --p")

    try:
        tri, l0, seed, mesh_desc, metric_desc = _load_instance(args)
        targets, w0 = _read_start(args, tri, l0, True)
    except ValueError as exc:
        return _fail(2, str(exc))

    rows = []
    all_converged = True
    for kind, value in variants:
        try:
            spec = FlowSpec(
                kind=kind,
                targets=targets,
                s=value if kind == FRACTIONAL_CALABI else 0.0,
                p=value if kind == GENERALIZED_YAMABE else 0.0,
                step=args.step,
                tol=args.tol,
                t_max=args.t_max,
                safety=args.safety,
            )
        except ValueError as exc:
            return _fail(2, f"variant {kind} {value}: {exc}")
        initial_speed = float(np.max(np.abs(vector_field(tri, l0, w0, spec))))
        try:
            traj = integrate(tri, l0, w0, spec)
            status = traj.status
        except StepCollapse as exc:
            traj = exc.trajectory
            status = traj.status
        try:
            fit = decay_rate(traj)
            rate, r_squared = fit.rate, fit.r_squared
        except InsufficientData:
            rate = r_squared = None
        if status != CONVERGED:
            all_converged = False
        rows.append(
            {
                "kind": kind,
                "param": value,
                "status": status,
                "samples": traj.n_samples,
                "accepted_steps": traj.accepted_steps,
                "rejected_steps": traj.rejected_steps,
                "final_residual": float(traj.residuals[-1]),
                "final_w": [float(v) for v in traj.ws[-1]],
                "decay_rate": rate,
                "decay_r_squared": r_squared,
                "initial_speed": initial_speed,
            }
        )

    columns = [
        "kind",
        "param",
        "status",
        "samples",
        "decay_rate",
        "decay_r_squared",
        "final_residual",
        "initial_speed",
    ]
    table_lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            cells.append("" if v is None else ("%.17g" % v if isinstance(v, float) else str(v)))
        table_lines.append(",".join(cells))
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(table_lines) + "\n")
    report = _base_report(args, tri, seed, mesh_desc, metric_desc)
    report.update(
        {
            "command": "compare",
            "parameters": {
                "step": args.step,
                "tol": args.tol,
                "t_max": args.t_max,
                "safety": args.safety,
            },
            "targets": [float(v) for v in targets],
            "w0": [float(v) for v in w0],
            "variants": rows,
        }
    )
    if args.out_json:
        _write_json(args.out_json, report)
    for line in table_lines:
        print(line)
    return 0 if all_converged else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mesh", help="mesh file (JSON); omit to generate from --seed")
    parser.add_argument("--metric", help="metric file (JSON array of edge lengths)")
    parser.add_argument("--targets", help="target boundary lengths: inline list or JSON file")
    parser.add_argument("--w0", help="initial conformal factor: inline list or JSON file")
    parser.add_argument("--step", type=float, default=0.1, help="initial step size")
    parser.add_argument("--tol", type=float, default=1e-8, help="stopping tolerance")
    parser.add_argument("--t-max", type=float, default=1e4, help="time budget")
    parser.add_argument("--safety", type=float, default=1e-6, help="admissibility margin floor")
    parser.add_argument("--out-csv", help="write trajectory or table CSV here")
    parser.add_argument("--out-json", help="write report JSON here")
    parser.add_argument("--seed", type=int, default=None, help="seed for random instances")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypflow",
        description="Prescribed-boundary-length hyperbolic metrics via combinatorial flows",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a mesh file against the invariants")
    p_val.add_argument("--mesh", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_flow = sub.add_parser("flow", help="integrate a flow and export the trajectory")
    _add_common(p_flow)
    p_flow.add_argument("--kind", required=True, choices=list(KINDS))
    p_flow.add_argument("--s", type=float, default=None, help="fractional power (fractional-calabi)")
    p_flow.add_argument("--p", type=float, default=None, help="exponent in [0, 2) (generalized-yamabe)")
    p_flow.set_defaults(func=cmd_flow)

    p_solve = sub.add_parser("solve", help="solve for w* directly with Newton")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="run several flow variants from one start")
    _add_common(p_cmp)
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
