"""The benchmark's three workloads: their inputs, operations and checks.

A workload builds its operations in rounds.  Round r draws its inputs from
`numpy.random.default_rng([seed, r])`, so the same seed gives the same
inputs, and every round runs the same kinds of operation in the same order.
An operation's `run` is the timed call; its `check` runs afterwards, outside
the timing, and returns None when the output is right or a message saying
what is wrong.  Checks use `reference`, which calls no hypflow kernel, and
the properties the method guarantees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from hypflow import conformal, flows, instances, jacobian, newton

import reference

BENCH_DIR = Path(__file__).resolve().parent
FLOW_TOL = 1e-10  # flow-ensemble and the Newton sweep stop at this residual
PLANT_FLOW_GAP = 1e-6  # a flow must recover the planted or Newton w* to this
PLANT_NEWTON_GAP = 1e-8  # Newton must recover a planted factor to this
# a residual recomputed from the reference may exceed the program's own
# double-precision residual by rounding; 1% of the tolerance covers that
RESIDUAL_SLACK = 1.01


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _pants():
    return instances.pair_of_pants(), np.full(3, instances.PANTS_EDGE_LENGTH)


# -- flow-ensemble -------------------------------------------------------------


def _flow_specs(targets, s_values, p_values):
    specs = [
        flows.FlowSpec(kind=flows.FRACTIONAL_CALABI, targets=targets, s=s, tol=FLOW_TOL)
        for s in s_values
    ]
    specs += [
        flows.FlowSpec(kind=flows.GENERALIZED_YAMABE, targets=targets, p=p, tol=FLOW_TOL)
        for p in p_values
    ]
    return specs


# Bounds of the strata of the smallest Jacobian eigenvalue at the planted
# factor.  A flow's cost follows 1 / lambda_min^2 closely, and about an
# eighth of the screened draws falls in each stratum.
SCREEN_STRATA = (0.5, 0.64, 0.77, 0.91, 1.08, 1.28, 1.54, 1.92, 2.5)


def _screened_cases(rng):
    """One random instance per stratum of SCREEN_STRATA, each with a planted
    target and a nearby start (the construction of the acceptance suite's
    flow ensemble, whose screen is the spectrum in [0.5, 2.5]).  Draws that
    land in a stratum already filled are skipped."""
    cases = [None] * (len(SCREEN_STRATA) - 1)
    while None in cases:
        tri, l0 = instances.random_instance(rng)
        w_plant = instances.random_admissible_factor(rng, tri, l0)
        lam = np.linalg.eigvalsh(-jacobian.boundary_jacobian(tri, l0, w_plant))
        if lam[0] < SCREEN_STRATA[0] or lam[-1] > SCREEN_STRATA[-1]:
            continue
        stratum = int(np.searchsorted(SCREEN_STRATA, lam[0], side="right")) - 1
        if cases[stratum] is not None:
            continue
        targets = conformal.boundary_lengths(tri, l0, w_plant)
        while True:
            w0 = w_plant + rng.uniform(-0.1, 0.1, tri.n_boundaries)
            if conformal.admissibility_margin(tri, l0, w0).min() > 1e-3:
                break
        cases[stratum] = (tri, l0, targets, w0, w_plant)
    return cases


def _flow_op(label, tri, l0, w0, spec, w_expected):
    """One integrate call.  w_expected is the known solution, or None to
    compare with the Newton w* that the trajectory anchored its energy at."""

    def run():
        return flows.integrate(tri, l0, w0, spec)

    def check(traj):
        if traj.status != flows.CONVERGED:
            return f"status {traj.status}"
        if np.any(np.diff(traj.energies) > 0.0):
            return "recorded Lyapunov energy increased"
        w_end = traj.ws[-1]
        res = reference.residual_ref(tri, l0, w_end, spec.targets)
        if res > RESIDUAL_SLACK * spec.tol:
            return f"reference residual {res:.3e} above tol {spec.tol:.1e}"
        if w_expected is None:
            res_star = reference.residual_ref(tri, l0, traj.w_star, spec.targets)
            if res_star > RESIDUAL_SLACK * FLOW_TOL:
                return f"Newton w* has reference residual {res_star:.3e}"
            expected = traj.w_star
        else:
            expected = w_expected
        gap = reference.max_gap(w_end, expected)
        if gap > PLANT_FLOW_GAP:
            return f"w_end is {gap:.3e} from the expected w*"
        return None

    return Op(label, run, check)


class FlowEnsemble:
    """flows.integrate (full energy mode, tol 1e-10) on three groups: the
    pants with targets 1; one screened instance with a planted target per
    spectrum stratum; two unscreened instances from w = 0 with targets 1,
    run only with the variants that converge there."""

    name = "flow-ensemble"
    tail_percentile = 90
    min_ops = 100  # at least ten operations beyond the tail percentile
    S_SCREENED = (-1.0, 0.0, 0.5, 1.0)
    S_UNSCREENED = (-1.0, 0.0)
    P_VALUES = (0.0, 1.0)
    UNSCREENED_PER_ROUND = 2

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.pants, self.pants_l0 = _pants()
        self.pants_w_star = np.full(3, reference.pants_w_star(1.0))

    def warm_up(self) -> str | None:
        spec = _flow_specs(np.ones(3), (1.0,), ())[0]
        op = _flow_op("warm-up", self.pants, self.pants_l0, np.zeros(3), spec, self.pants_w_star)
        return op.check(op.run())

    def round(self, r: int) -> list[Op]:
        rng = _round_rng(self.seed, r)
        ops = []
        for spec in _flow_specs(np.ones(3), self.S_SCREENED, self.P_VALUES):
            ops.append(
                _flow_op(_flow_label("pants", spec), self.pants, self.pants_l0,
                         np.zeros(3), spec, self.pants_w_star)
            )
        for k, (tri, l0, targets, w0, w_plant) in enumerate(_screened_cases(rng)):
            for spec in _flow_specs(targets, self.S_SCREENED, self.P_VALUES):
                ops.append(_flow_op(_flow_label(f"screened{k}", spec), tri, l0, w0, spec, w_plant))
        for _ in range(self.UNSCREENED_PER_ROUND):
            tri, l0 = instances.random_instance(rng)
            n = tri.n_boundaries
            for spec in _flow_specs(np.ones(n), self.S_UNSCREENED, self.P_VALUES):
                ops.append(_flow_op(_flow_label("unscreened", spec), tri, l0,
                                    np.zeros(n), spec, None))
        return ops


def _flow_label(group, spec):
    if spec.kind == flows.FRACTIONAL_CALABI:
        return f"{group}/s={spec.s:g}"
    return f"{group}/p={spec.p:g}"


# -- newton-sweep --------------------------------------------------------------


def _newton_op(label, tri, l0, targets, w_init, w_plant):
    def run():
        return newton.solve_prescribed(tri, l0, targets, w_init=w_init, tol=FLOW_TOL)

    def check(report):
        if not report.converged:
            return "report not converged"
        res = reference.residual_ref(tri, l0, report.w_star, targets)
        if res > RESIDUAL_SLACK * FLOW_TOL:
            return f"reference residual {res:.3e} above tol {FLOW_TOL:.1e}"
        if w_plant is not None:
            gap = reference.max_gap(report.w_star, w_plant)
            if gap > PLANT_NEWTON_GAP:
                return f"planted factor missed by {gap:.3e}"
        return None

    return Op(label, run, check)


class NewtonSweep:
    """newton.solve_prescribed on random instances with 2 to 48 faces and at
    most 10 boundaries: one instance per even face count and round, solved
    once from w = 0 for log-uniform targets in [1e-3, 10] and once for a
    target planted at a random admissible factor from a second one."""

    name = "newton-sweep"
    tail_percentile = 99
    min_ops = 1000
    FACE_COUNTS = tuple(range(2, 49, 2))

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed

    def warm_up(self) -> str | None:
        tri, l0 = _pants()
        op = _newton_op("warm-up", tri, l0, np.ones(3), None, np.full(3, reference.pants_w_star(1.0)))
        return op.check(op.run())

    def round(self, r: int) -> list[Op]:
        rng = _round_rng(self.seed, r)
        ops = []
        for faces in self.FACE_COUNTS:
            tri, l0 = instances.random_instance(rng, n_faces=faces, max_boundaries=10)
            n = tri.n_boundaries
            targets = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
            ops.append(_newton_op(f"f{faces}/log-uniform", tri, l0, targets, None, None))
            w_plant = instances.random_admissible_factor(rng, tri, l0)
            planted = conformal.boundary_lengths(tri, l0, w_plant)
            w_init = instances.random_admissible_factor(rng, tri, l0)
            ops.append(_newton_op(f"f{faces}/planted", tri, l0, planted, w_init, w_plant))
        return ops


# -- cli-cold ------------------------------------------------------------------

# the pants mesh of the README
PANTS_MESH = {
    "n_boundaries": 3,
    "edges": [[1, 2], [2, 3], [3, 1]],
    "faces": [
        {"sides": [0, 1, 2], "corners": [2, 3, 1]},
        {"sides": [0, 1, 2], "corners": [2, 3, 1]},
    ],
}
CLI_TOL = 1e-8  # the CLI default, used by the pants operations
CLI_SEED_TOL = FLOW_TOL  # random instances have smaller spectra, so tighter


class CliRun:
    """One finished CLI process: exit code, peak RSS and where its report is."""

    __slots__ = ("code", "maxrss_kb", "out_json")

    def __init__(self, code, maxrss_kb, out_json):
        self.code = code
        self.maxrss_kb = maxrss_kb
        self.out_json = out_json

    def report(self):
        if not self.out_json.exists():
            return None
        with open(self.out_json, encoding="utf-8") as fh:
            return json.load(fh)


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args, workdir: Path, out_json: Path, env: dict, tracer=None) -> CliRun:
    """Run one `python -m hypflow.cli` process to completion.

    Inside a tracer's root span, the process is `cli_probe.py` instead, which
    imports the same module, wraps the layers and calls its `main`; the
    probe's start-up, import and layer spans are folded into that root.

    Files from the previous round are removed rather than truncated:
    truncating a file that holds data can make the file system flush it on
    close, which would be timed as part of the operation."""
    if tracer is not None and not tracer.stack:
        tracer = None
    probe_out = workdir / "probe.json"
    stderr_path = workdir / "cli.stderr"
    for path in (out_json, probe_out, stderr_path):
        path.unlink(missing_ok=True)
    argv = list(args) + ["--out-json", str(out_json)]
    if tracer is None:
        cmd = [sys.executable, "-m", "hypflow.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_probe.py"), str(probe_out), *argv]
    spawned = perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if tracer is not None:
        with open(probe_out, encoding="utf-8") as fh:
            probe = json.load(fh)
        tracer.record("cli.interpreter", spawned, probe["started"])
        tracer.record("cli.import", probe["started"], probe["imported"])
        tracer.merge(probe["trace"])
    return CliRun(proc.returncode, usage.ru_maxrss, out_json)


class CliCold:
    """`python -m hypflow.cli` in a fresh interpreter per operation: solve,
    flow --s 1 and compare on the README's pants mesh, then solve and a
    generalized-yamabe p = 1 flow on three `--seed` instances."""

    name = "cli-cold"
    tail_percentile = 75
    min_ops = 40
    SEEDS_PER_ROUND = 3

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.child_rss_kb = []  # peak RSS of each CLI process of the round
        self.env = cli_env()
        self.mesh = workdir / "pants.json"
        with open(self.mesh, "w", encoding="utf-8") as fh:
            json.dump(PANTS_MESH, fh)
        self.pants_w_star = reference.pants_w_star(1.0)
        self.pants, self.pants_l0 = _pants()

    def warm_up(self) -> str | None:
        op = self._pants_op(0, "warm-up", ["solve", "--targets", "1,1,1"])
        return op.check(op.run())

    def _cli_op(self, index, label, args, check_report):
        out_json = self.workdir / f"op{index}.json"

        def run():
            out = run_cli(args, self.workdir, out_json, self.env, self.tracer)
            self.child_rss_kb.append(out.maxrss_kb)
            return out

        def check(out):
            if out.code != 0:
                return f"exit code {out.code}"
            report = out.report()
            if report is None:
                return "no report written"
            return check_report(report)

        return Op(label, run, check)

    def _pants_op(self, index, label, args):
        tri, l0, w_star = self.pants, self.pants_l0, np.full(3, self.pants_w_star)

        def check_report(report):
            if report["command"] == "compare":
                states = [(v["status"], v["final_w"]) for v in report["variants"]]
                gap_limit = PLANT_FLOW_GAP
            elif report["command"] == "flow":
                states = [(report["status"], report["final_w"])]
                gap_limit = PLANT_FLOW_GAP
            else:
                states = [(report["status"], report["w_star"])]
                gap_limit = PLANT_NEWTON_GAP
            for status, w in states:
                if status != flows.CONVERGED:
                    return f"status {status}"
                res = reference.residual_ref(tri, l0, w, np.ones(3))
                if res > RESIDUAL_SLACK * CLI_TOL:
                    return f"reference residual {res:.3e} above tol {CLI_TOL:.1e}"
                gap = reference.max_gap(w, w_star)
                if gap > gap_limit:
                    return f"{gap:.3e} from the closed-form w*"
            return None

        return self._cli_op(index, label, [args[0], "--mesh", str(self.mesh), *args[1:]], check_report)

    def round(self, r: int) -> list[Op]:
        rng = _round_rng(self.seed, r)
        self.child_rss_kb = []
        ops = [
            self._pants_op(0, "pants/solve", ["solve", "--targets", "1,1,1"]),
            self._pants_op(1, "pants/flow s=1", [
                "flow", "--kind", flows.FRACTIONAL_CALABI, "--s", "1", "--targets", "1,1,1"]),
            self._pants_op(2, "pants/compare", [
                "compare", "--targets", "1,1,1", "--s=-1,0,1", "--p=0,1"]),
        ]
        for k, cli_seed in enumerate(rng.integers(0, 2**31, size=self.SEEDS_PER_ROUND)):
            ops += self._seed_ops(3 + 2 * k, int(cli_seed))
        return ops

    def _seed_ops(self, index, cli_seed):
        """solve, then a flow whose end must agree with the solve's w*."""
        tri, l0 = instances.random_instance(np.random.default_rng(cli_seed))
        targets = np.ones(tri.n_boundaries)
        common = ["--seed", str(cli_seed), "--targets", "1", "--tol", repr(CLI_SEED_TOL)]
        newton_w = {}

        def check_solve(report):
            if report["status"] != flows.CONVERGED:
                return f"status {report['status']}"
            res = reference.residual_ref(tri, l0, report["w_star"], targets)
            if res > RESIDUAL_SLACK * CLI_SEED_TOL:
                return f"reference residual {res:.3e} above tol {CLI_SEED_TOL:.1e}"
            newton_w["w"] = report["w_star"]
            return None

        def check_flow(report):
            if report["status"] != flows.CONVERGED:
                return f"status {report['status']}"
            res = reference.residual_ref(tri, l0, report["final_w"], targets)
            if res > RESIDUAL_SLACK * CLI_SEED_TOL:
                return f"reference residual {res:.3e} above tol {CLI_SEED_TOL:.1e}"
            if "w" not in newton_w:
                return "no checked Newton w* to compare with"
            gap = reference.max_gap(report["final_w"], newton_w["w"])
            if gap > PLANT_FLOW_GAP:
                return f"{gap:.3e} from Newton's w*"
            return None

        return [
            self._cli_op(index, "seed/solve", ["solve", *common], check_solve),
            self._cli_op(index + 1, "seed/flow p=1", [
                "flow", "--kind", flows.GENERALIZED_YAMABE, "--p", "1", *common], check_flow),
        ]


WORKLOADS = {w.name: w for w in (FlowEnsemble, NewtonSweep, CliCold)}
