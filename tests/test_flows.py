"""Flow vector fields, the guarded integrator, decay fits, and CSV export."""

import numpy as np
import pytest

from hypflow import flows, instances
from hypflow.conformal import Problem, admissibility_margin, boundary_lengths
from hypflow.errors import InadmissibleFactor, InsufficientData, StepCollapse
from hypflow.flows import (
    FlowSpec,
    csv_header,
    decay_rate,
    integrate,
    vector_field,
    write_trajectory_csv,
)
from hypflow.jacobian import _power, boundary_jacobian
from hypflow.newton import solve_prescribed

TARGETS = np.array([1.0, 1.0, 1.0])


def test_vector_field_shapes(pants, symmetric_l0):
    w = np.zeros(3)
    B = boundary_lengths(pants, symmetric_l0, w)
    guo = vector_field(pants, symmetric_l0, w, FlowSpec(kind="guo"))
    assert np.array_equal(guo, B)

    calabi0 = vector_field(pants, symmetric_l0, w,
                           FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0))
    assert np.array_equal(calabi0, B - TARGETS)  # s = 0 is exact, no eigensolve

    yamabe0 = vector_field(pants, symmetric_l0, w,
                           FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=0.0))
    assert np.array_equal(yamabe0, 2.0 * (B - TARGETS))

    calabi1 = vector_field(pants, symmetric_l0, w,
                           FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0))
    L = boundary_jacobian(pants, symmetric_l0, w)
    assert np.allclose(calabi1, _power(L, 1.0)[0] @ (B - TARGETS),
                       rtol=0, atol=1e-14)


def test_vector_field_zero_at_fixed_point(pants, symmetric_l0):
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS, tol=1e-12).w_star
    for spec in (FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.7),
                 FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=1.2)):
        v = vector_field(pants, symmetric_l0, w_star, spec)
        assert np.max(np.abs(v)) < 10 * 1e-8


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec(kind="unknown")
    with pytest.raises(ValueError):
        FlowSpec(kind="fractional-calabi")  # missing targets
    with pytest.raises(ValueError):
        FlowSpec(kind="generalized-yamabe", targets=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        FlowSpec(kind="generalized-yamabe", targets=np.ones(2), p=2.0)
    with pytest.raises(ValueError):
        FlowSpec(kind="guo", step=0.0)
    with pytest.raises(ValueError):
        FlowSpec(kind="guo", tol=-1.0)
    # NaN fails no comparison-based bound, so every number is checked to be finite
    for name in ("s", "p", "step", "tol", "t_max", "safety"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError):
                FlowSpec(kind="fractional-calabi", targets=TARGETS, **{name: value})


def test_fractional_calabi_converges_to_newton_solution(pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert np.max(np.abs(traj.Bs[-1] - TARGETS)) < 1e-8
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS).w_star
    assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6
    assert traj.energy_kind == "lambda"
    assert np.all(np.diff(traj.energies) <= 0)
    assert np.all(np.diff(traj.ts) > 0)
    # every sample stays clear of the admissibility boundary
    margins = np.array([admissibility_margin(pants, symmetric_l0, w).min()
                        for w in traj.ws])
    assert np.all(margins >= spec.safety)


def test_generalized_yamabe_same_limit(pants, symmetric_l0):
    spec = FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS).w_star
    assert np.max(np.abs(traj.ws[-1] - w_star)) < 1e-6
    assert traj.energy_kind == "xi"
    assert np.all(np.diff(traj.energies) <= 0)


def test_guo_flow_monotone(pants, symmetric_l0):
    spec = FlowSpec(kind="guo", tol=1e-2, t_max=1e3)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert np.all(np.diff(np.asarray(traj.Bs), axis=0) < 0)
    assert np.all(np.diff(np.asarray(traj.ws), axis=0) > 0)
    assert traj.energy_kind == "phi"
    assert np.all(np.diff(traj.energies) < 0)


def test_guo_budget_exhaustion_reported(pants, symmetric_l0):
    traj = integrate(pants, symmetric_l0, np.zeros(3),
                     FlowSpec(kind="guo", tol=1e-8, t_max=5.0))
    assert traj.status == "TimeBudgetExhausted"
    assert traj.ts[-1] <= 5.0 + 1e-12


def test_start_at_fixed_point(pants, symmetric_l0):
    targets = boundary_lengths(pants, symmetric_l0, np.zeros(3))
    spec = FlowSpec(kind="fractional-calabi", targets=targets, s=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert traj.n_samples == 1
    with pytest.raises(InsufficientData):
        decay_rate(traj)


def test_inadmissible_start_rejected(pants, symmetric_l0):
    with pytest.raises(InadmissibleFactor):
        integrate(pants, symmetric_l0, np.full(3, -0.35),
                  FlowSpec(kind="guo"))


def test_step_collapse_carries_partial_trajectory(pants, symmetric_l0):
    # target w* sits at a smaller admissibility margin than w0; with safety
    # set between the two, every step toward w* must eventually be rejected
    targets = np.full(3, 5.0)
    w_star = solve_prescribed(pants, symmetric_l0, targets).w_star
    m_star = admissibility_margin(pants, symmetric_l0, w_star).min()
    spec = FlowSpec(kind="fractional-calabi", targets=targets, s=0.0,
                    safety=4.0 * m_star)
    with pytest.raises(StepCollapse) as exc:
        integrate(pants, symmetric_l0, np.zeros(3), spec)
    traj = exc.value.trajectory
    assert traj.status == "GuardTriggered"
    assert traj.n_samples >= 1
    margins = np.array([admissibility_margin(pants, symmetric_l0, w).min()
                        for w in traj.ws])
    assert np.all(margins >= spec.safety)


def test_each_step_evaluates_b_five_times(pants, symmetric_l0, monkeypatch):
    """Per accepted step: three RK4 stages, the field at the step's end, and
    one 48-state batch for the energy quadrature's first two levels."""
    shapes = []
    boundary = Problem._boundary

    def counting(self, w, safety):
        shapes.append(w.shape)
        return boundary(self, w, safety)

    solve = flows._solve

    def solve_unrecorded(*args, **kwargs):
        report = solve(*args, **kwargs)
        shapes.clear()  # the Newton pre-solve and the initial B are not stepping
        return report

    monkeypatch.setattr(Problem, "_boundary", counting)
    monkeypatch.setattr(flows, "_solve", solve_unrecorded)
    traj = integrate(pants, symmetric_l0, np.zeros(3),
                     FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0))
    assert traj.status == "Converged" and traj.rejected_steps == 0
    k1 = shapes.index((3,))
    assert k1 >= 1 and all(len(shape) == 2 for shape in shapes[:k1])  # initial energy
    assert shapes[k1 + 1:] == ([(3,)] * 4 + [(48, 3)]) * traj.accepted_steps


def test_decay_rate_fits_converged_run(pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    fit = decay_rate(traj)
    assert fit.rate > 0
    assert fit.r_squared > 0.99
    assert fit.n_samples >= 10


def test_decay_rate_factor_two(pants, symmetric_l0):
    w0 = np.full(3, 0.3)
    r0 = decay_rate(integrate(pants, symmetric_l0, w0,
                    FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0))).rate
    r1 = decay_rate(integrate(pants, symmetric_l0, w0,
                    FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=0.0))).rate
    assert abs(r1 / r0 - 2.0) < 0.2


def test_fixed_point_residual_bound(pants, symmetric_l0):
    # the flow field at the Newton solution is below 10x the solve tolerance
    report = solve_prescribed(pants, symmetric_l0, TARGETS, tol=1e-8)
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=0.0)
    assert np.max(np.abs(vector_field(pants, symmetric_l0, report.w_star, spec))) \
        < 10 * 1e-8


def test_integration_is_deterministic(pants, symmetric_l0):
    spec = FlowSpec(kind="generalized-yamabe", targets=TARGETS, p=0.5)
    a = integrate(pants, symmetric_l0, np.full(3, 0.2), spec)
    b = integrate(pants, symmetric_l0, np.full(3, 0.2), spec)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.ws, b.ws)
    assert np.array_equal(a.energies, b.energies)
    assert a.accepted_steps == b.accepted_steps
    assert a.rejected_steps == b.rejected_steps


def test_step_growth_capped_at_initial(pants, symmetric_l0):
    spec = FlowSpec(kind="guo", tol=1e-2, t_max=1e3, step=0.2)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert np.max(np.diff(traj.ts)) <= spec.step + 1e-12


def test_csv_round_trip(tmp_path, pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)

    lines = path.read_text().splitlines()
    assert lines[0] == "t,w_1,w_2,w_3,B_1,B_2,B_3,residual,energy"
    assert lines[0] == csv_header(3)
    assert len(lines) == traj.n_samples + 1

    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits reproduce every double bit-for-bit
    assert np.array_equal(data[:, 0], traj.ts)
    assert np.array_equal(data[:, 1:4], np.asarray(traj.ws))
    assert np.array_equal(data[:, 4:7], np.asarray(traj.Bs))
    assert np.array_equal(data[:, 7], traj.residuals)
    assert np.array_equal(data[:, 8], traj.energies)


def test_trajectory_samples_property(pants, symmetric_l0):
    spec = FlowSpec(kind="fractional-calabi", targets=TARGETS, s=1.0)
    w0 = np.full(3, 0.1)
    traj = integrate(pants, symmetric_l0, w0, spec)
    for series in (traj.ws, traj.Bs, traj.residuals, traj.energies):
        assert len(series) == traj.n_samples
    assert traj.ts[0] == 0.0 and np.array_equal(traj.ws[0], w0)


def test_decay_rate_refuses_stalled_tail():
    # fractional-calabi s=1 strands on this instance: the residual stays
    # near 1 while the tail still fits a line (R2 = 1) at a rate of 1.5e-10
    tri, l0 = instances.random_instance(np.random.default_rng(0))
    spec = FlowSpec(kind="fractional-calabi", targets=np.ones(tri.n_boundaries),
                    s=1.0, t_max=20.0)
    traj = integrate(tri, l0, np.zeros(tri.n_boundaries), spec)
    assert traj.status == "TimeBudgetExhausted"
    with pytest.raises(InsufficientData):
        decay_rate(traj)


# the README `compare --s=-1,0,1 --p=0,1` table on the pants, targets 1:
# (kind, param, samples, decay_rate, final_residual) as printed with %.17g
README_COMPARE = [
    ("fractional-calabi", -1.0, 166, 0.99999909471081461, 9.5038490410814802e-09),
    ("fractional-calabi", 0.0, 68, 2.459391643913019, 8.1194144740948104e-09),
    ("fractional-calabi", 1.0, 28, 6.0378506757312449, 8.2374667087492526e-09),
    ("generalized-yamabe", 0.0, 35, 4.9153441864333551, 6.4261498344819756e-09),
    ("generalized-yamabe", 1.0, 35, 4.9153288856480453, 7.7846193935471319e-09),
]


@pytest.mark.parametrize("kind, param, samples, rate, residual", README_COMPARE)
def test_readme_compare_table_is_pinned(pants, symmetric_l0, kind, param, samples,
                                        rate, residual):
    # a kernel change that moves a trajectory by one rounding shows here
    spec = FlowSpec(kind=kind, targets=TARGETS,
                    s=param if kind == "fractional-calabi" else 0.0,
                    p=param if kind == "generalized-yamabe" else 0.0)
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.n_samples == samples
    assert traj.residuals[-1] == residual
    assert decay_rate(traj).rate == rate


def _rk4_rate(lam, h):
    """Decay rate of RK4 with step h on dx/dt = -lam x: -ln R(-h lam) / h."""
    z = -h * lam
    return -np.log(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) / h


@pytest.mark.parametrize("kind, param", [
    ("fractional-calabi", -1.0), ("fractional-calabi", 0.0), ("fractional-calabi", 0.5),
    ("fractional-calabi", 1.0), ("fractional-calabi", 2.0),
    ("generalized-yamabe", 0.0), ("generalized-yamabe", 1.0), ("generalized-yamabe", 1.5),
])
def test_decay_rate_matches_linearization(pants, symmetric_l0, kind, param):
    # the symmetric start excites only the all-ones mode of -L at w*, whose
    # eigenvalue is its Rayleigh quotient mu = 2.4595; the flow linearizes to
    # rate mu^(s+1) (fractional-calabi) or 2 mu (yamabe, g = 2 at B = b = 1).
    # Every step is 0.1, so the fit sees RK4's discrete rate, not the
    # continuous one (off by 13 % at s = 2); measured agreement is 5.2e-6.
    w_star = solve_prescribed(pants, symmetric_l0, TARGETS, tol=1e-12).w_star
    ones = np.ones(3)
    mu = -(ones @ boundary_jacobian(pants, symmetric_l0, w_star) @ ones) / 3.0
    assert abs(mu - 2.459476990) < 1e-9
    if kind == "fractional-calabi":
        spec, lam = FlowSpec(kind=kind, targets=TARGETS, s=param), mu ** (param + 1.0)
    else:
        spec, lam = FlowSpec(kind=kind, targets=TARGETS, p=param), 2.0 * mu
    traj = integrate(pants, symmetric_l0, np.zeros(3), spec)
    assert traj.status == "Converged"
    assert np.allclose(np.diff(traj.ts), spec.step, rtol=0, atol=1e-12)
    assert abs(decay_rate(traj).rate / _rk4_rate(lam, spec.step) - 1.0) < 1e-5
