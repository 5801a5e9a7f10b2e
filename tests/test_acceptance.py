"""End-to-end acceptance gate: ten independently checkable claims.

Each test covers one claim at its stated tolerance and prints one summary
line; `pytest -v` therefore shows one pass/fail line per claim.  Random
ensembles are seeded and the flow ensembles are screened for moderate
Jacobian spectra so that the default explicit integrator resolves every
modal rate without step-size throttling.
"""

import numpy as np
import pytest

from hypflow import instances
from hypflow.conformal import admissibility_margin, boundary_lengths
from hypflow.energy import c_value, segment_flux, upsilon_value
from hypflow.flows import FlowSpec, decay_rate, integrate, vector_field
from hypflow.jacobian import _power, boundary_jacobian
from hypflow.newton import solve_prescribed

PANTS = instances.pair_of_pants()
TORUS = instances.one_holed_torus()
SYM_L0 = np.full(3, instances.PANTS_EDGE_LENGTH)

S_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0)
P_VALUES = (0.0, 0.5, 1.0, 1.5)


def _mixed_ensemble(count, seed):
    """pants + torus + random meshes with admissible factors."""
    rng = np.random.default_rng(seed)
    cases = [(PANTS, SYM_L0), (TORUS, SYM_L0)]
    while len(cases) < count:
        cases.append(instances.random_instance(rng))
    out = []
    for tri, l0 in cases:
        out.append((tri, l0, instances.random_admissible_factor(rng, tri, l0)))
    return out


def _screened_flow_cases(count, seed):
    """Random instances with planted targets and nearby admissible starts.

    Instances are resampled until the Jacobian spectrum at the planted
    point lies in [0.5, 2.5]: then every modal rate lambda^(s+1) for
    s in [-1, 2] stays within the default step's stability region and the
    slowest mode converges in ~130 time units, so each run is a clean,
    budget-friendly exponential decay.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        tri, l0 = instances.random_instance(rng)
        w_plant = instances.random_admissible_factor(rng, tri, l0)
        lam = np.linalg.eigvalsh(-boundary_jacobian(tri, l0, w_plant))
        if lam[0] < 0.5 or lam[-1] > 2.5:
            continue
        targets = boundary_lengths(tri, l0, w_plant)
        while True:
            w0 = w_plant + rng.uniform(-0.1, 0.1, tri.n_boundaries)
            if admissibility_margin(tri, l0, w0).min() > 1e-3:
                break
        cases.append((tri, l0, targets, w0))
    return cases


@pytest.fixture(scope="module")
def flow_cases():
    cases = [(PANTS, SYM_L0, np.ones(3), np.zeros(3))]
    cases += _screened_flow_cases(20, seed=20250814)
    return cases


def _run_target_flow_checks(cases, specs_for):
    worst = {"residual": 0.0, "w_gap": 0.0, "r2": 1.0, "energy_step": -np.inf}
    for tri, l0, targets, w0 in cases:
        w_star = solve_prescribed(tri, l0, targets).w_star
        for spec in specs_for(targets):
            traj = integrate(tri, l0, w0, spec)
            assert traj.status == "Converged"
            worst["residual"] = max(worst["residual"],
                                    float(np.max(np.abs(traj.Bs[-1] - targets))))
            worst["w_gap"] = max(worst["w_gap"],
                                 float(np.max(np.abs(traj.ws[-1] - w_star))))
            worst["energy_step"] = max(worst["energy_step"],
                                       float(np.max(np.diff(traj.energies))))
            worst["r2"] = min(worst["r2"], decay_rate(traj).r_squared)
            yield traj, spec, targets, worst


def _hexagon_arcs(sides):
    """arcs[m], the arc opposite sides[m]: the pants with base metric `sides`
    at w = 0 is two copies of that hexagon, with B = 2 (t_1, t_2, t_0)."""
    return boundary_lengths(PANTS, sides, np.zeros(3))[[2, 0, 1]] / 2.0


def test_c01_hexagon_kernel():
    rng = np.random.default_rng(101)
    sides = rng.uniform(0.2, 8.0, size=(10000, 3))
    arcs = np.array([_hexagon_arcs(s) for s in sides])
    c, s = np.cosh(sides), np.sinh(sides)
    lhs = np.cosh(arcs) * np.roll(s, -1, axis=1) * np.roll(s, -2, axis=1)
    rhs = c + np.roll(c, -1, axis=1) * np.roll(c, -2, axis=1)
    residual = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs)))
    assert residual < 1e-10

    side = float(np.arccosh(2.0))
    eq_err = np.max(np.abs(_hexagon_arcs(np.full(3, side)) - side))
    assert eq_err < 1e-12

    # degeneration probes: two sides growing kill the opposite arc ...
    decreasing = [_hexagon_arcs(np.array([1.0, big, big]))[0]
                  for big in (20.0, 40.0, 80.0)]
    assert decreasing[0] > decreasing[1] > decreasing[2] > 0.0
    assert decreasing[2] < 1e-10
    # ... while both flanking sides shrinking blow it up
    growing = [_hexagon_arcs(np.array([1.0, eps, eps]))[0]
               for eps in (1e-1, 1e-2, 1e-3)]
    assert growing[0] < growing[1] < growing[2]
    assert growing[2] > 10.0

    print(f"\n[criterion 1] PASS hexagon kernel: residual {residual:.2e}, "
          f"equilateral {eq_err:.2e}, limit probes ok")


def test_c02_jacobian_structure():
    cases = _mixed_ensemble(200, seed=202)
    worst_sym = worst_fd = 0.0
    worst_eig = -np.inf
    for tri, l0, w in cases:
        L = boundary_jacobian(tri, l0, w)
        n = tri.n_boundaries
        scale = np.max(np.abs(L))
        worst_sym = max(worst_sym, np.max(np.abs(L - L.T)) / scale)
        assert np.max(np.abs(L - L.T)) < 1e-9 * scale
        diag = np.abs(np.diag(L))
        assert np.all(diag >= np.sum(np.abs(L), axis=1) - diag)
        worst_eig = max(worst_eig, float(np.max(np.linalg.eigvalsh(L))))
        assert worst_eig < 0

        h = 1e-5
        fd = np.zeros((n, n))
        for q in range(n):
            bump = np.zeros(n)
            bump[q] = h
            fd[:, q] = (boundary_lengths(tri, l0, w + bump)
                        - boundary_lengths(tri, l0, w - bump)) / (2 * h)
        rel = np.max(np.abs(L - fd) / np.maximum(np.abs(fd), 1e-8 * np.max(np.abs(fd))))
        worst_fd = max(worst_fd, rel)
        assert rel < 1e-6

    print(f"\n[criterion 2] PASS jacobian structure on 200 instances: "
          f"asymmetry {worst_sym:.2e}, max eigenvalue {worst_eig:.2e}, "
          f"FD mismatch {worst_fd:.2e}")


def test_c03_fractional_power():
    rng = np.random.default_rng(303)
    worst_id = worst_recon = worst_sqrt = worst_semi = 0.0
    for _ in range(20):
        tri, l0 = instances.random_instance(rng)
        w = instances.random_admissible_factor(rng, tri, l0)
        L = boundary_jacobian(tri, l0, w)
        n = tri.n_boundaries

        worst_id = max(worst_id, np.max(np.abs(_power(L, 0.0)[0] - np.eye(n))))
        worst_recon = max(worst_recon, np.max(np.abs(_power(L, 1.0)[0] + L)))
        half = _power(L, 0.5)[0]
        worst_sqrt = max(worst_sqrt, np.max(np.abs(half @ half + L)))
        s, t = rng.uniform(-2.0, 2.0, 2)
        semi = np.max(np.abs(_power(L, s)[0] @ _power(L, t)[0] - _power(L, s + t)[0]))
        worst_semi = max(worst_semi, semi)

    assert worst_id < 1e-10 and worst_recon < 1e-10
    assert worst_sqrt < 1e-8 and worst_semi < 1e-8
    print(f"\n[criterion 3] PASS fractional power: identity {worst_id:.2e}, "
          f"reconstruction {worst_recon:.2e}, sqrt {worst_sqrt:.2e}, "
          f"semigroup {worst_semi:.2e}")


def test_c04_potential_well_defined():
    rng = np.random.default_rng(404)
    worst_path = worst_grad = worst_hess = 0.0
    cases = [(PANTS, SYM_L0)] + [instances.random_instance(rng) for _ in range(4)]
    for tri, l0 in cases:
        n = tri.n_boundaries
        w = instances.random_admissible_factor(rng, tri, l0)
        mid = instances.random_admissible_factor(rng, tri, l0)
        zero = np.zeros(n)

        direct = segment_flux(tri, l0, zero, w)
        legs = segment_flux(tri, l0, zero, mid) + segment_flux(tri, l0, mid, w)
        worst_path = max(worst_path, abs(direct - legs))

        B = boundary_lengths(tri, l0, w)
        h = 1e-6
        for q in range(n):
            bump = np.zeros(n)
            bump[q] = h
            fd = (segment_flux(tri, l0, zero, w + bump)
                  - segment_flux(tri, l0, zero, w - bump)) / (2 * h)
            worst_grad = max(worst_grad, abs(fd + B[q]) / abs(B[q]))

        L = boundary_jacobian(tri, l0, w)
        h = 1e-4
        for q in range(n):
            bump = np.zeros(n)
            bump[q] = h
            col = -(boundary_lengths(tri, l0, w + bump)
                    - boundary_lengths(tri, l0, w - bump)) / (2 * h)
            worst_hess = max(worst_hess, float(np.max(np.abs(col - (-L[:, q])))))

    assert worst_path < 1e-8
    assert worst_grad < 1e-6
    assert worst_hess < 1e-4
    print(f"\n[criterion 4] PASS potential: path independence {worst_path:.2e}, "
          f"gradient {worst_grad:.2e} rel, hessian {worst_hess:.2e} abs")


def test_c05_fractional_calabi_convergence(flow_cases):
    # tol below the asserted 1e-8 so the fitted tail is pure exponential
    def specs(targets):
        return [FlowSpec(kind="fractional-calabi", targets=targets, s=s, tol=1e-10)
                for s in S_VALUES]

    worst = None
    for traj, spec, targets, worst in _run_target_flow_checks(flow_cases, specs):
        pass
    assert worst["residual"] < 1e-8
    assert worst["w_gap"] < 1e-6
    assert worst["energy_step"] <= 0.0
    assert worst["r2"] > 0.99
    print(f"\n[criterion 5] PASS flow (fractional, s in {S_VALUES}) on "
          f"{len(flow_cases)} instances: residual {worst['residual']:.2e}, "
          f"oracle gap {worst['w_gap']:.2e}, max energy step "
          f"{worst['energy_step']:.2e}, min R^2 {worst['r2']:.5f}")


def test_c06_generalized_yamabe_convergence(flow_cases):
    def specs(targets):
        return [FlowSpec(kind="generalized-yamabe", targets=targets, p=p, tol=1e-10)
                for p in P_VALUES]

    worst = None
    min_g = np.inf
    for traj, spec, targets, worst in _run_target_flow_checks(flow_cases, specs):
        Bs = np.asarray(traj.Bs)
        g = ((2.0 - spec.p) * Bs + spec.p * targets) / Bs ** (spec.p + 1.0)
        min_g = min(min_g, float(g.min()))
    assert worst["residual"] < 1e-8
    assert worst["w_gap"] < 1e-6
    assert worst["energy_step"] <= 0.0
    assert worst["r2"] > 0.99
    assert min_g > 0.0
    print(f"\n[criterion 6] PASS flow (yamabe, p in {P_VALUES}) on "
          f"{len(flow_cases)} instances: residual {worst['residual']:.2e}, "
          f"oracle gap {worst['w_gap']:.2e}, max energy step "
          f"{worst['energy_step']:.2e}, min R^2 {worst['r2']:.5f}, "
          f"min g {min_g:.3f}")


def test_c07_cross_flow_factor_two():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        tri, l0 = instances.random_instance(rng)
        w = instances.random_admissible_factor(rng, tri, l0)
        targets = boundary_lengths(tri, l0, w) * rng.uniform(0.5, 1.5, tri.n_boundaries)
        v_s0 = vector_field(tri, l0, w,
                            FlowSpec(kind="fractional-calabi", targets=targets, s=0.0))
        v_p0 = vector_field(tri, l0, w,
                            FlowSpec(kind="generalized-yamabe", targets=targets, p=0.0))
        scale = np.max(np.abs(v_p0))
        if scale > 0:
            worst = max(worst, float(np.max(np.abs(v_p0 - 2.0 * v_s0)) / scale))
    assert worst < 1e-12

    w0 = np.full(3, 0.3)
    targets = np.ones(3)
    rate_s0 = decay_rate(integrate(PANTS, SYM_L0, w0,
                         FlowSpec(kind="fractional-calabi", targets=targets, s=0.0))).rate
    rate_p0 = decay_rate(integrate(PANTS, SYM_L0, w0,
                         FlowSpec(kind="generalized-yamabe", targets=targets, p=0.0))).rate
    ratio = rate_p0 / rate_s0
    assert abs(ratio - 2.0) < 0.2
    print(f"\n[criterion 7] PASS cross-flow: field mismatch {worst:.2e} "
          f"over 1000 states, decay ratio {ratio:.4f}")


def test_c08_guo_flow_monotone():
    rng = np.random.default_rng(808)
    spec = FlowSpec(kind="guo", tol=1e-3, t_max=1e4, step=0.5)
    for k in range(10):
        w0 = instances.random_admissible_factor(rng, PANTS, SYM_L0)
        traj = integrate(PANTS, SYM_L0, w0, spec)
        assert traj.status == "Converged"
        assert np.max(np.abs(traj.Bs[-1])) < 1e-3
        assert np.all(np.diff(np.asarray(traj.Bs), axis=0) < 0)
        assert np.all(np.diff(np.asarray(traj.ws), axis=0) > 0)
    print("\n[criterion 8] PASS guo flow: 10 starts, B strictly decreasing to "
          "< 1e-3, w strictly increasing")


def test_c09_newton_plant_and_recover():
    rng = np.random.default_rng(909)
    worst_rec = worst_agree = 0.0
    for _ in range(100):
        tri, l0 = instances.random_instance(rng)
        w_plant = instances.random_admissible_factor(rng, tri, l0)
        targets = boundary_lengths(tri, l0, w_plant)
        report = solve_prescribed(tri, l0, targets)
        assert report.converged
        worst_rec = max(worst_rec, float(np.max(np.abs(report.w_star - w_plant))))

        other = instances.random_admissible_factor(rng, tri, l0)
        report2 = solve_prescribed(tri, l0, targets, w_init=other)
        worst_agree = max(worst_agree,
                          float(np.max(np.abs(report.w_star - report2.w_star))))
    assert worst_rec < 1e-8
    assert worst_agree < 1e-7
    print(f"\n[criterion 9] PASS newton: recovery {worst_rec:.2e}, "
          f"start independence {worst_agree:.2e} over 100 instances")


def test_c10_properness_probes():
    targets = np.ones(3)
    w_star = solve_prescribed(PANTS, SYM_L0, targets, tol=1e-10).w_star
    m0 = admissibility_margin(PANTS, SYM_L0, w_star).min()
    lams, xis = [], []
    for margin in (1e-1, 1e-2, 1e-3):
        # uniform downhill ray: every margin falls at rate 2, so the probe
        # point with the requested minimum margin is explicit
        w = w_star - 0.5 * (m0 - margin) * np.ones(3)
        assert abs(admissibility_margin(PANTS, SYM_L0, w).min() - margin) < 1e-12
        gap = segment_flux(PANTS, SYM_L0, w_star, w, targets)
        B = boundary_lengths(PANTS, SYM_L0, w)
        lams.append(gap + c_value(B, targets))
        xis.append(gap + upsilon_value(B, targets, 1.0))
    assert lams[0] < lams[1] < lams[2]
    assert xis[0] < xis[1] < xis[2]
    print(f"\n[criterion 10] PASS properness: Lambda {lams[0]:.2f} -> "
          f"{lams[1]:.2f} -> {lams[2]:.2f}, Xi {xis[0]:.2f} -> {xis[1]:.2f} "
          f"-> {xis[2]:.2f} as margins shrink 1e-1 -> 1e-3")
