import dataclasses
import math

import numpy as np
import pytest

from kamforge.diophantine import DiophantineParams
from kamforge.errors import DomainError, EscapeError
from kamforge.fourier import ActionGrid, ActionJet, FourierField
from kamforge.kam import (KamParams, KamState, _invert_change, cubic_contraction,
                          extract_torus, invariance_defect, kam_iterate, kam_step)
from kamforge.normal_form import Change

from jets import kam_hamiltonian

OMEGA = np.array([(1 + np.sqrt(5)) / 2, 1.3247179572447460])
OMEGA_MAT = np.array([[0.45, 0.08], [0.08, 0.55]])
S0_STRIP = 0.3
R_BALL = 1e-3
DC = DiophantineParams(d=2, gamma=5e-3, eps=1.0, a=1.0, K_split=30, K_check=300)


def ball_noise_field(rng, vshape, scale, K=3, sym=False):
    """Conjugate-symmetric noise on every mode of the order-K ball."""
    modes = [(k1, k2, l)
             for k1 in range(-K, K + 1)
             for k2 in range(-K, K + 1)
             for l in range(-K, K + 1)
             if 0 < abs(k1) + abs(k2) + abs(l) <= K or (k1, k2, l) == (0, 0, 0)]
    idx = {m: i for i, m in enumerate(modes)}
    c = np.zeros((len(modes),) + vshape, dtype=complex)
    for m in modes:
        mm = tuple(-x for x in m)
        if np.abs(c[idx[m]]).max(initial=0.0) > 0:
            continue
        val = (rng.normal(size=vshape) + 1j * rng.normal(size=vshape)) * scale
        if m == mm:
            val = val.real.astype(complex)
        c[idx[m]] = val
        c[idx[mm]] = np.conj(val)
    if sym:
        c[:] = 0.5 * (c + np.swapaxes(c, -1, -2))
    return FourierField(2, np.array(modes, dtype=np.int64), c, vshape=vshape).prune()


def make_state(rng, with_high=True):
    R0 = ball_noise_field(rng, (), 1e-5)
    R1 = ball_noise_field(rng, (2,), 1e-5)
    R2 = ball_noise_field(rng, (2, 2), 1e-5, sym=True)
    grid = ActionGrid(np.zeros(2), R_BALL, 5)
    if with_high:
        base = ball_noise_field(rng, (), 1e-6)
        u = grid.node_points() / R_BALL
        cubic = (u[..., 0] ** 3 + 0.5 * u[..., 1] ** 2 * u[..., 0]) * R_BALL**3
        high = FourierField(2, base.modes, base.coeffs[:, None, None] * cubic[None],
                            grid=grid)
    else:
        high = FourierField.zero(2, grid=grid)
    return KamState(m=0, eps=1.0, a=1.0, omega=OMEGA, Omega=OMEGA_MAT,
                    low=ActionJet(r0=R0, r1=R1, r2=R2), high=high,
                    const=0.0, s=S0_STRIP, r=R_BALL, grid=grid,
                    s0=S0_STRIP, r0=R_BALL)


def make_tail_state(rng):
    """make_state's low jet with a cubic tail of norm about 2.8e-6, large enough to matter."""
    state = make_state(rng)
    noise = ball_noise_field(rng, (), 1e-8)
    u = state.grid.node_points() / R_BALL
    cubic = u[..., 0] ** 3 + 0.5 * u[..., 1] ** 2 * u[..., 0] + 0.3 * u[..., 1] ** 3
    high = FourierField(2, noise.modes, noise.coeffs[:, None, None] * cubic[None],
                        grid=state.grid)
    return dataclasses.replace(state, high=high)


def make_params(**kw):
    kw.setdefault("K_cap", 7)
    kw.setdefault("tol", 1e-30)
    kw.setdefault("max_steps", 3)
    return KamParams(dc=DC, **kw)


@pytest.fixture(scope="module")
def steps():
    states = [make_state(np.random.default_rng(11))]
    params = make_params()
    for _ in range(3):
        states.append(kam_step(states[-1], params))
    return states


def test_low_norm_weighs_jet_by_ball_radius():
    state = make_state(np.random.default_rng(11))
    r0_osc = state.low.r0 - state.low.r0.time_average().angle_average()
    expect = (r0_osc.norm(S0_STRIP) + state.r * state.low.r1.norm(S0_STRIP)
              + state.r**2 * state.low.r2.norm(S0_STRIP))
    assert state.low_norm() == pytest.approx(expect, rel=1e-14)
    # a constant added to R0 only shifts the energy, never the norm
    shifted = state.low.r0 + FourierField.from_modes(2, {(0, 0, 0): 0.7})
    bumped = KamState(m=0, eps=1.0, a=1.0, omega=OMEGA, Omega=OMEGA_MAT,
                      low=ActionJet(r0=shifted, r1=state.low.r1, r2=state.low.r2),
                      high=FourierField.zero(2, grid=state.grid), const=0.0, s=S0_STRIP,
                      r=R_BALL,
                      grid=state.grid, s0=S0_STRIP, r0=R_BALL)
    assert bumped.low_norm() == pytest.approx(state.low_norm(), rel=1e-12)


def test_quadratic_contraction(steps):
    norms = [s.low_norm() for s in steps]
    assert norms[1] <= 1e-3 * norms[0]
    assert norms[2] <= 1e-5 * norms[1]
    assert norms[3] <= 1e-7 * norms[2]


def assert_step_conjugates(before, after, rng, atol, N=30):
    """The step's Hamiltonian is the old one in the new variables, plus dS/dt."""
    ch = after.changes[-1]
    phi = rng.uniform(0, 2 * np.pi, (N, 2))
    tt = rng.uniform(0, 2 * np.pi, N)
    rho = rng.uniform(-1, 1, (N, 2)) * after.r * 0.9
    theta, II = _invert_change(ch.S, phi, tt, rho)
    lhs = kam_hamiltonian(after, phi, tt, rho)
    rhs = (kam_hamiltonian(before, theta, tt, ch.nu + II)
           + ch.S.time_derivative().evaluate(theta, tt, rho))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=atol)


def test_each_step_conjugates_the_hamiltonian(steps):
    rng = np.random.default_rng(5)
    for m in (1, 2):
        assert_step_conjugates(steps[m - 1], steps[m], rng, atol=1e-10)


def test_cubic_tail_enters_the_step():
    states = [make_tail_state(np.random.default_rng(11))]
    assert states[0].high.norm(S0_STRIP) > 1e-6
    for _ in range(3):
        states.append(kam_step(states[-1], make_params()))
    # low norms 1.5e-3, 1.05e-6, 1.59e-9, 1.51e-13; without the tail's cubic
    # term in S2's equation step 3 ends at 1.05e-11
    assert states[3].low_norm() <= 1e-12
    # measured 2.5e-9, 5.6e-12 and 4.7e-16
    rng = np.random.default_rng(5)
    for m, atol in ((1, 1e-8), (2, 3e-11), (3, 3e-15)):
        assert_step_conjugates(states[m - 1], states[m], rng, atol)


def assert_inversion_solves_the_generating_equations(S, rng, N=30):
    """phi = theta + dS/drho and I = rho + dS/dtheta at the inverted points."""
    phi = rng.uniform(0, 2 * np.pi, (N, 2))
    tt = rng.uniform(0, 2 * np.pi, N)
    rho = S.grid.center + rng.uniform(-1, 1, (N, 2)) * S.grid.tau * 0.9
    theta, II = _invert_change(S, phi, tt, rho)
    srho = S.grad_action().evaluate(theta, tt, rho)
    sth = S.grad_angle().evaluate(theta, tt, rho)
    np.testing.assert_allclose(phi, theta + srho, atol=1e-12)
    np.testing.assert_allclose(II, rho + sth, atol=1e-12)


def test_inversion_solves_the_generating_equations(steps):
    # a KAM step's S around rho = 0
    assert_inversion_solves_the_generating_equations(
        steps[1].changes[-1].S, np.random.default_rng(2))


def test_invert_nf_change_satisfies_implicit_equations():
    # an averaging S on an off-centre ball
    grid = ActionGrid(np.array([1.0, 1.2]), 0.05, 5)
    S = FourierField.from_modes(
        2, {(1, 0, 1): 1e-3, (-1, 0, -1): 1e-3,
            (0, 1, -2): 2e-3j, (0, -1, 2): -2e-3j},
        grid=grid)
    assert_inversion_solves_the_generating_equations(S, np.random.default_rng(2))


def test_kam_generating_function_is_quadratic_in_the_action(steps):
    for st in steps[1:]:
        S = st.changes[-1].S
        d2 = S.grad_action().grad_action()
        d3 = d2.grad_action()
        # roundoff of three spectral derivatives of node values of size |S|
        floor = (np.finfo(float).eps * np.abs(S.coeffs).max()
                 * np.abs(S.grid.diff1d).sum(axis=1).max() ** 3)
        assert np.abs(d3.coeffs).max() <= floor
        # a cubic term as large as the quadratic one over the ball would show
        assert np.abs(d2.coeffs).max() / st.r > 1e3 * floor


def test_action_shift_oracle():
    # constant R1 forces nu = -Omega^\'{-1} mean / 2 and empties the low jet
    cbar = np.array([2e-5, -1e-5])
    R1 = FourierField.from_modes(2, {(0, 0, 0): cbar}, vshape=(2,))
    z = FourierField.zero(2)
    zm = FourierField.zero(2, vshape=(2, 2))
    grid = ActionGrid(np.zeros(2), R_BALL, 5)
    state = KamState(m=0, eps=1.0, a=1.0, omega=OMEGA, Omega=OMEGA_MAT,
                     low=ActionJet(r0=z, r1=R1, r2=zm), high=FourierField.zero(2, grid=grid),
                     const=1.5, s=S0_STRIP, r=R_BALL, grid=grid, s0=S0_STRIP, r0=R_BALL)
    out = kam_step(state, make_params())
    nu = out.changes[0].nu
    np.testing.assert_allclose(nu, -0.5 * np.linalg.solve(OMEGA_MAT, cbar),
                               atol=1e-18)
    assert out.low_norm() <= 1e-20
    assert out.const == pytest.approx(1.5 + float(OMEGA @ nu)
                                      + float(nu @ OMEGA_MAT @ nu), rel=1e-14)
    # S vanishes, so the extracted torus is flat at the shifted action
    I_star = np.array([1.2, 1.4])
    torus = extract_at(out, I_star)
    phi = np.array([[0.3, 5.1], [2.2, 0.7]])
    np.testing.assert_allclose(torus.angles(phi, 0.5), phi, atol=1e-13)
    np.testing.assert_allclose(torus.actions(phi, 0.5),
                               np.broadcast_to(I_star + nu, (2, 2)), rtol=0, atol=1e-15)


def test_action_shift_outside_ball_raises():
    cbar = np.array([1e-3, -1e-3])
    R1 = FourierField.from_modes(2, {(0, 0, 0): cbar}, vshape=(2,))
    z = FourierField.zero(2)
    zm = FourierField.zero(2, vshape=(2, 2))
    grid = ActionGrid(np.zeros(2), R_BALL, 5)
    state = KamState(m=0, eps=1.0, a=1.0, omega=OMEGA, Omega=OMEGA_MAT,
                     low=ActionJet(r0=z, r1=R1, r2=zm), high=FourierField.zero(2, grid=grid),
                     const=0.0, s=S0_STRIP, r=R_BALL, grid=grid, s0=S0_STRIP, r0=R_BALL)
    with pytest.raises(DomainError):
        kam_step(state, make_params())


def test_twist_matrix_update():
    c2 = np.array([[3e-5, 1e-5], [1e-5, -2e-5]])
    R2 = FourierField.from_modes(2, {(0, 0, 0): c2}, vshape=(2, 2))
    z = FourierField.zero(2)
    zv = FourierField.zero(2, vshape=(2,))
    grid = ActionGrid(np.zeros(2), R_BALL, 5)
    state = KamState(m=0, eps=1.0, a=1.0, omega=OMEGA, Omega=OMEGA_MAT,
                     low=ActionJet(r0=z, r1=zv, r2=R2), high=FourierField.zero(2, grid=grid),
                     const=0.0, s=S0_STRIP, r=R_BALL, grid=grid, s0=S0_STRIP, r0=R_BALL)
    out = kam_step(state, make_params())
    np.testing.assert_allclose(out.Omega, OMEGA_MAT + c2, atol=1e-18)
    assert out.diagnostics[-1]["dOmega"] == pytest.approx(np.abs(c2).max())
    assert out.low_norm() <= 1e-18


# node polynomials in u = rho / R_BALL, degree <= 4 per axis, with mixed terms;
# only the cubic monomials reach the third derivatives at rho = 0
CUBIC_POLYS = [
    {(3, 0): 1.0, (1, 2): 0.5, (2, 3): -0.7, (4, 4): 0.2, (1, 4): 0.9, (2, 0): 0.3},
    {(0, 3): 1.0, (2, 1): -0.4, (3, 3): 0.6, (4, 2): 0.3, (4, 0): -0.8},
]


def third_derivatives(poly):
    """Tensor d^3 P / d rho_i d rho_j d rho_k at 0 of P(rho / R_BALL) * R_BALL^3."""
    T = np.zeros((2, 2, 2))
    for alpha, a in poly.items():
        if sum(alpha) != 3:
            continue
        for idx in np.ndindex(2, 2, 2):
            if (idx.count(0), idx.count(1)) == alpha:
                T[idx] = a * math.factorial(alpha[0]) * math.factorial(alpha[1])
    return T


def test_cubic_contraction_is_exact_on_node_polynomials():
    rng = np.random.default_rng(4)
    grid = ActionGrid(np.zeros(2), R_BALL, 5)
    u = grid.node_points() / R_BALL
    base = ball_noise_field(rng, (2,), 1e-6)         # one mode weight per polynomial
    vals = [sum(a * u[..., 0] ** i * u[..., 1] ** j for (i, j), a in poly.items())
            * R_BALL**3 for poly in CUBIC_POLYS]
    coeffs = sum(base.coeffs[:, p, None, None] * vals[p][None] for p in range(2))
    high = FourierField(2, base.modes, coeffs, grid=grid)
    nshape = (8, 8, 8)
    w = rng.standard_normal(nshape + (2,))
    got = cubic_contraction(high, w, nshape)

    axes = [2 * np.pi * np.arange(n) / n for n in nshape]
    th0, th1, tt = np.meshgrid(*axes, indexing="ij")
    phase = np.exp(1j * (th0[..., None] * base.modes[:, 0] + th1[..., None] * base.modes[:, 1]
                         + tt[..., None] * base.modes[:, 2]))   # (*nshape, M)
    D3 = np.stack([third_derivatives(poly) for poly in CUBIC_POLYS])
    tensor = np.einsum("...m,mp,pijk->...ijk", phase, base.coeffs, D3).real
    expect = np.einsum("...ijk,...i->...jk", tensor, w)
    assert got.shape == nshape + (2, 2)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_iterate_stops_at_tolerance():
    state = make_state(np.random.default_rng(11))
    out = kam_iterate(state, make_params(tol=1e-6, max_steps=5))
    assert out.m == 1
    assert out.low_norm() <= 1e-6


def test_diagnostics_rows_have_stable_keys(steps):
    rows = steps[-1].diagnostics
    keys = set(rows[0])
    for row in rows:
        assert set(row) == keys
    assert [row["m"] for row in rows] == [1, 2, 3]


def flat_torus(I_star, omega, eps=0.1):
    z = FourierField.zero(2)
    zv = FourierField.zero(2, vshape=(2,))
    zm = FourierField.zero(2, vshape=(2, 2))
    grid = ActionGrid(np.zeros(2), 1e-4, 5)
    kam_state = KamState(m=0, eps=eps, a=1.0, omega=omega, Omega=np.eye(2),
                         low=ActionJet(r0=z, r1=zv, r2=zm), high=FourierField.zero(2, grid=grid),
                         const=0.0, s=0.3, r=1e-4, grid=grid, s0=0.3, r0=1e-4)
    return extract_at(kam_state, I_star)


def extract_at(kam_state, I_star):
    """Torus of a KAM state whose chain starts with the recentring at I_star."""
    recentre = Change(FourierField.zero(2, grid=kam_state.grid), I_star)
    chain = dataclasses.replace(kam_state, changes=[recentre] + kam_state.changes)
    return extract_torus(chain, n_phi=8, n_t=8)


def test_extract_flat_torus():
    I_star = np.array([1.2, 1.4])
    torus = flat_torus(I_star, OMEGA)
    np.testing.assert_allclose(torus.omega, 10.0 * OMEGA, rtol=1e-15)
    phi = np.array([[0.3, 5.1], [2.2, 0.7]])
    np.testing.assert_allclose(torus.angles(phi, 0.5), phi, atol=1e-13)
    np.testing.assert_allclose(torus.actions(phi, 0.5),
                               np.broadcast_to(I_star, (2, 2)), atol=1e-13)


def test_invariance_defect_vanishes_for_linear_flow():
    I_star = np.array([1.2, 1.4])
    torus = flat_torus(I_star, OMEGA)

    def chart(theta, I):
        return np.concatenate([np.atleast_2d(theta), np.atleast_2d(I)], axis=-1)

    def flow(z, t0, T):
        out = np.array(z, dtype=float)
        out[:, :2] += torus.omega[None, :] * T
        return out

    assert invariance_defect(torus, flow, chart, 7.0, n_samples=4, seed=0) <= 1e-10


def test_invariance_defect_is_infinite_on_escape():
    torus = flat_torus(np.array([1.2, 1.4]), OMEGA)

    def chart(theta, I):
        return np.concatenate([np.atleast_2d(theta), np.atleast_2d(I)], axis=-1)

    def flow(z, t0, T):
        raise EscapeError("trajectory left the integration box")

    assert invariance_defect(torus, flow, chart, 7.0, n_samples=8, seed=0) == float("inf")


def test_domain_shrink_factors_stay_close_to_one():
    assert KamParams.shrink(0) == 1.0
    vals = [KamParams.shrink(m) for m in range(1, 50)]
    assert all(v > 0.99 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
