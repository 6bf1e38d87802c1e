import dataclasses
import math

import numpy as np
import pytest

from kamforge import fourier
from kamforge.diophantine import DiophantineParams
from kamforge.errors import ContractionError, DomainError, SmallDivisorError
from kamforge.fourier import SHIFT_TOL, ActionGrid, FourierField, ShiftGrids, compose_shifted_grid
from kamforge.kam import _invert_change
from kamforge.normal_form import (AveragedResult, HamiltonianSpec,
                                  NormalFormParams, canonical_change,
                                  implicit_angle_shift, initial_state,
                                  locate_expansion_point, push_forward,
                                  solve_fixed_point, solve_homological,
                                  taylor_split, time_average_transform,
                                  twist_compose)
from kamforge.oscillator import PowerLawH0


GOLDEN = np.array([(1 + np.sqrt(5)) / 2, 1.3247179572447460])


def random_real_field(rng, d, K, n_pairs, scale=1.0, vshape=()):
    mapping = {}
    while len(mapping) < 2 * n_pairs:
        mode = tuple(int(x) for x in rng.integers(-K, K + 1, d + 1))
        if sum(abs(x) for x in mode) == 0 or sum(abs(x) for x in mode) > K:
            continue
        if mode in mapping:
            continue
        c = scale * (rng.standard_normal(vshape) + 1j * rng.standard_normal(vshape))
        mapping[mode] = c
        mapping[tuple(-x for x in mode)] = np.conj(c)
    return FourierField.from_modes(d, mapping, vshape=vshape)


def transport_residual(S, R, unsolved, omega, eps, a, rng, n_pts=60):
    """Max of dS/dt + eps^(-a) <omega, dS/dtheta> + (R - unsolved) at points."""
    d = R.d
    th = rng.uniform(0, 2 * np.pi, (n_pts, d))
    tt = rng.uniform(0, 2 * np.pi, n_pts)
    lhs = S.time_derivative().evaluate(th, tt)
    grad = S.grad_angle().evaluate(th, tt)
    for i in range(d):
        lhs = lhs + eps ** (-a) * omega[i] * grad[:, i]
    rhs = R.evaluate(th, tt)
    if unsolved is not None and unsolved.n_modes:
        rhs = rhs - unsolved.evaluate(th, tt)
    return float(np.abs(lhs + rhs).max())


def test_homological_single_mode_closed_form():
    omega = np.array([2.0, np.sqrt(2.0)])
    dc = DiophantineParams(d=2, gamma=1e-3, eps=1.0, a=1.0, K_split=6, K_check=12)
    rng = np.random.default_rng(0)
    th = rng.uniform(0, 2 * np.pi, (40, 2))
    tt = rng.uniform(0, 2 * np.pi, 40)
    modes = np.array([[-1, 0, -1], [1, 0, 1]])
    # R = amp cos(theta_1 + t), with amp = 1 and with amp = I_1 sampled on nodes
    grid = ActionGrid([1.0, 1.2], 1e-3, 3)
    II = grid.center + rng.uniform(-1e-3, 1e-3, (40, 2))
    for R, I, amp in [
        (FourierField(2, modes, np.full(2, 0.5)), None, 1.0),
        (FourierField(2, modes, 0.5 * np.stack([grid.node_points()[..., 0]] * 2), grid=grid),
         II, II[:, 0]),
    ]:
        S = solve_homological(R, omega, dc, regime="split")
        # divisor <k, omega> + l = 3, so S = -amp sin(theta_1 + t) / 3
        np.testing.assert_allclose(S.evaluate(th, tt, I), -amp * np.sin(th[:, 0] + tt) / 3,
                                   atol=1e-14)


@pytest.mark.parametrize("eps,a", [(1.0, 1.0), (0.5, 2.0)])
def test_homological_residual_split_regime(eps, a):
    rng = np.random.default_rng(42)
    R = random_real_field(rng, 2, 6, 20, scale=1e-2)
    dc = DiophantineParams(d=2, gamma=1e-4, eps=eps, a=a, K_split=6, K_check=12)
    S = solve_homological(R, GOLDEN, dc, regime="split")
    res = transport_residual(S, R, R.angle_average(), GOLDEN, eps, a, rng)
    assert res <= 1e-12 * max(1.0, R.norm(0.3))
    # the k = 0 modes stay untouched in the split regime
    assert not np.any(np.abs(S.modes[:, :2]).sum(axis=1) == 0)


def test_homological_residual_full_regime_solves_time_modes():
    rng = np.random.default_rng(7)
    R = random_real_field(rng, 2, 6, 20, scale=1e-2)
    R = R + FourierField.from_modes(2, {(0, 0, 1): 5e-3j, (0, 0, -1): -5e-3j})
    dc = DiophantineParams(d=2, gamma=1e-4, eps=0.5, a=1.0, K_split=6, K_check=12)
    S = solve_homological(R, GOLDEN, dc, regime="full")
    unsolved = R.angle_average().time_average()
    res = transport_residual(S, R, unsolved, GOLDEN, 0.5, 1.0, rng)
    assert res <= 1e-12 * max(1.0, R.norm(0.3))
    knorm = np.abs(S.modes[:, :2]).sum(axis=1)
    assert np.any((knorm == 0) & (S.modes[:, -1] != 0))


def test_homological_vector_valued_components():
    rng = np.random.default_rng(3)
    R = random_real_field(rng, 2, 5, 12, scale=1e-2, vshape=(2,))
    dc = DiophantineParams(d=2, gamma=1e-4, eps=1.0, a=1.0, K_split=5, K_check=10)
    S = solve_homological(R, GOLDEN, dc, regime="full")
    th = rng.uniform(0, 2 * np.pi, (50, 2))
    tt = rng.uniform(0, 2 * np.pi, 50)
    lhs = S.time_derivative().evaluate(th, tt)
    grad = S.grad_angle().evaluate(th, tt)
    for i in range(2):
        lhs = lhs + GOLDEN[i] * grad[:, i]
    rhs = R.evaluate(th, tt) - R.angle_average().time_average().evaluate(th, tt)
    np.testing.assert_allclose(lhs, -rhs, atol=1e-12 * R.norm(0.3))


def test_homological_raises_on_resonance():
    R = FourierField.from_modes(2, {(1, -1, 0): 1e-3, (-1, 1, 0): 1e-3})
    dc = DiophantineParams(d=2, gamma=1e-3, eps=1.0, a=1.0, K_split=6, K_check=12)
    with pytest.raises(SmallDivisorError) as err:
        solve_homological(R, np.array([1.0, 1.0]), dc, regime="split")
    assert err.value.mode in ((1, -1, 0), (-1, 1, 0))
    assert err.value.divisor == pytest.approx(0.0, abs=1e-15)
    assert err.value.floor > 0


def test_solve_fixed_point_rejects_expanding_maps():
    with pytest.raises(ContractionError):
        solve_fixed_point(lambda V: 2.0 * V + 1.0, (4,), max_iter=60)


def test_solve_fixed_point_returns_its_certified_iterate():
    def step(V):
        return 0.25 * V + 1.0

    V, iters, residual = solve_fixed_point(step, (3,), max_iter=60)
    np.testing.assert_array_equal(np.abs(step(V) - V).max(), residual)
    assert residual <= SHIFT_TOL * max(1.0, np.abs(V).max())
    assert iters > 1


def test_implicit_angle_shift_residual_is_certified():
    grid = ActionGrid(np.array([1.0, 1.5]), 1e-3, 3)
    nodes = grid.node_points()
    S = FourierField.from_modes(
        2, {(1, 0, 1): 0.02 * nodes[..., 0], (-1, 0, -1): 0.02 * nodes[..., 0],
            (0, 1, -1): 0.01j * nodes[..., 1], (0, -1, 1): -0.01j * nodes[..., 1]},
        grid=grid)
    nshape = (8, 8, 8)
    V, iters = implicit_angle_shift(ShiftGrids(S, nshape).grad_action())
    assert V.shape == nshape + grid.shape + (2,) and iters > 1
    # checked against a fresh placement of dS/drho's own grids
    shifted = compose_shifted_grid(ShiftGrids(S.grad_action(), nshape), dtheta=V)[0]
    assert np.abs(V + shifted).max() <= SHIFT_TOL * max(1.0, np.abs(V).max())
    assert np.abs(V).max() > 1e-3


def test_canonical_change_transforms_each_grid_of_S_once(monkeypatch):
    # V and U read one family of S's scalar grids: every transform is one
    # alpha-grid of S, the half spectrum of its coefficients times
    # (ik)^alpha / alpha!, and none is placed twice.  Each |k_j| differs, so alpha fixes the factors.
    grid = ActionGrid(np.array([1.0, 1.5]), 1e-3, 3)
    nodes = grid.node_points()
    coef = {(1, 2, 1): 0.01 * nodes[..., 0], (3, -1, 0): 0.004j * nodes[..., 1],
            (2, 1, -1): 0.003 * (1 + 1j) * nodes[..., 0]}
    coef.update({tuple(-x for x in m): np.conj(c) for m, c in list(coef.items())})
    S = FourierField.from_modes(2, coef, grid=grid)
    nshape = (16, 16, 16)
    placed = []
    ifftn = fourier.ifftn

    def spy(C, **kw):
        placed.append(C.copy())
        return ifftn(C, **kw)

    monkeypatch.setattr(fourier, "ifftn", spy)
    U, V, iters, err = canonical_change(S, nshape)
    assert iters > 1 and np.abs(V).max() > 1e-3
    upper = S.modes[:, -1] >= 0
    idx = tuple(np.mod(S.modes[upper, j], n) for j, n in enumerate(nshape))
    k = S.modes[upper, :2]
    seen = []
    for C in placed:
        assert C.shape == nshape[:-1] + (nshape[-1] // 2 + 1,) + grid.shape
        match = []
        for alpha in np.ndindex(fourier.TAYLOR_MAX_ORDER + 2, fourier.TAYLOR_MAX_ORDER + 2):
            want = np.zeros_like(C)
            fac = np.prod((1j * k) ** np.array(alpha), axis=1) / np.prod(
                [math.factorial(a) for a in alpha])
            want[idx] = S.coeffs[upper] * fac[:, None, None]
            if np.allclose(C, want, rtol=1e-13, atol=0.0):
                match.append(alpha)
        assert len(match) == 1, match
        seen += match
    assert len(set(seen)) == len(seen)
    # the U composition reads orders above the ones the fixed point kept
    assert max(map(sum, seen)) >= 3


@pytest.fixture(scope="module")
def chain():
    H0 = PowerLawH0(0.5, 2, 2)
    I0 = np.array([1.1378, 1.4142135623730951])
    modes = {
        (1, 0, 1): 1.25e-3, (-1, 0, -1): 1.25e-3,
        (0, 1, -1): 1e-3 + 5e-4j, (0, -1, 1): 1e-3 - 5e-4j,
        (1, 1, 0): 7.5e-4, (-1, -1, 0): 7.5e-4,
        (2, -1, 1): 5e-4j, (-2, 1, -1): -5e-4j,
        (0, 0, 0): 3e-3,
        (0, 0, 2): 1e-3, (0, 0, -2): 1e-3,
    }
    R = FourierField.from_modes(2, modes).broadcast_action(ActionGrid(I0, 2e-3, 5))
    spec = HamiltonianSpec(d=2, eps=0.5, a=2.0, b=1.0, H0=H0, R=R, I0=I0,
                           s0=0.4, tau0=2e-3)
    dc = DiophantineParams(d=2, gamma=5e-4, eps=0.5, a=2.0, K_split=8, K_check=16)
    params = NormalFormParams(dc=dc, m0=2, K0=4, K_cap=8)
    states = [initial_state(spec, params)]
    for _ in range(params.m0):
        states.append(push_forward(states[-1], spec, params))
    avg = time_average_transform(states[-1], spec, params)
    I_star, resid = locate_expansion_point(avg, spec)
    kam0 = taylor_split(avg, spec, I_star, 2e-4, kam_nodes=5)
    return {"spec": spec, "params": params, "states": states, "avg": avg,
            "I_star": I_star, "resid": resid, "kam0": kam0}


def eval_state(state, spec, th, tt, I):
    out = spec.eps_a * spec.H0.value(I)
    for f in (state.h, state.R):
        if f.n_modes:
            out = out + f.evaluate(th, tt, I)
    return out


def test_initial_state_scales_by_eps_b(chain):
    spec = chain["spec"]
    state0 = chain["states"][0]
    rng = np.random.default_rng(1)
    th = rng.uniform(0, 2 * np.pi, (40, 2))
    tt = rng.uniform(0, 2 * np.pi, 40)
    I = spec.I0 + rng.uniform(-1, 1, (40, 2)) * spec.tau0 * 0.9
    np.testing.assert_allclose(state0.R.evaluate(th, tt, I),
                               spec.eps ** (-spec.b) * spec.R.evaluate(th, tt, I),
                               rtol=1e-12, atol=1e-15)


def test_push_forward_conjugates_the_hamiltonian(chain):
    spec, params = chain["spec"], chain["params"]
    state0, state1 = chain["states"][0], chain["states"][1]
    S = state1.changes[-1].S
    nshape = params.nshape(spec.d)
    U, V, iters, err = canonical_change(S, nshape)
    assert iters > 0 and err < 1e-12
    # project the grids (*nshape, *gshape, d) onto vector fields in (phi, t, rho)
    ax = len(nshape)
    cutoff = min(2 * params.K_j(0), (min(nshape) - 1) // 2)
    u, v = (FourierField.from_grid(np.moveaxis(G, -1, ax), spec.d, cutoff,
                                   grid=S.grid, vshape=(spec.d,)).prune()
            for G in (U, V))
    rng = np.random.default_rng(5)
    N = 30
    phi = rng.uniform(0, 2 * np.pi, (N, 2))
    tt = rng.uniform(0, 2 * np.pi, N)
    rho = state1.grid.center + rng.uniform(-1, 1, (N, 2)) * state1.grid.tau * 0.9
    th = phi + v.evaluate(phi, tt, rho)
    II = rho + u.evaluate(phi, tt, rho)

    # generating-function equations phi = theta + dS/drho, I = rho + dS/dtheta
    srho = S.grad_action().evaluate(th, tt, rho)
    sth = S.grad_angle().evaluate(th, tt, rho)
    np.testing.assert_allclose(phi, th + srho, atol=2e-8)
    np.testing.assert_allclose(II, rho + sth, atol=2e-8)

    # H_new(phi, t, rho) = H_old(theta, t, I) + dS/dt(theta, t, rho)
    lhs = eval_state(state1, spec, phi, tt, rho)
    rhs = (eval_state(state0, spec, th, tt, II)
           + S.time_derivative().evaluate(th, tt, rho))
    np.testing.assert_allclose(lhs, rhs, atol=2e-8)


def test_remainder_decays_quadratically(chain):
    rows = chain["states"][-1].diagnostics
    norms = [row["R_norm"] for row in rows]
    assert norms[1] <= 1e-2 * norms[0]
    assert norms[2] <= 1e-3 * norms[1]
    assert [row["j"] for row in rows] == [0, 1, 2]


def test_time_average_removes_oscillation(chain):
    spec = chain["spec"]
    state = chain["states"][-1]
    avg = chain["avg"]
    S_tilde = avg.changes[-1].S * -1.0
    assert np.all(np.abs(S_tilde.modes[:, :2]).sum(axis=1) == 0)
    assert np.all(S_tilde.modes[:, -1] != 0)
    np.testing.assert_array_equal(avg.h_bar.modes, [[0, 0, 0]])
    rng = np.random.default_rng(9)
    N = 40
    th = rng.uniform(0, 2 * np.pi, (N, 2))
    tt = rng.uniform(0, 2 * np.pi, N)
    I = state.grid.center + rng.uniform(-1, 1, (N, 2)) * state.grid.tau * 0.9
    dst = S_tilde.time_derivative().evaluate(th, tt, I)
    osc = state.h.evaluate(th, tt, I) - avg.h_bar.evaluate(th, tt, I)
    np.testing.assert_allclose(dst, osc, atol=1e-13)
    # R_breve is the remainder composed with the angle twist
    delta = S_tilde.grad_action().evaluate(th, tt, I)
    np.testing.assert_allclose(avg.R_breve.evaluate(th, tt, I),
                               state.R.evaluate(th + delta, tt, I), atol=1e-15)


def test_time_average_change_inverts_to_the_angle_twist(chain):
    spec = chain["spec"]
    state = chain["states"][-1]
    grid = state.grid
    # an oscillation of h whose action gradient is far above the inversion tolerance
    rel = grid.node_points() - grid.center
    z = 1e-3 * (rel[..., 0] + 0.5j * rel[..., 1])
    osc = FourierField.from_modes(2, {(0, 0, 1): z, (0, 0, -1): np.conj(z)}, grid=grid)
    avg = time_average_transform(dataclasses.replace(state, h=state.h + osc), spec,
                                 chain["params"])
    assert avg.changes[:-1] == state.changes
    S, nu = avg.changes[-1]
    assert nu == 0.0
    rng = np.random.default_rng(6)
    N = 40
    phi = rng.uniform(0, 2 * np.pi, (N, 2))
    tt = rng.uniform(0, 2 * np.pi, N)
    I = grid.center + rng.uniform(-1, 1, (N, 2)) * grid.tau * 0.9
    twist = -S.grad_action().evaluate(phi, tt, I)
    assert np.abs(twist).max() > 1e6 * SHIFT_TOL
    theta, II = _invert_change(S, phi, tt, I)
    np.testing.assert_allclose(theta, phi + twist, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(II, I)


def test_twist_compose_matches_direct_shift():
    grid = ActionGrid(np.array([1.0, 1.5]), 0.1, 5)
    nodes = grid.node_points()
    g = FourierField.from_modes(
        2, {(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (0, 1, 2): 0.1j, (0, -1, -2): -0.1j},
        grid=grid)
    z = 0.02 * nodes[..., 0] + 0.01j * nodes[..., 1]
    St = FourierField.from_modes(2, {(0, 0, 1): z, (0, 0, -1): np.conj(z)}, grid=grid)
    delta = St.grad_action()
    # the change's S is -St, so the result is g(theta + dSt/dI)
    shifted, err = twist_compose(g, St * -1.0, (32, 32, 32), 14)
    assert err < 1e-13
    rng = np.random.default_rng(2)
    N = 50
    th = rng.uniform(0, 2 * np.pi, (N, 2))
    tt = rng.uniform(0, 2 * np.pi, N)
    I = grid.center + rng.uniform(-1, 1, (N, 2)) * grid.tau * 0.9
    dv = delta.evaluate(th, tt, I)
    np.testing.assert_allclose(shifted.evaluate(th, tt, I),
                               g.evaluate(th + dv, tt, I), atol=1e-10)


def test_locate_expansion_point_solves_frequency_equation(chain):
    spec = chain["spec"]
    avg = chain["avg"]
    I_star, resid = chain["I_star"], chain["resid"]
    assert float(np.abs(resid).max()) <= 1e-12
    target = spec.omega(spec.I0)
    h = 1.5e-4
    fd = np.zeros(2)
    for i in range(2):
        dI = np.zeros(2)
        dI[i] = h
        fd[i] = (float(avg.h_bar.evaluate(np.zeros(2), 0.0, I_star + dI))
                 - float(avg.h_bar.evaluate(np.zeros(2), 0.0, I_star - dI))) / (2 * h)
    ea = spec.eps ** spec.a
    np.testing.assert_allclose(spec.H0.grad(I_star) + ea * fd, target, atol=1e-8)


def test_locate_expansion_point_pure_power_law(chain):
    spec = chain["spec"]
    avg = chain["avg"]
    z = FourierField.zero(2, grid=avg.grid)
    flat = AveragedResult(h_bar=z, taylor_err=0.0, R_breve=z, grid=avg.grid,
                          s=avg.s, changes=avg.changes)
    I_star, resid = locate_expansion_point(flat, spec)
    np.testing.assert_allclose(I_star, spec.I0, atol=1e-14)
    np.testing.assert_allclose(resid, 0.0, atol=1e-14)


def test_taylor_split_reproduces_hamiltonian(chain):
    spec = chain["spec"]
    avg = chain["avg"]
    form = chain["kam0"]
    I_star = chain["I_star"]
    np.testing.assert_array_equal(form.omega, spec.omega(spec.I0))
    np.testing.assert_allclose(form.Omega, form.Omega.T, atol=1e-15)
    rng = np.random.default_rng(4)
    N = 40
    th = rng.uniform(0, 2 * np.pi, (N, 2))
    tt = rng.uniform(0, 2 * np.pi, N)
    rho = rng.uniform(-1, 1, (N, 2)) * form.r0 * 0.9
    I = I_star + rho
    epa = spec.eps ** (-spec.a)
    lhs = (epa * spec.H0.value(I) + avg.h_bar.evaluate(th, tt, I)
           + avg.R_breve.evaluate(th, tt, I))
    quad = epa * (rho @ form.omega + np.einsum("nj,jk,nk->n", rho, form.Omega, rho))
    rhs = form.const + quad + form.R.evaluate(th, tt, rho)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_taylor_split_integrable_tail_is_exact():
    # with R = 0, the remainder's zero mode is the power law's own cubic tail at I*
    mpmath = pytest.importorskip("mpmath")
    H0 = PowerLawH0(0.8671453264848216, 4.0 / 3.0, 2)
    I0 = np.array([1.0, 1.3])
    grid = ActionGrid(I0, 1e-3, 5)
    zero = FourierField.from_grid(np.zeros((4, 4, 4) + grid.shape), 2, 1, grid=grid)
    spec = HamiltonianSpec(d=2, eps=0.1, a=1.0, b=0.5, H0=H0, R=zero, I0=I0,
                           s0=0.3, tau0=1e-3)
    avg = AveragedResult(h_bar=zero, taylor_err=0.0, R_breve=zero, grid=grid, s=0.3,
                         changes=[])
    kam0 = taylor_split(avg, spec, I0, 6.25e-5, kam_nodes=5)
    (row,) = np.flatnonzero((kam0.R.modes == 0).all(axis=1))
    got = kam0.R.coeffs[row].real
    nodes = kam0.grid.node_points()
    exact = np.zeros(kam0.grid.shape)
    with mpmath.workdps(40):
        p, kappa, epa = (mpmath.mpf(x) for x in (H0.p, H0.kappa, spec.eps_a))
        for idx in np.ndindex(*kam0.grid.shape):
            tail = 0
            for i, r in zip(I0, nodes[idx]):
                i, r = mpmath.mpf(i), mpmath.mpf(r)
                tail += ((i + r) ** p - i**p - p * i ** (p - 1) * r
                         - p * (p - 1) / 2 * i ** (p - 2) * r**2)
            exact[idx] = float(epa * kappa * tail)
    assert np.abs(exact).max() > 1e-14
    np.testing.assert_allclose(got, exact, rtol=0, atol=1e-4 * np.abs(exact).max())


def test_taylor_split_starts_the_kam_chain(chain):
    kam0 = chain["kam0"]
    assert kam0.m == 0
    keys = {"m", "R0_norm", "R1_norm", "R2_norm", "low_norm", "high_norm",
            "nu_inf", "dOmega", "s", "r", "taylor_err", "projection_residual",
            "fp_iters"}
    (row,) = kam0.diagnostics
    assert set(row) == keys
    assert row["m"] == 0 and row["nu_inf"] == 0.0
    assert row["low_norm"] == kam0.low_norm()
    # the m = 0 state was reached through the twist composition and its projection
    avg = chain["avg"]
    assert row["taylor_err"] == avg.taylor_err < 1e-13
    assert row["projection_residual"] == avg.R_breve.projection_residual < 1e-8
    # the averaging changes, then the time average, then the recentring at I*
    nf_changes = chain["states"][-1].changes
    assert kam0.changes[:-2] == nf_changes
    assert all(nu == 0.0 for _, nu in nf_changes)
    S_avg, nu_avg = kam0.changes[-2]
    assert nu_avg == 0.0
    S_rec, nu_rec = kam0.changes[-1]
    assert S_rec.n_modes == 0 and S_rec.grid is kam0.grid
    np.testing.assert_array_equal(nu_rec, chain["I_star"])


def test_taylor_split_keeps_the_kam_ball_in_the_averaged_box(chain):
    avg, I_star = chain["avg"], chain["I_star"]
    bound = avg.grid.tau - np.abs(I_star - avg.grid.center).max()
    assert 0 < bound < avg.grid.tau
    with pytest.raises(DomainError, match=f"r0 = {1.001 * bound:.3e}.*{bound:.3e}"):
        taylor_split(avg, chain["spec"], I_star, 1.001 * bound, kam_nodes=5)
    assert taylor_split(avg, chain["spec"], I_star, bound, kam_nodes=5).r == bound


def test_spec_validation():
    H0 = PowerLawH0(0.5, 2, 2)
    R = FourierField.from_modes(2, {(0, 0, 0): 1e-3}).broadcast_action(
        ActionGrid(np.ones(2), 0.01, 3))
    with pytest.raises(ValueError, match="need a > b >= 0"):
        HamiltonianSpec(d=2, eps=0.5, a=1.0, b=1.0, H0=H0, R=R,
                        I0=np.ones(2), s0=0.3, tau0=0.01)
    with pytest.raises(ValueError, match="eps must lie in"):
        HamiltonianSpec(d=2, eps=1.5, a=2.0, b=1.0, H0=H0, R=R,
                        I0=np.ones(2), s0=0.3, tau0=0.01)
    degenerate = PowerLawH0(1.0, 1, 2)  # linear H0: zero Hessian
    with pytest.raises(ValueError, match="H0 is degenerate"):
        HamiltonianSpec(d=2, eps=0.5, a=2.0, b=1.0, H0=degenerate, R=R,
                        I0=np.ones(2), s0=0.3, tau0=0.01)


@pytest.mark.parametrize("grid", [None, ActionGrid([1.0, 1.01], 0.01, 3),
                                  ActionGrid(np.ones(2), 0.02, 3)],
                         ids=["action_free", "wrong_centre", "wrong_radius"])
def test_spec_takes_r_on_its_own_action_ball(grid):
    R = FourierField.from_modes(2, {(0, 0, 0): 1e-3})
    if grid is not None:
        R = R.broadcast_action(grid)
    with pytest.raises(ValueError, match="action ball"):
        HamiltonianSpec(d=2, eps=0.5, a=2.0, b=1.0, H0=PowerLawH0(0.5, 2, 2), R=R,
                        I0=np.ones(2), s0=0.3, tau0=0.01)
