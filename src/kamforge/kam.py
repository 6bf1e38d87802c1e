"""KAM iteration on a quadratic action jet with superlinear remainder decay.

The stage Hamiltonian has the normal form

    H_m = C + eps^(-a) (<omega, rho> + <Omega rho, rho>)
        + R0(theta, t) + <R1(theta, t), rho> + <R2(theta, t) rho, rho>
        + R_high(theta, t, rho)

with R_high vanishing to third order at rho = 0.  One step solves three
homological equations (for the generating jet S = S0 + <S1, rho>
+ <S2 rho, rho>), shifts the action origin by nu to keep the rotation vector
fixed, updates the twist matrix Omega, and reassembles the remainder, whose
low-order part shrinks superlinearly while the domain radii barely move.  Each
step appends its ``Change(S, nu)`` to the chain that starts with the averaging
changes, and ``extract_torus`` unwinds the whole chain to carry the invariant
torus back to the base action-angle frame.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, EscapeError
from .fourier import ActionGrid, ActionJet, FourierField, compose_shifted_grid, jet_split
from .normal_form import (SHIFT_MAX_ITER, Change, NormalFormParams, implicit_angle_shift,
                          solve_fixed_point, solve_homological)

ZETA2 = np.pi**2 / 6.0


@dataclass
class KamParams:
    """Solver settings: Diophantine data, truncations, and stop rule."""

    dc: object
    tol: float
    max_steps: int
    K_cap: int

    nshape = NormalFormParams.nshape

    @staticmethod
    def shrink(m):
        """Domain factor after m steps: radii decrease by harmonic-square bites.

        The factors stay above 0.99, so the analyticity domain never collapses.
        """
        e = sum(1.0 / l**2 for l in range(1, m + 1)) / (100.0 * ZETA2)
        return 1.0 - e


@dataclass
class KamState:
    m: int
    eps: float
    a: float
    omega: np.ndarray          # unscaled target frequency
    Omega: np.ndarray
    low: ActionJet
    high: FourierField
    const: float
    s: float
    r: float
    grid: ActionGrid
    s0: float
    r0: float
    changes: list = dc_field(default_factory=list)   # Change(S, nu), base frame first
    diagnostics: list = dc_field(default_factory=list)

    def low_norms(self):
        """Norms ||R0'||, ||R1||, ||R2|| of the low jet, and its size over the current ball.

        The size is ||R0'|| + r ||R1|| + r^2 ||R2||.  R0' excludes the constant
        mode of R0, which only shifts the energy.
        """
        r0_osc = self.low.r0 - self.low.r0.time_average().angle_average()
        n0, n1, n2 = (f.norm(self.s) for f in (r0_osc, self.low.r1, self.low.r2))
        return n0, n1, n2, n0 + self.r * n1 + self.r**2 * n2

    def low_norm(self):
        """Size of the low jet over the current ball (see ``low_norms``)."""
        return self.low_norms()[3]

    def diag_row(self, taylor_err, proj_res, nu, dOmega, fp_iters):
        """Diagnostics row of this state, reached by a step with these health numbers.

        The step shifted the action by nu and the twist matrix by dOmega.
        """
        n0, n1, n2, low = self.low_norms()
        return {
            "m": self.m, "R0_norm": n0, "R1_norm": n1, "R2_norm": n2, "low_norm": low,
            "high_norm": self.high.norm(self.s),
            "nu_inf": float(np.abs(nu).max(initial=0.0)),
            "dOmega": float(np.abs(dOmega).max(initial=0.0)), "s": self.s, "r": self.r,
            "taylor_err": taylor_err, "projection_residual": proj_res,
            "fp_iters": fp_iters,
        }


def _mode_zero(field):
    """(0, ..., 0) coefficient of an action-free field; real by the field's symmetry."""
    c = field.time_average().coeffs.sum(axis=0).real
    return c if c.ndim else float(c)


def _matrix_apply(M, f):
    """Field with coefficients M @ f (vector field, contraction over its index)."""
    c = np.einsum("ij,mj->mi", M, f.coeffs)
    return f.replace(coeffs=c)


def _jet_on_nodes(f0, f1, f2, grid):
    """f0 + <f1, rho> + <f2 rho, rho> as one field on the nodes rho of ``grid``.

    A quadratic in rho is exact on the nodes.
    """
    nodes = grid.node_points()
    flat = {"vshape": (), "grid": grid}
    return (f0.broadcast_action(grid)
            + f1.replace(coeffs=np.einsum("mi,...i->m...", f1.coeffs, nodes), **flat)
            + f2.replace(coeffs=np.einsum("mij,...i,...j->m...", f2.coeffs, nodes, nodes),
                         **flat))


def cubic_contraction(high, w_grid, nshape):
    """Grids of T3[w]_jk = sum_i d^3 R_high / d rho_i d rho_j d rho_k (0) w_i.

    Node coefficients are polynomials in rho, so the third derivatives at the
    origin are exact: three spectral action gradients frozen at rho = 0, put
    on the grid once and contracted with the vector grid ``w_grid`` of shape
    (*nshape, d).  Returns (*nshape, d, d).
    """
    d3 = high.grad_action().grad_action().grad_action().at_action(np.zeros(high.grid.dim))
    return np.einsum("...ijk,...i->...jk", d3.to_grid(nshape), w_grid)


def kam_step(state, params):
    """One KAM step: solve, shift, retwist, reassemble, and re-split."""
    d = len(state.omega)
    eps, a = state.eps, state.a
    epa = eps ** (-a)
    ea = eps ** a
    m_next = state.m + 1
    s_next = state.s0 * params.shrink(m_next)
    r_next = state.r0 * params.shrink(m_next)
    grid_new = ActionGrid(np.zeros(d), r_next, state.grid.n)
    nshape = params.nshape(d)
    taylor_errs = [0.0]

    R0, R1, R2 = state.low.r0, state.low.r1, state.low.r2
    omega = state.omega
    Om = state.Omega

    # homological solves ----------------------------------------------------
    S0 = solve_homological(R0, omega, params.dc, regime="full")
    A0 = S0.grad_angle()                       # d(theta) S0, vector field
    Rstar = (R1 + _matrix_apply(2.0 * epa * Om, A0)).prune()
    S1 = solve_homological(Rstar, omega, params.dc, regime="full")
    nu = -0.5 * ea * np.linalg.solve(Om, _mode_zero(Rstar))
    if np.abs(nu).max(initial=0.0) > 0.25 * r_next:
        raise DomainError(
            f"action shift |nu| = {np.abs(nu).max():.3e} is too large for the "
            f"ball radius {r_next:.3e}")

    G = S1.grad_angle()                        # G_ij = d(theta_i) S1_j
    OmG = np.einsum("ij,mjk->mik", Om, G.coeffs)
    symOmG = G.replace(coeffs=epa * (OmG + np.swapaxes(OmG, 1, 2)))

    T3w = cubic_contraction(state.high, A0.to_grid(nshape), nshape)
    T3_field = FourierField.from_grid(0.5 * T3w, d, params.K_cap, vshape=(d, d))
    Rss = (R2 + symOmG + T3_field).prune()
    S2 = solve_homological(Rss, omega, params.dc, regime="full")
    S2 = S2.replace(coeffs=0.5 * (S2.coeffs + np.swapaxes(S2.coeffs, 1, 2)))
    dOm = ea * _mode_zero(Rss)
    dOm = 0.5 * (dOm + dOm.T)
    Om_new = Om + dOm

    S = _jet_on_nodes(S0, S1, S2, grid_new)
    dC = _mode_zero(R0) + epa * (float(omega @ nu) + float(nu @ Om @ nu))

    # the remainder H(theta, t, rho + W) + dS/dt - N' in the old angle variables,
    # with W = nu + dS/dtheta on the new nodes and N' the new normal form, whose
    # constant moves by dC ---------------------------------------------------
    rho = grid_new.node_points()                                # (*gshape, d)
    W = nu + np.moveaxis(S.grad_angle().to_grid(nshape), d + 1, -1)
    rem = -dC + S.time_derivative().to_grid(nshape) + epa * (
        W @ omega + np.einsum("...i,ij,...j->...", 2.0 * rho + W, Om, W)
        - np.einsum("...i,ij,...j->...", rho, dOm, rho))
    P = _jet_on_nodes(R0, R1, R2, state.grid) + state.high
    vals, e = compose_shifted_grid(P, nshape, rho=rho + W)
    rem += vals
    taylor_errs.append(e)

    # compose with the implicit angle change theta = phi + V, where
    # phi = theta + dS/drho -------------------------------------------------
    V, fp_iters = implicit_angle_shift(S.grad_action(), nshape)

    rem_field = FourierField.from_grid(rem, d, params.K_cap, grid=grid_new)
    vals, e = compose_shifted_grid(rem_field, nshape, dtheta=V)
    taylor_errs.append(e)
    final = FourierField.from_grid(vals, d, params.K_cap, grid=grid_new)
    proj_res = max(rem_field.projection_residual, final.projection_residual)

    # split by Taylor order at rho = 0 ---------------------------------------
    R0n, R1n, R2n, highn = jet_split(final, np.zeros(d), grid_new)

    new_state = KamState(
        m=m_next, eps=eps, a=a, omega=omega, Omega=Om_new,
        low=ActionJet(r0=R0n, r1=R1n, r2=R2n), high=highn, const=state.const + dC,
        s=s_next, r=r_next, grid=grid_new, s0=state.s0, r0=state.r0,
        changes=state.changes + [Change(S, nu)],
        diagnostics=list(state.diagnostics),
    )
    new_state.diagnostics.append(new_state.diag_row(max(taylor_errs), proj_res, nu, dOm,
                                                    fp_iters))
    return new_state


def kam_iterate(state, params):
    """Iterate kam_step until the low norm is below tol or max_steps is hit."""
    while state.m < params.max_steps and state.low_norm() > params.tol:
        state = kam_step(state, params)
    return state


# -- invariant torus extraction ------------------------------------------------


@dataclass
class TorusEmbedding:
    """Parametrised torus (phi, t) -> (theta, I) in the base action-angle frame.

    The flow on the parameters is linear: phi advances with ``omega`` (already
    carrying the eps^(-a) factor) and t with unit speed.
    """

    theta_dev: FourierField
    action: FourierField
    omega: np.ndarray

    def angles(self, phi, t):
        phi = np.atleast_2d(np.asarray(phi, dtype=float))
        return phi + np.atleast_2d(self.theta_dev.evaluate(phi, t))

    def actions(self, phi, t):
        phi = np.atleast_2d(np.asarray(phi, dtype=float))
        return np.atleast_2d(self.action.evaluate(phi, t))


def _invert_change(S, phi, t, rho):
    """Old (theta, I) of points given in the new coordinates of the change generated by S.

    theta = phi + V solves V = -dS/drho(phi + V, t, rho) at the given points, to
    ``fourier.SHIFT_TOL`` in at most ``normal_form.SHIFT_MAX_ITER`` maps, and
    I = rho + dS/dtheta(theta, t, rho).
    """
    srho = S.grad_action()
    theta = phi + solve_fixed_point(lambda V: -srho.evaluate(phi + V, t, rho), phi.shape,
                                    SHIFT_MAX_ITER)[0]
    return theta, rho + S.grad_angle().evaluate(theta, t, rho)


def extract_torus(kam_state, n_phi, n_t):
    """Pull the persistent torus rho = 0 back to the base action-angle frame.

    Walks the state's chain of changes innermost-first: the KAM steps, the
    recentring at I*, the time average and the averaging steps, each unwound
    by ``_invert_change`` and its action shift.  The embedding is projected
    once onto a Fourier series over the parameters, up to the widest 1-norm
    ball the grid represents (``from_grid`` trims each axis at its Nyquist
    order).
    """
    d = len(kam_state.omega)
    axes = [np.linspace(0, 2 * np.pi, n_phi, endpoint=False) for _ in range(d)]
    taxis = np.linspace(0, 2 * np.pi, n_t, endpoint=False)
    mesh = np.meshgrid(*axes, taxis, indexing="ij")
    phi0 = np.stack([g.ravel() for g in mesh[:d]], axis=-1)   # (P, d)
    tt = mesh[d].ravel()

    theta = phi0.copy()
    rho = np.zeros_like(phi0)
    for S, nu in reversed(kam_state.changes):
        theta, rho = _invert_change(S, theta, tt, rho)
        rho = rho + nu

    gshape = (n_phi,) * d + (n_t,)
    dev = (theta - phi0).reshape(gshape + (d,))
    act = rho.reshape(gshape + (d,))
    cutoff = sum((g - 1) // 2 for g in gshape)
    theta_dev = FourierField.from_grid(np.moveaxis(dev, -1, d + 1), d, cutoff,
                                       vshape=(d,)).prune(1e-14)
    action = FourierField.from_grid(np.moveaxis(act, -1, d + 1), d, cutoff,
                                    vshape=(d,)).prune(1e-14)
    omega_sc = kam_state.eps ** (-kam_state.a) * kam_state.omega
    return TorusEmbedding(theta_dev=theta_dev, action=action, omega=omega_sc)


def invariance_defect(torus, flow, chart, T_check, n_samples, seed):
    """Largest phase-space distance between flowed and rotated torus points.

    ``chart(theta, I) -> states`` maps a batch of action-angle points to the
    comparison coordinates; ``flow(states, t0, T) -> states`` integrates the
    actual system for a batch of states with per-state start times t0.
    Initial parameters are sampled uniformly with the given seed.  An escape
    during the integration counts as an infinite defect.
    """
    rng = np.random.default_rng(seed)
    d = len(torus.omega)
    phi0 = rng.uniform(0, 2 * np.pi, (n_samples, d))
    t0 = rng.uniform(0, 2 * np.pi, n_samples)
    th0 = torus.angles(phi0, t0)
    I0 = torus.actions(phi0, t0)
    try:
        z1 = flow(chart(th0, I0), t0, float(T_check))
    except EscapeError:
        return float("inf")
    phi1 = phi0 + torus.omega[None, :] * T_check
    zt = chart(torus.angles(phi1, t0 + T_check), torus.actions(phi1, t0 + T_check))
    return float(np.abs(z1 - zt).max(initial=0.0))
