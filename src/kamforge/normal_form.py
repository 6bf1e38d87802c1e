"""Iterative averaging of a quasi-periodically forced near-integrable Hamiltonian.

The input is H(theta, t, I) = eps^(-a) H0(I) + eps^(-b) R(theta, t, I) with
a > b >= 0, analytic in a complex angle strip of width s0 and sampled on
Chebyshev nodes in an action ball of radius tau0.  Each averaging step solves

    dS/dt + eps^(-a) <omega(rho), dS/dtheta> = <R>_theta - R

for the oscillating part of the current remainder, applies the time-dependent
canonical change generated by S (I = rho + dS/dtheta, phi = theta + dS/drho),
and absorbs the angle average into an integrable-plus-time part h(t, I).  The
strip and ball shrink by half each step while the truncation order doubles, so
the angle-dependent remainder contracts geometrically until only the averaged
Hamiltonian eps^(-a) H0 + h(t, I) plus a small remainder is left.

A final time average removes the oscillation of h itself, after which
``locate_expansion_point`` and ``taylor_split`` recentre the system at the
action I* whose corrected frequency matches the target and sample the
remainder over the quadratic normal form there on a ball of action offsets,
the starting data for the KAM stage.

Every stage records its coordinate changes as one chain of ``Change(S, nu)``
entries, each extending the previous stage's list: the averaging steps, the
time average, the recentring at I* and the KAM steps.
"""

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .diophantine import DiophantineParams
from .errors import ContractionError, DomainError, SmallDivisorError
from .fourier import SHIFT_TOL, ActionGrid, FourierField, ShiftGrids, compose_shifted_grid
from .util import fast_len

# Small divisors must stay above this fraction of their Diophantine bound.
FLOOR_SCALE = 0.5
# Largest contraction factor solve_fixed_point accepts while still far from its fixed point.
LIPSCHITZ_MAX = 0.5
# Residual and iteration cap of the frequency-matching Newton solve.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# Iteration cap of the implicit angle change, solved on grids and at points.
SHIFT_MAX_ITER = 60


class Change(NamedTuple):
    """Canonical change: the one generated by S(theta, t, rho), then I -> I + nu.

    Old coordinates follow from new ones (phi, rho) by solving
    phi = theta + dS/drho(theta, t, rho) for theta, then
    I = rho + dS/dtheta(theta, t, rho) + nu (see ``kam._invert_change``).
    Averaging and time-average changes have nu = 0; the recentring at I* has
    an empty S.
    """

    S: FourierField
    nu: object


@dataclass
class HamiltonianSpec:
    """Forced near-integrable system eps^(-a) H0(I) + eps^(-b) R(theta, t, I).

    R is stored unscaled and sampled on the action ball ActionGrid(I0, tau0, n)
    for some node count n, which the averaging keeps; the eps^(-b) factor is
    applied when the averaging iteration starts.  H0 must expose
    value/increment/grad/hess and min_hess_det; its Hessian determinant must
    stay positive on the action box.
    """

    d: int
    eps: float
    a: float
    b: float
    H0: object
    R: FourierField
    I0: np.ndarray
    s0: float
    tau0: float

    def __post_init__(self):
        self.I0 = np.asarray(self.I0, dtype=float)
        if not (self.a > self.b >= 0):
            raise ValueError("need a > b >= 0")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        if self.R.d != self.d:
            raise ValueError("perturbation angle dimension does not match d")
        if self.I0.shape != (self.d,):
            raise ValueError("I0 must be a length-d action vector")
        grid = self.R.grid
        if grid is None or not grid.same_as(ActionGrid(self.I0, self.tau0, grid.n)):
            raise ValueError("R must be sampled on the action ball ActionGrid(I0, tau0, n)")
        c3 = float(self.H0.min_hess_det((self.I0 - self.tau0, self.I0 + self.tau0)))
        if c3 <= 0:
            raise ValueError(f"H0 is degenerate on the action box (min Hessian det {c3:.3e})")

    @property
    def eps_a(self):
        return self.eps ** (-self.a)

    def omega(self, I):
        return self.H0.grad(I)


@dataclass
class NormalFormParams:
    """Schedules and truncations of the averaging iteration.

    The analyticity strip and action radius halve each step, s_j = s0 / 2^j,
    tau_j = tau0 / 2^j, while the truncation order doubles up to K_cap.  The
    step count m0 is set directly: with measured norms far fewer steps than
    the classical schedule achieve the advertised contraction.
    """

    dc: DiophantineParams
    m0: int
    K0: int
    K_cap: int

    def K_j(self, j):
        return int(min(self.K0 * 2**j, self.K_cap))

    def nshape(self, d):
        """Uniform (theta, t) grid resolving every mode up to order K_cap."""
        n = fast_len(2 * self.K_cap + 1)
        return (n,) * (d + 1)


@dataclass
class NormalFormState:
    """One averaging stage; ``changes`` holds one ``Change(S, 0.0)`` per step.

    R is the whole remainder; the next step solves its part up to order K.
    """

    j: int
    h: FourierField
    R: FourierField
    grid: ActionGrid
    s: float
    K: int
    changes: list = dc_field(default_factory=list)
    diagnostics: list = dc_field(default_factory=list)

    def angle_norm(self):
        """Weighted norm of the angle-dependent part of the remainder up to order K."""
        R = self.R.truncate(self.K)
        return (R - R.angle_average()).norm(self.s)

    def diag_row(self, taylor_err, proj_res, fp_iters):
        """Diagnostics row of this state, reached by a step with these health numbers."""
        return {
            "j": self.j, "h_norm": self.h.norm(self.s),
            "R_norm": self.R.truncate(self.K).norm(self.s),
            "R_plus_norm": self.R.tail(self.K).norm(self.s), "R_angle_norm": self.angle_norm(),
            "K": self.K, "s": self.s, "tau": self.grid.tau,
            "taylor_err": taylor_err, "projection_residual": proj_res, "fp_iters": fp_iters,
        }


def initial_state(spec, params):
    """Initial state: the remainder scaled by eps^(-b), solved up to the first order."""
    state = NormalFormState(
        j=0,
        h=FourierField.zero(spec.d, grid=spec.R.grid),
        R=(spec.R * spec.eps ** (-spec.b)).prune(),
        grid=spec.R.grid,
        s=spec.s0,
        K=params.K_j(0),
    )
    state.diagnostics.append(state.diag_row(0.0, 0.0, 0))
    return state


def solve_homological(R, omega, dc, regime):
    """Mode-wise solution S of dS/dt + eps^(-a) <omega, dS/dtheta> = -P R.

    eps^(-a) is ``dc.eps_pow``.  The regime sets the solved modes P and the
    divisor floor.  'split' (the averaging) solves k != 0 against
    ``dc.bound_regime1``; 'full' (the KAM step) solves all (k, l) != 0
    against the classical ``dc.bound_regime2``.  Each divisor
    eps^(-a) <k, omega> + l is checked against ``FLOOR_SCALE`` times that
    bound; a violation raises SmallDivisorError.  ``omega`` is one frequency
    vector (d,), or the frequencies at R's action nodes (*R.grid.shape, d).
    """
    if regime not in ("split", "full"):
        raise ValueError("regime must be 'split' or 'full'")
    modes = R.modes
    k = modes[:, : R.d]
    l = modes[:, -1]
    knorm = np.abs(k).sum(axis=1)
    sel = knorm > 0
    if regime == "full":
        sel |= l != 0
    if not np.any(sel):
        return FourierField.zero(R.d, grid=R.grid, vshape=R.vshape)
    om = np.asarray(omega, dtype=float)
    if om.ndim == 1:
        dots = k[sel].astype(float) @ om  # (Ms,)
        extra = ()
    else:
        dots = np.tensordot(k[sel].astype(float), om, axes=([1], [-1]))  # (Ms, *gshape)
        extra = om.shape[:-1]
    delta = dc.eps_pow * dots + l[sel].reshape((-1,) + (1,) * len(extra))

    kn = knorm[sel].astype(float)
    bound = dc.bound_regime1 if regime == "split" else dc.bound_regime2
    floor = FLOOR_SCALE * bound(kn)
    dmin = np.abs(delta).reshape(delta.shape[0], -1).min(axis=1)
    bad = dmin < floor
    if np.any(bad):
        i = int(np.argmax(floor[bad] / np.maximum(dmin[bad], 1e-300)))
        idx = np.flatnonzero(bad)[i]
        mode = tuple(int(x) for x in modes[sel][idx])
        raise SmallDivisorError(
            f"divisor {dmin[idx]:.6e} below floor {floor[idx]:.6e} at mode {mode}",
            mode=mode, divisor=float(dmin[idx]), floor=float(floor[idx]))

    coeffs = np.zeros_like(R.coeffs)
    shape = (delta.shape[0],) + (1,) * (R.coeffs.ndim - 1 - len(extra)) + extra
    coeffs[sel] = 1j * R.coeffs[sel] / delta.reshape(shape)
    return R.replace(coeffs=coeffs).prune()


def solve_fixed_point(apply_map, shape, max_iter):
    """Iterate V <- apply_map(V) from zero until the sup-change stalls below ``SHIFT_TOL``.

    Returns (V, n_iterations, residual) where V is the last iterate passed to
    the map, so its residual |apply_map(V) - V| is the measured last change,
    at most SHIFT_TOL * max(1, |V|).  Raises ContractionError when the
    observed contraction factor exceeds ``LIPSCHITZ_MAX`` while the iteration
    is still far from its fixed point, or when ``max_iter`` maps do not
    converge.
    """
    V = np.zeros(shape)
    prev = None
    for it in range(1, max_iter + 1):
        W = apply_map(V)
        delta = float(np.abs(W - V).max(initial=0.0))
        scale = max(1.0, float(np.abs(V).max(initial=0.0)))
        if delta <= SHIFT_TOL * scale:
            return V, it, delta
        if prev is not None and prev > 0:
            L = delta / prev
            if L > LIPSCHITZ_MAX and delta > 100 * SHIFT_TOL * scale:
                raise ContractionError(
                    f"implicit change is not a contraction (observed factor {L:.3f})")
        prev = delta
        V = W
    raise ContractionError(f"implicit change did not converge in {max_iter} iterations "
                           f"(last change {delta:.3e})")


def implicit_angle_shift(srho):
    """Solve V = -srho(phi + V) on the (phi, t) grid crossed with srho's action nodes.

    ``srho`` is the dS/drho view (``grad_action()``) of a ``ShiftGrids``
    family of a generating function S, which keeps the grids that every
    iteration reads.  V is the angle change theta = phi + V of the implicit
    transformation phi = theta + dS/drho.  Returns (V, iterations); V has
    shape (*nshape, *S.grid.shape, d) and the residual |V + srho(phi + V)|
    is at most SHIFT_TOL * max(1, |V|).  Both the fixed point and its Taylor
    compositions stop at ``SHIFT_TOL``, and at most ``SHIFT_MAX_ITER`` maps run.
    """
    V, iters, _ = solve_fixed_point(lambda V: -compose_shifted_grid(srho, dtheta=V)[0],
                                    srho.nshape + srho.grid.shape + srho.vshape, SHIFT_MAX_ITER)
    return V, iters


def canonical_change(S, nshape):
    """Solve the implicit transformation generated by S(theta, t, rho) on a grid.

    New coordinates satisfy phi = theta + dS/drho and I = rho + dS/dtheta.
    Returns (U, V, iterations, taylor_err): grids of shape
    (*nshape, *S.grid.shape, d) over the uniform (phi, t) grid crossed with
    S's action nodes, with theta = phi + V and I = rho + U, the fixed-point
    iteration count, and the largest Taylor error of the U compositions.
    V and U read dS/drho and dS/dtheta off one ``ShiftGrids`` family of S.
    """
    grids = ShiftGrids(S, nshape)
    V, iters = implicit_angle_shift(grids.grad_action())
    U, err = compose_shifted_grid(grids.grad_angle(), dtheta=V)
    return U, V, iters, err


def push_forward(state, spec, params):
    """One averaging step: solve for S on the remainder up to order K and apply its change.

    S is solved on the current ball and restricted once to the shrunk ball,
    where the change acts and where it is stored in the chain.  The
    transformed Hamiltonian is assembled in mixed variables on a uniform
    (theta, t) grid crossed with the shrunk ball's nodes rho, composed with
    the implicit angle change, projected back onto modes, and split into the
    new averaged part h and the remainder R.  The integrable part enters as
    its increment eps^(-a) (H0(rho + U) - H0(rho)); h and R are composed at
    the old actions rho + U.
    """
    d = spec.d
    j_next = state.j + 1
    grid_new = ActionGrid(spec.I0, spec.tau0 * 0.5 ** j_next, state.grid.n)
    S = solve_homological(state.R.truncate(state.K), spec.omega(state.grid.node_points()),
                          params.dc, regime="split").restrict_action(grid_new)
    nshape = params.nshape(d)

    U, V, fp_iters, err = canonical_change(S, nshape)
    taylor_errs = [err]

    nodes = grid_new.node_points()
    tot = spec.eps_a * spec.H0.increment(nodes, U)
    # U becomes the old actions rho + U in place: a fresh array raises the peak memory
    U += nodes
    if state.h.n_modes:
        vals, e = compose_shifted_grid(ShiftGrids(state.h, nshape), rho=U)
        tot += vals
        taylor_errs.append(e)
    vals, e = compose_shifted_grid(ShiftGrids(state.R, nshape), dtheta=V, rho=U)
    tot += vals
    taylor_errs.append(e)
    vals, e = compose_shifted_grid(ShiftGrids(S.time_derivative(), nshape), dtheta=V)
    tot += vals
    taylor_errs.append(e)

    h_next = (state.h + state.R.truncate(state.K).angle_average()) \
        .restrict_action(grid_new).prune()
    tot -= h_next.to_grid(nshape)

    Rt = FourierField.from_grid(tot, d, params.K_cap, grid=grid_new)
    new_state = NormalFormState(
        j=j_next,
        h=h_next,
        R=Rt,
        grid=grid_new,
        s=spec.s0 * 0.5 ** j_next,
        K=params.K_j(j_next),
        changes=state.changes + [Change(S, 0.0)],
        diagnostics=list(state.diagnostics),
    )
    new_state.diagnostics.append(new_state.diag_row(max(taylor_errs), Rt.projection_residual,
                                                    fp_iters))
    return new_state


def run_normal_form(spec, params):
    """Run m0 averaging steps; returns the final NormalFormState."""
    state = initial_state(spec, params)
    for _ in range(params.m0):
        state = push_forward(state, spec, params)
    return state


def twist_compose(field, S, nshape, cutoff):
    """Compose a field with the angle shift of an angle-free change S(t, I).

    The change generated by S leaves the action unchanged and maps theta to
    phi = theta + dS/dI(t, I), so the field in the new angles is
    field(phi - dS/dI(t, I), t, I), with dS/dI read off S's ``ShiftGrids``.
    It is composed on the uniform grid ``nshape`` by ``compose_shifted_grid``
    and projected onto modes up to ``cutoff``.  Returns (projected field,
    Taylor error of the composition).
    """
    dtheta = -compose_shifted_grid(ShiftGrids(S, nshape).grad_action())[0]
    vals, err = compose_shifted_grid(ShiftGrids(field, nshape), dtheta=dtheta)
    return FourierField.from_grid(vals, field.d, cutoff, grid=field.grid), err


@dataclass
class AveragedResult:
    """Output of the final time average: the mean of h, the twisted remainder, the chain."""

    h_bar: FourierField        # (0, 0) mode: averaged correction of the action part
    taylor_err: float          # Taylor error of the twist composition
    R_breve: FourierField      # remainder in the twisted angles, projected at K_cap
    grid: ActionGrid
    s: float
    changes: list              # the averaging chain plus the twist's Change(S, 0.0)


def _h_bar_jet(avg, points):
    """Value, gradient and symmetrised Hessian of <h> at action points (N, dim).

    <h> holds only the (0, 0) mode, so the sum of its interpolated mode
    coefficients is its value.  Returns arrays of shapes (N,), (N, dim) and
    (N, dim, dim).
    """
    val, g, hess = (np.moveaxis(c.sum(axis=0).real, -1, 0)
                    for c in avg.h_bar.interp_jet(points))
    return val, g, 0.5 * (hess + np.swapaxes(hess, 1, 2))


def time_average_transform(state, spec, params):
    """Remove the oscillating part of h by the angle-free change generated by S(t, I).

    S is the zero-mean primitive in t of <h> - h, solved by
    ``solve_homological``: every mode of h - <h> has k = 0, so each divisor is
    exactly its l.  The change leaves the action unchanged and shifts the
    angle, phi = theta + dS/dI.  The transformed Hamiltonian is
    eps^(-a) H0(I) + <h>(I) + R_breve(phi, t, I): the oscillation of h
    cancels exactly against dS/dt, and
    R_breve(phi, t, I) = R(phi - dS/dI(t, I), t, I) is composed by
    ``twist_compose`` on the averaging grid ``params.nshape(d)`` and projected
    at ``params.K_cap``.  The change is appended to the chain as
    ``Change(S, 0.0)``.
    """
    hbar = state.h.time_average()
    S = solve_homological((state.h - hbar).prune(), spec.omega(spec.I0), params.dc,
                          regime="full")
    R_breve, err = twist_compose(state.R, S, params.nshape(spec.d), params.K_cap)
    return AveragedResult(h_bar=hbar, taylor_err=err, R_breve=R_breve,
                          grid=state.grid, s=state.s,
                          changes=state.changes + [Change(S, 0.0)])


def locate_expansion_point(avg, spec):
    """Newton-solve grad H0(I) + eps^a grad <h>(I) = omega(I0) inside the ball.

    Returns (I_star, residual_vector).  DomainError if an iterate leaves the
    node box of the averaged data.
    """
    omega_target = spec.omega(spec.I0)
    ea = spec.eps ** spec.a
    lo = avg.grid.center - avg.grid.tau
    hi = avg.grid.center + avg.grid.tau
    I = spec.I0.astype(float).copy()
    for _ in range(NEWTON_MAX_ITER + 1):
        if np.any(I < lo - 1e-12) or np.any(I > hi + 1e-12):
            raise DomainError(
                f"frequency matching left the averaged action ball at I = {I}")
        _, hg, hh = _h_bar_jet(avg, I[None])
        g = spec.H0.grad(I) + ea * hg[0] - omega_target
        if float(np.abs(g).max()) <= NEWTON_TOL:
            return I, g
        I = I - np.linalg.solve(spec.H0.hess(I) + ea * hh[0], g)
    raise ContractionError(
        f"frequency matching stalled with residual {float(np.abs(g).max()):.3e}")


def taylor_split(avg, spec, I_star, r0, kam_nodes):
    """Expand the averaged Hamiltonian at I* to second order; the rest is the remainder.

    Returns the KAM stage's starting ``KamState`` (m = 0, with its first
    diagnostics row) with rho = I - I*, omega = omega(I0), the normal form
    N = const + eps^(-a)(<omega, rho> + <Omega rho, rho>) of the averaged
    Hamiltonian's value and half Hessian at I*, and the remainder
    R(theta, t, rho) = H_avg(theta, t, I* + rho) - N(rho) on the nodes of a
    fresh ball of radius r0 around zero: ``R_breve`` interpolated at I* + rho
    plus the theta-free node term, the integrable part's increment over I*
    less N's linear and quadratic terms.  The frequency-matching residual
    thus stays in R's jet.  The state's chain is the averaging chain plus the
    recentring ``Change(empty S, I*)``.  DomainError if the ball of radius r0
    around I* leaves the averaged node box.
    """
    from .kam import KamState

    bound = avg.grid.tau - float(np.abs(I_star - avg.grid.center).max())
    if r0 > bound:
        raise DomainError(f"KAM ball radius r0 = {r0:.3e} leaves the averaged node box: "
                          f"it must be at most {bound:.3e} around I*")
    d = spec.d
    omega_target = spec.omega(spec.I0)
    s = avg.s
    ea = spec.eps ** spec.a
    epa = spec.eps ** (-spec.a)
    hv, _, hh = _h_bar_jet(avg, I_star[None])
    Omega_full = spec.H0.hess(I_star) + ea * hh[0]
    # quadratic form <Omega rho, rho> must reproduce the Taylor term rho^T H rho / 2
    Omega = 0.25 * (Omega_full + Omega_full.T)
    const = epa * (spec.H0.value(I_star) + ea * hv[0])

    kgrid = ActionGrid(np.zeros(d), r0, kam_nodes)
    rho = kgrid.node_points().reshape(-1, d)
    pts = I_star[None, :] + rho
    R = avg.R_breve.replace(coeffs=avg.R_breve.interp_action(pts)
                            .reshape((-1,) + kgrid.shape), grid=kgrid)
    # the integrable part's increment over I*, less N's linear and quadratic terms
    node = epa * (spec.H0.increment(I_star, rho) + ea * (_h_bar_jet(avg, pts)[0] - hv[0])
                  - rho @ omega_target - np.einsum("nj,jk,nk->n", rho, Omega, rho))
    R = (R + FourierField.from_modes(d, {(0,) * (d + 1): node.reshape(kgrid.shape)},
                                     grid=kgrid)).prune()

    recentre = Change(FourierField.zero(d, grid=kgrid), np.asarray(I_star, dtype=float))
    state = KamState(
        m=0, eps=spec.eps, a=spec.a, omega=omega_target, Omega=Omega, R=R,
        const=float(const), s=s, r=float(r0), grid=kgrid, s0=s, r0=float(r0),
        changes=avg.changes + [recentre],
    )
    state.diagnostics.append(state.diag_row(avg.taylor_err, avg.R_breve.projection_residual,
                                            np.zeros(d), 0.0, 0))
    return state
