"""Networks of periodically forced Duffing oscillators and their scaled Hamiltonian form.

The original system is x_j'' + x_j^(2n+1) + dF/dx_j = 0 with a coupling
potential F(x, t) = sum_alpha P_alpha(t) x^alpha, each P_alpha a trigonometric
polynomial with period 2*pi.  Large amplitudes are handled through the scaling
x = X / A, y = X' / A^(n+1), which turns the dynamics into a Hamiltonian
eps^(-a) H0(I) + eps^(-b) R(theta, t, I) with eps = 1/A, a = n, b = n - 1.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import EscapeError
from .fourier import ActionGrid, FourierField
from .normal_form import HamiltonianSpec
from .oscillator import YOSHIDA6
from .util import write_csv

# Steps of integrate whose stage times and coupling time factors are computed at once.
BLOCK_STEPS = 512


class DuffingNetwork:
    """Coupled Duffing oscillators with a time-periodic polynomial coupling potential.

    Parameters
    ----------
    m : int
        Number of oscillators.
    n : int
        Nonlinearity exponent; the restoring force is x^(2n+1).
    terms : dict
        Maps a degree multi-index alpha (tuple of m non-negative ints with
        |alpha|_1 <= 2n+1) to the coefficient P_alpha(t), given as a
        {l: complex} mapping of time modes.
    """

    def __init__(self, m, n, terms):
        self.m = int(m)
        self.n = int(n)
        if self.m < 1 or self.n < 0:
            raise ValueError("need m >= 1 oscillators and n >= 0")
        self.terms = {}
        for alpha, p in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.m or min(alpha) < 0:
                raise ValueError(f"bad multi-index {alpha}")
            if sum(alpha) > 2 * self.n + 1:
                raise ValueError(f"|alpha| = {sum(alpha)} exceeds 2n+1 = {2 * self.n + 1}")
            self.terms[alpha] = {int(l): complex(c) for l, c in p.items()}
        self._alphas = np.array(sorted(self.terms), dtype=np.int64).reshape(-1, self.m)
        # time modes and coefficients of each P_alpha, read by `coefficient`
        self._pmodes = {}
        for alpha, p in self.terms.items():
            items = sorted(p.items())
            self._pmodes[alpha] = (np.array([l for l, _ in items], dtype=float),
                                   np.array([c for _, c in items], dtype=complex))
        # Tables of the fused force kernel, one row r per component j and term
        # alpha with alpha_j > 0, grouped by component so that each output sums its
        # terms in sorted order: exponents alpha - e_j, the scatter of alpha_j into
        # output j, and the coefficient of each time feature cos(l t - phase) in
        # P_r(t) = sum_l Re c_l cos(l t) - Im c_l sin(l t), sin(l t) = cos(l t - pi/2).
        rows = [(a, j) for j in range(self.m) for a in self._alphas if a[j] > 0]
        self._expo = np.array([a - (np.arange(self.m) == j) for a, j in rows],
                              dtype=float).reshape(-1, self.m)
        self._scatter = np.zeros((len(rows), self.m))
        lmodes = sorted({l for p in self.terms.values() for l in p})
        freq = np.array(lmodes * 2, dtype=float)
        phase = np.repeat([0.0, 0.5 * np.pi], len(lmodes))
        coef = np.zeros((freq.size, len(rows)))
        for r, (a, j) in enumerate(rows):
            self._scatter[r, j] = a[j]
            for l, c in self.terms[tuple(a)].items():
                i = lmodes.index(l)
                coef[i, r], coef[i + len(lmodes), r] = c.real, -c.imag
        keep = coef.any(axis=1)
        self._freq, self._phase, self._coef = freq[keep], phase[keep], coef[keep]

    def coefficient(self, alpha, t):
        """P_alpha at times t (real part of the stored mode sum)."""
        ls, cs = self._pmodes[tuple(int(a) for a in alpha)]
        t = np.asarray(t, dtype=float)
        return (np.exp(1j * np.multiply.outer(t, ls)) @ cs).real

    def potential(self, x, t):
        """F(x, t) for x of shape (..., m) and t broadcasting against x's batch shape."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], t.shape))
        for alpha in self._alphas:
            out = out + self.coefficient(alpha, t) * np.prod(x**alpha, axis=-1)
        return out

    def force_coefficients(self, t):
        """P_r(t) of every row r of the force kernel, shape t.shape + (rows,).

        One cos over the time features and one matmul, for any shape of t.
        """
        t = np.asarray(t, dtype=float)
        return np.cos(t[..., None] * self._freq - self._phase) @ self._coef

    def potential_gradient(self, x, P):
        """dF/dx at x of shape (..., m), given P = force_coefficients(t).

        One fused expression over the tables built at construction, the same
        for every batch shape: sum_r alpha_j(r) P_r(t) x^(alpha(r) - e_j(r)).
        P's leading shape broadcasts against x's batch shape.
        """
        x = np.asarray(x, dtype=float)
        mono = np.multiply.reduce(x[..., None, :] ** self._expo, axis=-1)
        return (P * mono) @ self._scatter

    def to_json_dict(self):
        from .util import fmt_float
        terms = []
        for alpha in sorted(self.terms):
            modes = [
                {"l": l, "re": fmt_float(c.real), "im": fmt_float(c.imag)}
                for l, c in sorted(self.terms[alpha].items())
            ]
            terms.append({"alpha": list(alpha), "modes": modes})
        return {"m": self.m, "n": self.n, "terms": terms}

    @classmethod
    def from_json_dict(cls, obj):
        terms = {}
        for trm in obj["terms"]:
            terms[tuple(trm["alpha"])] = {
                int(md["l"]): float(md["re"]) + 1j * float(md["im"]) for md in trm["modes"]
            }
        return cls(int(obj["m"]), int(obj["n"]), terms)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class ScaledSystem:
    """A Duffing network viewed at amplitude scale A > 1.

    eps = 1/A, and the scaled Hamiltonian is eps^(-a) H0(I) + eps^(-b) R with
    a = n and b = n - 1; the reduction needs n >= 1 (n = 0 has no twist).
    """

    net: DuffingNetwork
    A: float

    def __post_init__(self):
        if self.A <= 1:
            raise ValueError("amplitude scale A must exceed 1")
        if self.net.n < 1:
            raise ValueError("the scaled reduction requires n >= 1")

    @property
    def eps(self):
        return 1.0 / self.A

    @property
    def a(self):
        return self.net.n

    @property
    def b(self):
        return self.net.n - 1

    def to_original(self, x_scaled, y_scaled):
        """Map scaled phase-space points to original (X, X')."""
        n = self.net.n
        return self.A * np.asarray(x_scaled), self.A ** (n + 1) * np.asarray(y_scaled)

    def to_scaled(self, X, V):
        n = self.net.n
        return np.asarray(X) / self.A, np.asarray(V) / self.A ** (n + 1)


@dataclass
class Trajectory:
    """Sampled trajectory in original coordinates."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def to_csv(self, path, comment=None):
        m = self.x.shape[1]
        cols = ["t"] + [f"x_{j + 1}" for j in range(m)] + [f"v_{j + 1}" for j in range(m)]
        rows = [
            [self.t[i]] + list(self.x[i]) + list(self.v[i]) for i in range(self.t.size)
        ]
        write_csv(path, cols, rows, comment=comment)


def integrate(net, x0, v0, t0, T, h, sample_every, escape):
    """Integrate the original network with a 6th-order time-extended splitting.

    The kinetic/potential split alternates drifts (x += h v, t += h) and kicks
    (v += h * force(x, t)) with Yoshida-6 weights; kicks of adjacent stages are
    merged.  Raises EscapeError when |x|_inf exceeds ``escape`` or is NaN.

    The stage times do not depend on the state.  For each block of
    ``BLOCK_STEPS`` steps they are one sequential ``np.add.accumulate`` of the
    drift increments, the same sums as ``t += dt`` stage by stage, and the
    coupling's time factors at all of them come from one
    ``net.force_coefficients`` call; each kick then calls
    ``net.potential_gradient`` on the state alone.

    Batches are supported: x0 and v0 may have shape (..., m) with t0 scalar or
    shaped like the leading dimensions, in which case every orbit advances in
    lockstep and the sampled arrays keep the batch axes.
    """
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    t = np.array(t0, dtype=float)
    if t.shape not in (x.shape[:-1], ()):
        raise ValueError("t0 must be scalar or match the batch shape")
    nsteps = int(round(T / h))
    p = float(2 * net.n + 1)  # the same pow bits as the int exponent, without its cast
    # merged kick weights: leading half-stage, interior sums, trailing half-stage
    kick_w = np.empty(len(YOSHIDA6) + 1)
    kick_w[0] = 0.5 * YOSHIDA6[0]
    kick_w[1:-1] = 0.5 * (YOSHIDA6[:-1] + YOSHIDA6[1:])
    kick_w[-1] = 0.5 * YOSHIDA6[-1]
    kick_h = (kick_w * h).tolist()
    drift = (YOSHIDA6 * h).tolist()
    stages = len(drift)

    n_samples = nsteps // sample_every + 1
    ts = np.empty((n_samples,) + t.shape)
    xs = np.empty((n_samples,) + x.shape)
    vs = np.empty((n_samples,) + v.shape)
    ts[0], xs[0], vs[0] = t, x, v
    ptr = 1

    f = None
    for lo in range(0, nsteps, BLOCK_STEPS):
        nb = min(BLOCK_STEPS, nsteps - lo)
        # stage times of the block: kick i of step s sits at times[stages * s + i]
        times = np.empty((stages * nb + 1,) + t.shape)
        times[0] = t
        times[1:] = np.tile(drift, nb).reshape((-1,) + (1,) * t.ndim)
        np.add.accumulate(times, axis=0, out=times)
        P = net.force_coefficients(times)
        for s in range(nb):
            k = stages * s
            for i, kh in enumerate(kick_h):
                # a leading kick acts at the previous step's trailing (x, t): reuse its force
                if i or f is None:
                    f = x**p
                    f += net.potential_gradient(x, P[k + i])
                v -= kh * f
                if i < stages:
                    x += drift[i] * v
            if not np.abs(x).max() <= escape:  # a NaN state escapes too
                raise EscapeError(
                    f"trajectory escaped at t = {np.max(times[k + stages]):.6g}")
            if (lo + s + 1) % sample_every == 0:
                ts[ptr], xs[ptr], vs[ptr] = times[k + stages], x, v
                ptr += 1
        t = times[-1]
    return Trajectory(ts[:ptr], xs[:ptr], vs[:ptr])


def to_hamiltonian_spec(sys, aa_map, center, tau0, n_nodes, s0, K0, base_grid):
    """Project the scaled perturbation onto a Fourier field over action nodes.

    Returns a HamiltonianSpec for H = eps^(-a) H0(I) + eps^(-b) R(theta, t, I)
    with R = A^(-(2n+1)) F(A x(theta, I), t), the network's potential pulled
    back by the chart, sampled on the uniform (theta, t) grid of ``base_grid``
    points per axis times a Chebyshev action grid centered at ``center`` with
    radius ``tau0``, and projected once onto modes with |k| + |l| <= K0.  The
    grid must have at least 4 * K0 points per axis, so that every retained
    mode lies in the lower half of the resolved band.
    """
    net, A = sys.net, sys.A
    m = net.m
    N = int(base_grid)
    if N < 4 * K0:
        raise ValueError(f"base_grid {N} must be at least 4 * K0 = {4 * K0}")
    grid = ActionGrid(center, tau0, n_nodes)
    axis = 2.0 * np.pi * np.arange(N) / N  # the angle and the time grid
    theta = np.stack(np.meshgrid(*([axis] * m), indexing="ij"), axis=-1)
    # angles (N,)*m, time (1,), action nodes grid.shape
    x, _ = aa_map.to_cartesian(theta.reshape((N,) * m + (1,) * (m + 1) + (m,)),
                               grid.node_points())
    t = axis.reshape((N,) + (1,) * m)
    vals = A ** (-(2 * net.n + 1)) * net.potential(A * x, t)
    R = FourierField.from_grid(vals, m, K0, grid=grid)
    return HamiltonianSpec(
        d=m, eps=sys.eps, a=float(sys.a), b=float(sys.b), H0=aa_map.h0(), R=R,
        I0=np.asarray(center, dtype=float), s0=float(s0), tau0=float(tau0))


def chart_orbit(traj, sys, aa_map):
    """Chart angles and actions (theta, I), each (N, m), of every trajectory sample.

    Samples are mapped to the scaled chart and charted in chunks of 4096.
    """
    xs, ys = sys.to_scaled(traj.x, traj.v)
    theta, actions = np.empty_like(xs), np.empty_like(xs)
    chunk = 4096
    for lo in range(0, xs.shape[0], chunk):
        hi = lo + chunk
        theta[lo:hi], actions[lo:hi] = aa_map.from_cartesian(xs[lo:hi], ys[lo:hi])
    return theta, actions


def stability_metrics(traj, actions):
    """Sup norm and largest action deviation from the first sample.

    ``actions`` are the chart actions of the samples (see ``chart_orbit``).
    """
    sup = float((np.abs(traj.x).sum(axis=1) + np.abs(traj.v).sum(axis=1)).max())
    return {
        "sup_norm": sup,
        "action_variation": float(np.abs(actions - actions[0]).max()),
    }


def rotation_vector(traj, theta):
    """Average angular velocities of the chart angles along a trajectory.

    Unwraps the chart angles ``theta`` of the samples (see ``chart_orbit``) and
    fits a line; for F = 0 this recovers eps^(-a) * dH0/dI at the orbit's actions.
    """
    th_un = np.unwrap(theta, axis=0)
    slopes = np.polyfit(traj.t, th_un, 1)[0]
    return np.atleast_1d(slopes)
