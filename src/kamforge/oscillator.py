"""Reference orbit and action-angle chart for the unperturbed oscillator x'' + x^(2n+1) = 0.

The chart sends (theta, I) with 2*pi-periodic theta to one oscillator's
Cartesian coordinates through the scaling family of the energy-one reference
orbit.  With the normalization c = 2*pi / (alpha * T0) the chart is exactly
symplectic and pulls the oscillator energy back to kappa * I**(2*beta).
The period T0 has the closed form 4*sqrt(n+1)*a*B(a, 1/2), a = 1/(2n+2).
"""

import mpmath
import numpy as np

from .errors import DomainError
from .util import fftn

# Yoshida's 6th-order composition (solution A): symmetric 7-stage weights.
_W1 = -0.117767998417887e1
_W2 = 0.235573213359357e0
_W3 = 0.784513610477560e0
_W0 = 1.0 - 2.0 * (_W1 + _W2 + _W3)
YOSHIDA6 = np.array([_W3, _W2, _W1, _W0, _W1, _W2, _W3])

ORIGIN_ENERGY_FLOOR = 1e-12
# Samples of the reference orbit over one period, and Yoshida-6 steps per sample.
REFERENCE_SAMPLES = 1024
REFERENCE_SUBSTEPS = 16
# Newton steps that refine the nearest-sample angle in from_cartesian.
NEWTON_STEPS = 4
# Reference-orbit Fourier coefficients below this fraction of the largest are dropped.
SPECTRUM_REL_TOL = 1e-15
# Points per axis of the grid on which PowerLawH0.min_hess_det looks for the minimum.
HESS_GRID = 9


def compute_period(n):
    """Period T0 of the energy-one reference orbit of x'' + x^(2n+1) = 0.

    Separating the energy relation (n+1) v^2 + u^(2n+2) = 1 over a quarter
    period gives the Beta closed form T0 = 4 sqrt(n+1) a B(a, 1/2) with
    a = 1/(2n+2).
    """
    n = int(n)
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if n == 0:
        return 2.0 * np.pi
    a = 1.0 / (2 * n + 2)
    # B(a, 1/2) at 30 digits, rounded once to a float
    with mpmath.workdps(30):
        beta = float(mpmath.beta(a, 0.5))
    return 4.0 * np.sqrt(n + 1.0) * a * beta


def _integrate_reference(n, t_grid, substeps):
    """Sample the reference orbit (u0, v0) from (1, 0) at the given times.

    The loop runs on Python floats, which cost a fraction of numpy scalars
    per operation and round the same way.
    """
    weights = YOSHIDA6.tolist()
    p = 2 * n + 1
    u, v = 1.0, 0.0
    out = [(u, v)]
    t_prev = 0.0
    for t in t_grid.tolist()[1:]:
        h = (t - t_prev) / substeps
        for _ in range(substeps):
            for w in weights:
                hh = w * h
                v -= 0.5 * hh * u**p
                u += hh * v
                v -= 0.5 * hh * u**p
        t_prev = t
        out.append((u, v))
    return np.array(out)


def _real_spectrum(samples):
    """Fourier modes q and coefficients of real periodic samples, |q| < N/2.

    Coefficients are conjugate-symmetrised and those below ``SPECTRUM_REL_TOL``
    times the largest are dropped.
    """
    N = samples.size
    qs = np.arange(-(N // 2 - 1), N // 2)
    c = fftn(samples.astype(complex))[np.mod(qs, N)] / N
    c = 0.5 * (c + np.conj(c[::-1]))
    keep = np.abs(c) >= SPECTRUM_REL_TOL * np.abs(c).max()
    return qs[keep], c[keep]


class ReferenceOrbit:
    """Energy-one orbit of x'' + x^(2n+1) = 0 from (1, 0), sampled and spectral.

    Attributes
    ----------
    n : int
    period : float
    samples : (N, 2) array of (u0, v0) at phases 2*pi*j/N.
    """

    def __init__(self, n, period, samples):
        self.n = int(n)
        self.period = float(period)
        self.samples = np.asarray(samples, dtype=float)
        self._uq, self._uc = _real_spectrum(self.samples[:, 0])
        self._vq, self._vc = _real_spectrum(self.samples[:, 1])

    def eval_angle(self, theta):
        """(u0, v0) at 2*pi-periodic angles theta (any shape)."""
        th = np.asarray(theta, dtype=float)
        eu = np.exp(1j * np.multiply.outer(th, self._uq))
        ev = np.exp(1j * np.multiply.outer(th, self._vq))
        return (eu @ self._uc).real, (ev @ self._vc).real

    def energy_defect(self):
        """Max deviation of (n+1) v0^2 + u0^(2n+2) from 1 over the samples."""
        u, v = self.samples[:, 0], self.samples[:, 1]
        return float(np.abs((self.n + 1) * v**2 + u ** (2 * self.n + 2) - 1.0).max())


def reference_solution(n):
    """Integrate the reference orbit: a ReferenceOrbit of ``REFERENCE_SAMPLES`` samples.

    The per-sample integration uses ``REFERENCE_SUBSTEPS`` Yoshida-6 steps,
    keeping the energy drift below 1e-10.
    """
    T0 = compute_period(n)
    t_grid = T0 * np.arange(REFERENCE_SAMPLES) / REFERENCE_SAMPLES
    samples = _integrate_reference(n, t_grid, REFERENCE_SUBSTEPS)
    orbit = ReferenceOrbit(n, T0, samples)
    defect = orbit.energy_defect()
    if defect > 1e-10:
        raise RuntimeError(f"reference orbit energy drift {defect:.3e} exceeds 1e-10")
    return orbit


class PowerLawH0:
    """Integrable Hamiltonian H0(I) = kappa * sum_j I_j^p with closed-form derivatives."""

    def __init__(self, kappa, p, m):
        self.kappa = float(kappa)
        self.p = float(p)
        self.m = int(m)

    def value(self, I):
        I = np.asarray(I, dtype=float)
        return self.kappa * np.sum(I**self.p, axis=-1)

    def increment(self, I, U):
        """H0(I + U) - H0(I) without subtracting two values of H0.

        Each term is I^p expm1(p log1p(U / I)).  It is taken in place on one
        temporary: a fresh array per operation raised the averaging step's peak
        RSS by about 8 %, heap that glibc kept after the step.
        """
        I = np.asarray(I, dtype=float)
        x = U / I
        np.log1p(x, out=x)
        x *= self.p
        np.expm1(x, out=x)
        x *= I**self.p
        return self.kappa * np.sum(x, axis=-1)

    def grad(self, I):
        I = np.asarray(I, dtype=float)
        return self.kappa * self.p * I ** (self.p - 1)

    def hess(self, I):
        I = np.asarray(I, dtype=float)
        d = self.kappa * self.p * (self.p - 1) * I ** (self.p - 2)
        return np.apply_along_axis(np.diag, -1, d) if I.ndim > 1 else np.diag(d)

    def min_hess_det(self, box):
        """Minimum Hessian determinant over a ``HESS_GRID`` grid on the action box."""
        lo, hi = box
        axes = [np.linspace(lo[j], hi[j], HESS_GRID) for j in range(self.m)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.m)
        dets = [np.linalg.det(self.hess(I)) for I in mesh]
        return float(np.min(dets))


class ActionAngleMap:
    """Per-oscillator action-angle chart for a network of m identical oscillators.

    Parameters
    ----------
    n : int
        Nonlinearity exponent (restoring force x^(2n+1)).
    m : int
        Number of oscillators.

    Attributes
    ----------
    alpha = 1/(n+2), beta = (n+1)/(n+2), c = 2*pi/(alpha*T0), and
    kappa = c**(2*beta) / (2*(n+1)) so the pulled-back oscillator energy is
    kappa * I**(2*beta).
    """

    def __init__(self, n, m):
        self.n = int(n)
        self.m = int(m)
        self.orbit = reference_solution(n)
        self.alpha = 1.0 / (self.n + 2)
        self.beta = (self.n + 1.0) / (self.n + 2)
        self.c = 2.0 * np.pi / (self.alpha * self.orbit.period)
        self.kappa = self.c ** (2 * self.beta) / (2.0 * (self.n + 1))

    def h0(self):
        """PowerLawH0 for the pulled-back integrable part, kappa * sum I^(2*beta)."""
        return PowerLawH0(self.kappa, 2.0 * self.beta, self.m)

    def omega(self, I):
        return self.h0().grad(I)

    def to_cartesian(self, theta, I):
        """(x, y) for angle/action arrays of shape (..., m)."""
        theta = np.asarray(theta, dtype=float)
        I = np.asarray(I, dtype=float)
        if np.any(I <= 0):
            raise DomainError("actions must be positive")
        u, v = self.orbit.eval_angle(theta)
        x = (self.c * I) ** self.alpha * u
        y = (self.c * I) ** self.beta * v
        return x, y

    def from_cartesian(self, x, y):
        """(theta, I) for Cartesian arrays of shape (..., m); rejects near-origin points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        shape = x.shape
        n = self.n
        e = 0.5 * y**2 + x ** (2 * n + 2) / (2.0 * (n + 1))
        if np.any(e < ORIGIN_ENERGY_FLOOR):
            raise DomainError("point too close to the origin for the action-angle chart")
        I = (2.0 * (n + 1) * e) ** (1.0 / (2 * self.beta)) / self.c
        xhat = (x / (self.c * I) ** self.alpha).ravel()
        yhat = (y / (self.c * I) ** self.beta).ravel()
        samples = self.orbit.samples
        N = samples.shape[0]
        d2 = (samples[None, :, 0] - xhat[:, None]) ** 2 + (samples[None, :, 1] - yhat[:, None]) ** 2
        theta = 2.0 * np.pi * np.argmin(d2, axis=1) / N
        for _ in range(NEWTON_STEPS):
            u, v = self.orbit.eval_angle(theta)
            # derivative of (u, v) w.r.t. the angle
            du = (self.orbit.period / (2 * np.pi)) * v
            dv = -(self.orbit.period / (2 * np.pi)) * u ** (2 * n + 1)
            g = (u - xhat) * du + (v - yhat) * dv
            gp = du**2 + dv**2 + (u - xhat) * (
                (self.orbit.period / (2 * np.pi)) * dv
            ) + (v - yhat) * (-(self.orbit.period / (2 * np.pi)) * (2 * n + 1) * u ** (2 * n) * du)
            theta = theta - g / gp
        return np.mod(theta, 2.0 * np.pi).reshape(shape), I
