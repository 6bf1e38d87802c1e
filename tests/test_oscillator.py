import math

import numpy as np
import pytest

from kamforge.oscillator import (YOSHIDA6, ActionAngleMap, PowerLawH0, _integrate_reference,
                                 compute_period, reference_solution)


def period_oracle(n, dps=50):
    """50-digit value of the reference period via the Beta function.

    Separating u'' = -u^(2n+1) at unit energy (n+1)v^2 + u^(2n+2) = 1 gives
    T0 = 4 sqrt(n+1)/(2n+2) * B(1/(2n+2), 1/2).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        p = mpmath.mpf(2 * n + 2)
        val = 4 * mpmath.sqrt(n + 1) / p * mpmath.beta(1 / p, mpmath.mpf(1) / 2)
        return float(val)


def test_period_harmonic_case():
    assert compute_period(0) == pytest.approx(2 * np.pi, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_period_matches_beta_oracle(n):
    oracle = period_oracle(n)
    assert abs(compute_period(n) - oracle) <= math.ulp(oracle)
    if n == 1:
        # The shipped n = 1 period must not move by a single bit: one ulp less
        # (the math.gamma form of the same closed form) moves verify's
        # invariance defect by 3.4e-8 relative, beyond the benchmark's 1e-8
        # check on the certify workload.
        assert compute_period(1) == 7.4162987092054875


def integrate_reference_numpy_scalars(n, t_grid, substeps):
    """Reference for ``_integrate_reference``: the same loop on numpy scalars.

    This is the loop before it moved to Python floats, kept here so that the
    two can be compared bit for bit.
    """
    u, v = 1.0, 0.0
    out = np.empty((t_grid.size, 2))
    out[0] = (u, v)
    t_prev = 0.0
    p = 2 * n + 1
    for i in range(1, t_grid.size):
        h = (t_grid[i] - t_prev) / substeps
        for _ in range(substeps):
            for w in YOSHIDA6:
                hh = w * h
                v -= 0.5 * hh * u**p
                u += hh * v
                v -= 0.5 * hh * u**p
        t_prev = t_grid[i]
        out[i] = (u, v)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reference_loop_matches_numpy_scalar_loop(n):
    t_grid = compute_period(n) * np.arange(64) / 64
    new = _integrate_reference(n, t_grid, 16)
    assert np.array_equal(new, integrate_reference_numpy_scalars(n, t_grid, 16))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reference_orbit_energy_relation(n):
    orbit = reference_solution(n)
    theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    u, v = orbit.eval_angle(theta)
    np.testing.assert_allclose((n + 1) * v**2 + u ** (2 * n + 2), 1.0, atol=1e-10)


def test_reference_orbit_initial_point():
    orbit = reference_solution(1)
    u, v = orbit.eval_angle(np.array([0.0]))
    assert u[0] == pytest.approx(1.0, abs=1e-12)
    assert v[0] == pytest.approx(0.0, abs=1e-12)


def test_reference_orbit_parity():
    # u(-theta) = u(theta), v(-theta) = -v(theta) for the cosine-like branch
    orbit = reference_solution(2)
    theta = np.linspace(0.1, 3.0, 17)
    up, vp = orbit.eval_angle(theta)
    um, vm = orbit.eval_angle(-theta)
    np.testing.assert_allclose(up, um, atol=1e-11)
    np.testing.assert_allclose(vp, -vm, atol=1e-11)


def test_chart_pulls_back_power_law_energy():
    aa = ActionAngleMap(1, 2)
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 2 * np.pi, (30, 2))
    I = rng.uniform(0.5, 2.0, (30, 2))
    x, y = aa.to_cartesian(theta, I)
    energy = y**2 / 2 + x**4 / 4
    np.testing.assert_allclose(energy, aa.kappa * I ** (2 * aa.beta), rtol=1e-12)


def test_chart_roundtrip_batched():
    aa = ActionAngleMap(2, 3)
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, 2 * np.pi, (4, 7, 3))
    I = rng.uniform(0.5, 2.0, (4, 7, 3))
    x, y = aa.to_cartesian(theta, I)
    tb, Ib = aa.from_cartesian(x, y)
    np.testing.assert_allclose(np.mod(tb - theta + np.pi, 2 * np.pi) - np.pi, 0.0,
                               atol=1e-9)
    np.testing.assert_allclose(Ib, I, rtol=1e-10)


def test_chart_jacobian_is_volume_preserving():
    aa = ActionAngleMap(1, 1)
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(10):
        th = rng.uniform(0, 2 * np.pi, 1)
        I = rng.uniform(0.5, 2.0, 1)
        dth = [(np.asarray(aa.to_cartesian(th + h, I)).ravel()
                - np.asarray(aa.to_cartesian(th - h, I)).ravel()) / (2 * h)]
        dI = [(np.asarray(aa.to_cartesian(th, I + h)).ravel()
               - np.asarray(aa.to_cartesian(th, I - h)).ravel()) / (2 * h)]
        J = np.stack([dth[0], dI[0]], axis=-1)
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-7)


def test_frequency_is_gradient_of_energy():
    aa = ActionAngleMap(1, 2)
    h0 = aa.h0()
    I = np.array([0.9, 1.4])
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (h0.value(I + e) - h0.value(I - e)) / (2 * h)
        assert aa.omega(I[None, :])[0, j] == pytest.approx(fd, rel=1e-8)


def test_power_law_derivatives_consistent():
    h0 = PowerLawH0(kappa=0.8671453264848216, p=4.0 / 3.0, m=2)
    I = np.array([1.1, 0.7])
    h = 1e-5
    grad = h0.grad(I)
    hess = h0.hess(I)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        np.testing.assert_allclose((h0.grad(I + e) - h0.grad(I - e)) / (2 * h),
                                   hess[:, j], rtol=1e-7, atol=1e-10)
    assert h0.min_hess_det((np.array([0.5, 0.5]), np.array([2.0, 2.0]))) > 0
    assert grad.shape == (2,)


def test_power_law_increment_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    h0 = PowerLawH0(kappa=0.8671453264848216, p=4.0 / 3.0, m=1)
    rng = np.random.default_rng(3)
    I = rng.uniform(0.5, 2.0, 60)
    U = I * np.logspace(-8, math.log10(0.5), 60) * rng.choice([-1.0, 1.0], 60)
    got = h0.increment(I[:, None], U[:, None])
    with mpmath.workdps(40):
        kappa, p = mpmath.mpf(h0.kappa), mpmath.mpf(h0.p)
        exact = np.array([float(kappa * ((mpmath.mpf(i) + mpmath.mpf(u)) ** p
                                         - mpmath.mpf(i) ** p)) for i, u in zip(I, U)])
    np.testing.assert_allclose(got, exact, rtol=1e-15, atol=0)


def test_energy_drift_guard():
    orbit = reference_solution(1)
    assert orbit.energy_defect() < 1e-10
