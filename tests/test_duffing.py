import json

import numpy as np
import pytest

from kamforge.duffing import (BLOCK_STEPS, DuffingNetwork, ScaledSystem, Trajectory,
                              chart_orbit, integrate, rotation_vector, stability_metrics,
                              to_hamiltonian_spec)
from kamforge.errors import EscapeError
from kamforge.oscillator import YOSHIDA6, ActionAngleMap

TERMS = {
    (1, 1): {1: 2.5e-5, -1: 2.5e-5},
    (2, 0): {0: 5.0e-5},
    (2, 1): {2: 2.5e-5, -2: 2.5e-5},
}


# m = 3, complex coefficients, terms sharing time modes, a constant term and a
# term with a zero exponent
COMPLEX_TERMS = {
    (0, 0, 0): {0: 0.3, 2: 0.1 - 0.2j},
    (1, 0, 0): {-1: 0.05j, 2: 0.4 + 0.1j},
    (1, 1, 1): {1: 0.2 - 0.3j, -1: 0.2 + 0.3j},
    (2, 0, 1): {1: -0.7 + 0.1j, 0: 0.25},
    (0, 3, 0): {2: 0.15j, -3: 0.05 + 0.05j},
}
NETWORKS = {"shipped": (2, TERMS), "complex_m3": (3, COMPLEX_TERMS), "empty": (2, {})}


@pytest.mark.parametrize("shape", ["single", "batch8", "grid5x3"])
@pytest.mark.parametrize("network", list(NETWORKS))
def test_potential_gradient_matches_finite_difference(network, shape):
    m, terms = NETWORKS[network]
    net = DuffingNetwork(m, 1, terms)
    rng = np.random.default_rng(0)
    x, t = {
        "single": (rng.uniform(-1.5, 1.5, m), 0.7),
        "batch8": (rng.uniform(-1.5, 1.5, (8, m)), rng.uniform(0, 2 * np.pi, 8)),
        "grid5x3": (rng.uniform(-1.5, 1.5, (5, 3, m)), 2.3),
    }[shape]
    g = net.potential_gradient(x, net.force_coefficients(t))
    assert g.shape == x.shape
    # the gradient assembled term by term from coefficient(alpha, t)
    ref = np.zeros_like(x)
    for alpha in net.terms:
        P = net.coefficient(alpha, t)
        for j in range(m):
            if alpha[j]:
                ae = np.array(alpha) - (np.arange(m) == j)
                ref[..., j] += alpha[j] * P * np.prod(x**ae, axis=-1)
    # 1e-14 relative to the largest component; exact zeros for the empty network
    np.testing.assert_allclose(g, ref, rtol=0, atol=1e-14 * np.abs(ref).max(initial=0))
    h = 1e-6
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        fd = (net.potential(x + e, t) - net.potential(x - e, t)) / (2 * h)
        np.testing.assert_allclose(g[..., j], fd, rtol=0, atol=1e-9)


@pytest.mark.parametrize("network", list(NETWORKS))
def test_force_coefficients_match_coefficient(network):
    m, terms = NETWORKS[network]
    net = DuffingNetwork(m, 1, terms)
    t = np.random.default_rng(5).uniform(-10, 10, (6, 4))
    P = net.force_coefficients(t)
    # kernel rows: one per component j and term alpha with alpha_j > 0, grouped by j
    alphas = [alpha for j in range(m) for alpha in sorted(net.terms) if alpha[j]]
    assert P.shape == t.shape + (len(alphas),)
    for r, alpha in enumerate(alphas):
        scale = sum(abs(c) for c in net.terms[alpha].values())
        np.testing.assert_allclose(P[..., r], net.coefficient(alpha, t), rtol=0,
                                   atol=1e-14 * scale)


def test_coefficient_is_real_trig_polynomial():
    net = DuffingNetwork(2, 1, TERMS)
    t = np.linspace(0, 2 * np.pi, 7)
    c = net.coefficient((1, 1), t)
    np.testing.assert_allclose(c, 2 * 2.5e-5 * np.cos(t), atol=1e-18)


def test_json_roundtrip(tmp_path):
    net = DuffingNetwork(2, 1, TERMS)
    path = tmp_path / "net.json"
    with open(path, "w") as fh:
        json.dump(net.to_json_dict(), fh)
    back = DuffingNetwork.load(path)
    assert back.m == net.m and back.n == net.n
    assert set(back.terms) == set(net.terms)
    for alpha in net.terms:
        assert back.terms[alpha] == pytest.approx(net.terms[alpha])


def test_scaling_roundtrip_and_exponents():
    net = DuffingNetwork(2, 1, TERMS)
    sys_ = ScaledSystem(net, 10.0)
    assert sys_.eps == pytest.approx(0.1)
    assert (sys_.a, sys_.b) == (1, 0)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 5, 2))
    X, V = sys_.to_original(x, y)
    xb, yb = sys_.to_scaled(X, V)
    np.testing.assert_allclose(xb, x, rtol=1e-15)
    np.testing.assert_allclose(yb, y, rtol=1e-15)
    with pytest.raises(ValueError):
        ScaledSystem(net, 0.5)


def test_uncoupled_energy_conservation_and_order():
    net = DuffingNetwork(1, 1, {})
    x0, v0 = np.array([1.3]), np.array([0.4])

    def energy_err(h):
        traj = integrate(net, x0, v0, 0.0, 10.0, h, sample_every=int(round(10.0 / h)),
                           escape=1e8)
        e = traj.v**2 / 2 + traj.x**4 / 4
        return abs(e[-1, 0] - e[0, 0])

    e1, e2 = energy_err(0.02), energy_err(0.01)
    assert e1 < 1e-9
    # sixth-order splitting: halving the step cuts the defect by about 2^6
    assert 30 < e1 / e2 < 130


def test_batched_integration_matches_single_orbits():
    net = DuffingNetwork(2, 1, TERMS)
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1, 1, (4, 2))
    v0 = rng.uniform(-1, 1, (4, 2))
    t0 = rng.uniform(0, 2 * np.pi, 4)
    batch = integrate(net, x0, v0, t0, 5.0, 0.01, sample_every=500, escape=1e8)
    for i in range(4):
        single = integrate(net, x0[i], v0[i], float(t0[i]), 5.0, 0.01,
                           sample_every=500, escape=1e8)
        np.testing.assert_allclose(batch.x[-1, i], single.x[-1], rtol=1e-12)
        np.testing.assert_allclose(batch.v[-1, i], single.v[-1], rtol=1e-12)


def stage_loop(net, x0, v0, t0, nsteps, h):
    """Reference Yoshida-6 loop: t += dt and the time factors at every stage.

    Returns the (t, x, v) samples after every step, the first one included.
    """
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    t = np.array(t0, dtype=float)
    p = 2 * net.n + 1
    kick_w = np.empty(len(YOSHIDA6) + 1)
    kick_w[0] = 0.5 * YOSHIDA6[0]
    kick_w[1:-1] = 0.5 * (YOSHIDA6[:-1] + YOSHIDA6[1:])
    kick_w[-1] = 0.5 * YOSHIDA6[-1]

    def force(x, t):
        return -(x**p) - net.potential_gradient(x, net.force_coefficients(t))

    ts, xs, vs = [t.copy()], [x.copy()], [v.copy()]
    for _ in range(nsteps):
        v += (kick_w[0] * h) * force(x, t)
        for i in range(len(YOSHIDA6)):
            dt = YOSHIDA6[i] * h
            x += dt * v
            t += dt
            v += (kick_w[i + 1] * h) * force(x, t)
        ts.append(t.copy())
        xs.append(x.copy())
        vs.append(v.copy())
    return np.array(ts), np.array(xs), np.array(vs)


# A scalar stage time makes force_coefficients a vector-matrix product; BLAS
# rounds it as the block's matrix product for the shipped terms, not for every
# network, so the m = 3 network is compared with per-orbit times only.
@pytest.mark.parametrize("network,batch", [("shipped", False), ("shipped", True),
                                           ("complex_m3", True)])
def test_integrate_matches_stage_loop_bitwise(network, batch):
    m, terms = NETWORKS[network]
    net = DuffingNetwork(m, 1, terms)
    rng = np.random.default_rng(6)
    shape = (4, m) if batch else (m,)
    x0, v0 = rng.uniform(-1, 1, (2,) + shape)
    t0 = rng.uniform(0, 2 * np.pi, 4) if batch else 0.7
    nsteps, h = 2 * BLOCK_STEPS + 3, 0.01
    traj = integrate(net, x0, v0, t0, nsteps * h, h, sample_every=1, escape=1e8)
    ts, xs, vs = stage_loop(net, x0, v0, t0, nsteps, h)
    assert traj.t.shape == ts.shape
    assert np.array_equal(traj.t, ts)
    assert np.array_equal(traj.x, xs)
    assert np.array_equal(traj.v, vs)


def test_escape_raises():
    net = DuffingNetwork(1, 1, {})
    with pytest.raises(EscapeError):
        integrate(net, np.array([0.0]), np.array([1.0]), 0.0, 5.0, 0.01, sample_every=1,
                  escape=0.5)
    # an orbit that crosses the bound inside the second block of steps
    h, escape, nsteps = 1e-3, 0.7, 2 * BLOCK_STEPS
    ts, xs, _ = stage_loop(net, [0.0], [1.0], 0.0, nsteps, h)
    first = int(np.argmax(np.abs(xs).max(axis=1) > escape))
    assert BLOCK_STEPS < first <= nsteps
    with pytest.raises(EscapeError, match=f"at t = {ts[first]:.6g}$"):
        integrate(net, np.array([0.0]), np.array([1.0]), 0.0, nsteps * h, h,
                  sample_every=1, escape=escape)


def test_trajectory_csv_layout(tmp_path):
    traj = Trajectory(t=np.array([0.0, 1.0]),
                      x=np.array([[1.0, 2.0], [3.0, 4.0]]),
                      v=np.array([[5.0, 6.0], [7.0, 8.0]]))
    path = tmp_path / "orbit.csv"
    traj.to_csv(path, comment="config deadbeef")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# config deadbeef"
    assert lines[1] == "t,x_1,x_2,v_1,v_2"
    assert lines[2].split(",") == ["0", "1", "2", "5", "6"]


def test_uncoupled_orbit_conserves_action():
    net = DuffingNetwork(2, 1, {})
    sys_ = ScaledSystem(net, 10.0)
    aa = ActionAngleMap(1, 2)
    theta0 = np.array([0.3, 1.0])
    I0 = np.array([1.0, 1.3])
    x0, y0 = aa.to_cartesian(theta0, I0)
    X0, V0 = sys_.to_original(x0, y0)
    traj = integrate(net, X0, V0, 0.0, 50.0, 0.005, sample_every=40, escape=1e8)
    _, actions = chart_orbit(traj, sys_, aa)
    metrics = stability_metrics(traj, actions)
    assert metrics["action_variation"] < 1e-8
    assert np.isfinite(metrics["sup_norm"])


def test_uncoupled_rotation_matches_frequency_map():
    net = DuffingNetwork(2, 1, {})
    sys_ = ScaledSystem(net, 10.0)
    aa = ActionAngleMap(1, 2)
    I0 = np.array([1.0, 1.3])
    x0, y0 = aa.to_cartesian(np.zeros(2), I0)
    X0, V0 = sys_.to_original(x0, y0)
    traj = integrate(net, X0, V0, 0.0, 50.0, 0.005, sample_every=40, escape=1e8)
    theta, _ = chart_orbit(traj, sys_, aa)
    rot = rotation_vector(traj, theta)
    target = sys_.eps ** (-sys_.a) * aa.omega(I0[None, :])[0]
    np.testing.assert_allclose(rot, target, rtol=1e-6)


def test_hamiltonian_spec_reproduces_scaled_forcing():
    net = DuffingNetwork(2, 1, TERMS)
    sys_ = ScaledSystem(net, 10.0)
    aa = ActionAngleMap(1, 2)
    I0 = np.array([1.0, 1.3])
    spec = to_hamiltonian_spec(sys_, aa, I0, 2e-3, n_nodes=5, s0=0.35, K0=16,
                               base_grid=64)
    assert (spec.a, spec.b) == (1, 0)
    rng = np.random.default_rng(4)
    theta = rng.uniform(0, 2 * np.pi, (20, 2))
    t = rng.uniform(0, 2 * np.pi, 20)
    II = I0[None, :] + rng.uniform(-1, 1, (20, 2)) * 1e-3
    got = spec.R.evaluate(theta, t, II)
    A = sys_.A
    n = net.n
    x, _ = aa.to_cartesian(theta, II)
    want = A ** (-(2 * n + 1)) * net.potential(A * x, t)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_hamiltonian_spec_needs_four_grid_points_per_retained_order():
    sys_ = ScaledSystem(DuffingNetwork(2, 1, TERMS), 10.0)
    aa = ActionAngleMap(1, 2)
    with pytest.raises(ValueError, match=r"base_grid 32 must be at least 4 \* K0 = 64"):
        to_hamiltonian_spec(sys_, aa, np.array([1.0, 1.3]), 2e-3, n_nodes=5, s0=0.35,
                            K0=16, base_grid=32)
